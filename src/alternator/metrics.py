"""Evaluation metrics: RBF-kernel MMD, ensemble CRPS, pointwise errors.

``sequence_mmd`` and ``marginal_mmd`` compute the squared distances of the
union of both sample sets once, a fixed-size block of rows at a time. Each
block covers only the columns on and above the diagonal and is mirrored
below it, so every distance is computed once. The median bandwidth and the
three kernel means are taken from that one matrix.
Their values are bitwise equal to ``mmd_rbf(X, Y, median_bandwidth([X; Y]))``,
the two public oracles, which build each distance block on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def median_bandwidth(points: np.ndarray) -> float:
    """Median pairwise Euclidean distance over distinct index pairs.

    Falls back to 1.0 when the median is zero (all points coincide).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 2:
        raise ConfigError("median bandwidth needs at least two points")
    sq = _pairwise_sq_dists(points, points)
    iu = np.triu_indices(points.shape[0], k=1)
    med = float(np.median(np.sqrt(sq[iu])))
    return med if med > 0.0 else 1.0


def mmd_rbf(X: np.ndarray, Y: np.ndarray, h: float) -> float:
    """Biased (V-statistic) squared MMD with kernel exp(-||a-b||^2 / (2 h^2)).

    Sample sets are (N, d) and (M, d); 1-D inputs are treated as (N, 1).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ShapeError(f"incompatible sample shapes {X.shape} and {Y.shape}")
    if X.shape[0] < 1 or Y.shape[0] < 1:
        raise ConfigError("both sample sets must be non-empty")
    if h <= 0.0:
        raise ConfigError("bandwidth must be positive")
    s = 2.0 * h * h
    kxx = np.exp(-_pairwise_sq_dists(X, X) / s).mean()
    kyy = np.exp(-_pairwise_sq_dists(Y, Y) / s).mean()
    kxy = np.exp(-_pairwise_sq_dists(X, Y) / s).mean()
    return float(kxx + kyy - 2.0 * kxy)


def flatten_sequences(data: np.ndarray) -> np.ndarray:
    """(N, T, d) sequences -> (N, T*d) sample vectors for sequence-level MMD."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ShapeError(f"expected (N, T, d) sequences, got {data.shape}")
    return data.reshape(data.shape[0], data.shape[1] * data.shape[2])


# Bytes of the largest (rows, N+M, d) difference tensor built per block of
# rows; later blocks cover fewer columns.
_BLOCK_BYTES = 4 * 2**20


def _union_mmd(X: np.ndarray, Y: np.ndarray, h: "float | None" = None) -> float:
    """mmd_rbf(X, Y, h) from one blocked distance pass over the rows of [X; Y].

    ``h`` defaults to the median bandwidth of the union. Memory is the
    (N+M)^2 distance matrix plus one block, not an (N, M, d) tensor.
    """
    if X.shape[1] != Y.shape[1]:
        raise ShapeError(f"incompatible sample shapes {X.shape} and {Y.shape}")
    if X.shape[0] < 1 or Y.shape[0] < 1:
        raise ConfigError("both sample sets must be non-empty")
    if h is not None and h <= 0.0:
        raise ConfigError("bandwidth must be positive")
    U = np.concatenate([X, Y], axis=0)
    n = U.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * n * max(1, U.shape[1])))
    D = np.empty((n, n))
    for r in range(0, n, rows):
        # d(i, j) and d(j, i) are bitwise equal: (a - b)^2 == (b - a)^2 and
        # each row sum runs in the same order. So each block covers only
        # columns r: and is mirrored below the diagonal.
        block = _pairwise_sq_dists(U[r:r + rows], U[r:])
        D[r:r + rows, r:] = block
        D[r:, r:r + rows] = block.T
    if h is None:
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        h = float(np.median(np.sqrt(D[upper])))
        h = h if h > 0.0 else 1.0
    s = 2.0 * h * h
    N = X.shape[0]
    # Each kernel block is a new contiguous array, so its mean sums in the
    # same order as mmd_rbf's.
    kxx = np.exp(-D[:N, :N] / s).mean()
    kyy = np.exp(-D[N:, N:] / s).mean()
    kxy = np.exp(-D[:N, N:] / s).mean()
    return float(kxx + kyy - 2.0 * kxy)


def sequence_mmd(samples: np.ndarray, reference: np.ndarray, h: "float | None" = None) -> float:
    """MMD between two sequence sets, flattened, median-heuristic bandwidth.

    The bandwidth is computed on the union of both sets unless given.
    """
    return _union_mmd(flatten_sequences(samples), flatten_sequences(reference), h)


def marginal_mmd(samples: np.ndarray, reference: np.ndarray) -> float:
    """Per-timestep marginal variant: average MMD over aligned timesteps."""
    X = np.asarray(samples, dtype=np.float64)
    Y = np.asarray(reference, dtype=np.float64)
    if X.ndim != 3 or Y.ndim != 3 or X.shape[1:] != Y.shape[1:]:
        raise ShapeError("marginal MMD needs (N, T, d) sets with matching T and d")
    return float(np.mean([_union_mmd(X[:, t], Y[:, t]) for t in range(X.shape[1])]))


def crps_ensemble(members: np.ndarray, observation) -> float:
    """Sample CRPS: mean |x_i - y| - mean_{ij} |x_i - x_j| / 2.

    The pairwise sum uses the plain M^2 normalization. Multivariate members
    of shape (M, d) against a (d,) observation average the univariate score
    over coordinates.
    """
    members = np.asarray(members, dtype=np.float64)
    y = np.asarray(observation, dtype=np.float64)
    if members.ndim == 1:
        members = members[:, None]
        y = y.reshape(1)
    if members.ndim != 2 or y.shape != (members.shape[1],):
        raise ShapeError(f"incompatible member/observation shapes {members.shape} vs {y.shape}")
    if members.shape[0] < 1:
        raise ConfigError("ensemble must have at least one member")
    scores = []
    for j in range(members.shape[1]):
        x = members[:, j]
        term1 = np.abs(x - y[j]).mean()
        term2 = np.abs(x[:, None] - x[None, :]).mean() / 2.0
        scores.append(term1 - term2)
    return float(np.mean(scores))


@dataclass
class PointwiseMetrics:
    mae: float
    mse: float
    cc: "float | None"     # None when either side is constant


def pointwise_metrics(y: np.ndarray, yhat: np.ndarray) -> PointwiseMetrics:
    """MAE, MSE, and Pearson correlation between flattened series."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
    if y.shape != yhat.shape:
        raise ShapeError(f"series lengths differ: {y.shape} vs {yhat.shape}")
    err = y - yhat
    mae = float(np.abs(err).mean())
    mse = float((err * err).mean())
    dy = y - y.mean()
    dh = yhat - yhat.mean()
    denom = np.sqrt((dy * dy).sum() * (dh * dh).sum())
    cc = float((dy * dh).sum() / denom) if denom > 0.0 else None
    return PointwiseMetrics(mae=mae, mse=mse, cc=cc)
