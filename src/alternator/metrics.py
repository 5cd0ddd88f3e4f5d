"""Evaluation metrics: RBF-kernel MMD, ensemble CRPS, pointwise errors.

``sequence_mmd`` and ``marginal_mmd`` compute the squared distances of the
union of both sample sets once, a fixed-size block of rows at a time, and
store each distance once: in a condensed row-major upper triangle of
n(n-1)/2 floats. The median bandwidth is taken from one working copy of
that triangle, and each of the three kernel means from one contiguous
(N, N), (M, M) or (N, M) buffer filled from it, so memory is the triangle
plus one block. Their values are bitwise equal to
``mmd_rbf(X, Y, median_bandwidth([X; Y]))``, the two public oracles, which
build each distance block on their own.
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
    n(n-1)/2 distances of the condensed triangle plus one block, not the
    (N+M)^2 matrix or an (N, M, d) tensor.
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
    # Row i of the triangle holds d(i, j) for j > i; d(i, j) sits at
    # starts[i] + j. d(i, j) and d(j, i) are bitwise equal: (a - b)^2 ==
    # (b - a)^2 and each row sum runs in the same order.
    starts = [i * (2 * n - i - 1) // 2 - i - 1 for i in range(n)]
    tri = np.empty(n * (n - 1) // 2)
    for r in range(0, n, rows):
        block = _pairwise_sq_dists(U[r:r + rows], U[r:])
        for i in range(r, min(r + rows, n)):
            tri[starts[i] + i + 1:starts[i] + n] = block[i - r, i - r + 1:]
    if h is None:
        # sqrt is monotone, so np.median(np.sqrt(tri)) is the mean of the
        # roots of the one or two middle elements of a partitioned copy.
        m = tri.size // 2
        mid = [m] if tri.size % 2 else [m - 1, m]
        h = float(np.sqrt(np.partition(tri, mid)[mid[0]:m + 1]).mean())
        h = h if h > 0.0 else 1.0
    s = 2.0 * h * h
    N = X.shape[0]
    kxx = _kernel_mean(tri, starts, 0, N, 0, N, s)
    kyy = _kernel_mean(tri, starts, N, n, N, n, s)
    kxy = _kernel_mean(tri, starts, 0, N, N, n, s)
    return float(kxx + kyy - 2.0 * kxy)


def _kernel_mean(tri, starts, r0, r1, c0, c1, s):
    """Mean of exp(-D / s) over the block D[r0:r1, c0:c1] of the triangle.

    The block is either on the diagonal (r0 == c0, r1 == c1) or wholly above
    it. It is one new contiguous buffer, negated, divided and exponentiated
    in place, so its mean sums in the same order as mmd_rbf's.
    """
    buf = np.empty((r1 - r0, c1 - c0))
    for i in range(r0, r1):
        j0 = max(c0, i + 1)
        row = tri[starts[i] + j0:starts[i] + c1]
        buf[i - r0, j0 - c0:] = row
        if r0 == c0:
            buf[j0 - c0:, i - r0] = row
            buf[i - r0, i - c0] = 0.0
    np.negative(buf, out=buf)
    buf /= s
    np.exp(buf, out=buf)
    return buf.mean()


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
    if y.size == 0:
        raise ConfigError("pointwise metrics need at least one value")
    err = y - yhat
    mae = float(np.abs(err).mean())
    mse = float((err * err).mean())
    dy = y - y.mean()
    dh = yhat - yhat.mean()
    denom = np.sqrt((dy * dy).sum() * (dh * dh).sum())
    cc = float((dy * dh).sum() / denom) if denom > 0.0 else None
    return PointwiseMetrics(mae=mae, mse=mse, cc=cc)
