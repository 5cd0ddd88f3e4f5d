"""Metric implementations checked against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alternator import metrics
from alternator.errors import ConfigError, ShapeError
from alternator.metrics import (
    crps_ensemble,
    marginal_mmd,
    median_bandwidth,
    mmd_rbf,
    pointwise_metrics,
    sequence_mmd,
)


# --- oracles ---------------------------------------------------------------

def mmd_bruteforce(X, Y, h):
    """Naive double-loop V-statistic; deliberately independent code path."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)

    def k(a, b):
        d = a - b
        return np.exp(-float(d @ d) / (2.0 * h * h))

    def mean_kernel(A, B):
        total = 0.0
        for a in A:
            for b in B:
                total += k(a, b)
        return total / (len(A) * len(B))

    return mean_kernel(X, X) + mean_kernel(Y, Y) - 2.0 * mean_kernel(X, Y)


def crps_integral(members, y):
    """Exact integral of (F(u) - step(u - y))^2 for the empirical CDF."""
    members = np.sort(np.asarray(members, dtype=np.float64))
    M = len(members)
    points = np.sort(np.concatenate([members, [y]]))
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b == a:
            continue
        F = np.searchsorted(members, a, side="right") / M
        H = 1.0 if a >= y else 0.0
        total += (F - H) ** 2 * (b - a)
    return total


# --- bandwidth --------------------------------------------------------------

def test_median_bandwidth_enumerated():
    # distances {1, 3, 2} -> median 2
    assert median_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0


def test_median_bandwidth_degenerate_fallback():
    assert median_bandwidth(np.zeros((4, 2))) == 1.0


def test_median_bandwidth_single_pair():
    assert median_bandwidth(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0


def test_median_bandwidth_needs_two_points():
    with pytest.raises(ConfigError):
        median_bandwidth(np.ones((1, 3)))


# --- MMD ---------------------------------------------------------------------

def test_mmd_identical_sets_zero():
    X = np.random.default_rng(0).normal(size=(10, 3))
    assert abs(mmd_rbf(X, X, h=1.3)) <= 1e-12


def test_mmd_two_singletons_closed_form():
    val = mmd_rbf(np.array([[0.0]]), np.array([[1.0]]), h=1.0)
    assert val == pytest.approx(2.0 - 2.0 * np.exp(-0.5), abs=1e-12)


def test_mmd_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(loc=0.4, size=(20, 4))
    h = median_bandwidth(np.concatenate([X, Y]))
    assert mmd_rbf(X, Y, h) == pytest.approx(mmd_bruteforce(X, Y, h), abs=1e-12)


def test_mmd_symmetry_and_order_invariance():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 2))
    Y = rng.normal(size=(9, 2))
    assert mmd_rbf(X, Y, 0.8) == pytest.approx(mmd_rbf(Y, X, 0.8), abs=1e-12)
    perm = rng.permutation(12)
    assert mmd_rbf(X[perm], Y, 0.8) == pytest.approx(mmd_rbf(X, Y, 0.8), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=8),
    st.floats(0.1, 5.0),
)
def test_mmd_self_zero_property(values, h):
    X = np.array(values)[:, None]
    assert abs(mmd_rbf(X, X, h)) <= 1e-12


def test_mmd_shape_mismatch():
    with pytest.raises(ShapeError):
        mmd_rbf(np.ones((3, 2)), np.ones((3, 3)), 1.0)


def test_sequence_mmd_flattens_and_separates():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(15, 6, 1))
    B = rng.normal(loc=3.0, size=(15, 6, 1))
    assert sequence_mmd(A, A[::-1]) <= 1e-12 + sequence_mmd(A, B)
    assert sequence_mmd(A, B) > 10 * abs(sequence_mmd(A, A))


def test_marginal_mmd_runs_and_zero_on_self():
    A = np.random.default_rng(4).normal(size=(10, 3, 2))
    assert abs(marginal_mmd(A, A)) <= 1e-12


def test_sequence_mmd_equals_oracles_bitwise():
    # 517 rows of 100 values: the distance pass runs in many row blocks, the
    # last one partial.
    rng = np.random.default_rng(5)
    A = rng.normal(size=(300, 50, 2))
    B = rng.normal(loc=0.2, size=(217, 50, 2))
    X, Y = A.reshape(300, -1), B.reshape(217, -1)
    h = median_bandwidth(np.concatenate([X, Y]))
    assert sequence_mmd(A, B) == mmd_rbf(X, Y, h)
    assert sequence_mmd(A, B, h=0.7) == mmd_rbf(X, Y, 0.7)
    assert sequence_mmd(A[:1], B[:1]) == mmd_rbf(X[:1], Y[:1], median_bandwidth(
        np.concatenate([X[:1], Y[:1]])))


@pytest.mark.parametrize("block_bytes", [1, 8 * 63 * 63 * 20, 8 * 63 * 20 * 31])
def test_sequence_mmd_equals_oracles_bitwise_at_any_block_size(monkeypatch, block_bytes):
    # 1 byte: _BLOCK_BYTES // (8 n d) is 0, so every block is one row.
    # 8 n^2 d bytes: all 63 rows fit in one block. 31 rows a block: the last
    # block holds the 63rd row alone.
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(40, 10, 2))
    B = rng.normal(loc=0.3, size=(23, 10, 2))
    X, Y = A.reshape(40, -1), B.reshape(23, -1)
    h = median_bandwidth(np.concatenate([X, Y]))
    assert sequence_mmd(A, B) == mmd_rbf(X, Y, h)
    assert sequence_mmd(A, B, h=0.9) == mmd_rbf(X, Y, 0.9)


@pytest.mark.parametrize("N, M", [(1, 4), (1, 5), (2, 2), (3, 8), (8, 3), (6, 7), (7, 7)])
def test_sequence_mmd_equals_oracles_bitwise_at_any_shape(N, M):
    # n = N + M samples give n(n-1)/2 distances: 10, 15, 6, 55, 55, 78 and
    # 91, so the median is one middle element or the mean of two; one
    # sample on one side leaves its kernel block a single zero distance.
    rng = np.random.default_rng(9 + N * M)
    A = rng.normal(size=(N, 5, 2))
    B = rng.normal(loc=0.4, size=(M, 5, 2))
    X, Y = A.reshape(N, -1), B.reshape(M, -1)
    h = median_bandwidth(np.concatenate([X, Y]))
    assert sequence_mmd(A, B) == mmd_rbf(X, Y, h)
    assert sequence_mmd(B, A) == mmd_rbf(Y, X, h)
    assert sequence_mmd(A, B, h=1.1) == mmd_rbf(X, Y, 1.1)


def test_marginal_mmd_equals_per_timestep_oracle_loop_bitwise():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(40, 7, 3))
    B = rng.normal(loc=0.5, size=(23, 7, 3))
    vals = []
    for t in range(A.shape[1]):
        h = median_bandwidth(np.concatenate([A[:, t], B[:, t]], axis=0))
        vals.append(mmd_rbf(A[:, t], B[:, t], h))
    assert marginal_mmd(A, B) == float(np.mean(vals))


def test_marginal_mmd_equals_per_timestep_oracle_with_one_row_blocks(monkeypatch):
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(10)
    A = rng.normal(size=(17, 4, 2))
    B = rng.normal(loc=0.5, size=(12, 4, 2))
    vals = [mmd_rbf(A[:, t], B[:, t], median_bandwidth(np.concatenate([A[:, t], B[:, t]])))
            for t in range(A.shape[1])]
    assert marginal_mmd(A, B) == float(np.mean(vals))


def test_sequence_mmd_rejects_bad_inputs():
    A = np.ones((3, 4, 1))
    with pytest.raises(ShapeError):
        sequence_mmd(A, np.ones((3, 5, 1)))
    with pytest.raises(ConfigError):
        sequence_mmd(A, np.ones((0, 4, 1)))
    with pytest.raises(ConfigError):
        sequence_mmd(A, A, h=0.0)


def test_sequence_mmd_memory_is_bounded_at_eval_size():
    # The default evaluation size. An (N, M, T) difference tensor alone is
    # 100 MB and the full (N+M)^2 distance matrix with its triu mask peaks at
    # about 17 MiB; the condensed triangle, its one working copy for the
    # median and the union of both sets take about 8 MiB.
    rng = np.random.default_rng(7)
    A = rng.normal(size=(500, 50, 1))
    B = rng.normal(size=(500, 50, 1))
    tracemalloc.start()
    try:
        sequence_mmd(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# --- CRPS ---------------------------------------------------------------------

def test_crps_degenerate_ensemble_is_absolute_error():
    members = np.full(7, 1.4)
    assert crps_ensemble(members, 0.9) == pytest.approx(0.5, abs=1e-12)


def test_crps_two_member_enumeration():
    assert crps_ensemble(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5, abs=1e-12)


def test_crps_single_member_exact_hit():
    assert crps_ensemble(np.array([0.7]), 0.7) == 0.0


@pytest.mark.parametrize("M", [1, 2, 3])
def test_crps_matches_piecewise_integral_oracle(M):
    rng = np.random.default_rng(5)
    for trial in range(25):
        members = rng.normal(size=M)
        y = rng.normal()
        assert crps_ensemble(members, y) == pytest.approx(
            crps_integral(members, y), abs=1e-10
        )


def test_crps_member_order_invariance():
    rng = np.random.default_rng(6)
    members = rng.normal(size=9)
    y = 0.3
    assert crps_ensemble(members, y) == pytest.approx(
        crps_ensemble(members[::-1].copy(), y), abs=1e-13
    )


@settings(max_examples=30, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.integers(1, 6))
def test_crps_constant_ensemble_property(c, y, M):
    assert crps_ensemble(np.full(M, c), y) == pytest.approx(abs(c - y), abs=1e-12)


def test_crps_multivariate_averages_coordinates():
    members = np.array([[0.0, 1.0], [2.0, 1.0]])
    y = np.array([1.0, 1.0])
    # coord 0: members {0,2} vs 1 -> 0.5; coord 1: degenerate exact -> 0
    assert crps_ensemble(members, y) == pytest.approx(0.25, abs=1e-12)


# --- pointwise ------------------------------------------------------------------

def test_pointwise_perfect_prediction():
    pm = pointwise_metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert (pm.mae, pm.mse, pm.cc) == (0.0, 0.0, pytest.approx(1.0))


def test_pointwise_constant_offset():
    pm = pointwise_metrics(np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0]))
    assert pm.mae == pytest.approx(1.0)
    assert pm.mse == pytest.approx(1.0)
    assert pm.cc == pytest.approx(1.0)


def test_pointwise_constant_series_flags_cc():
    pm = pointwise_metrics(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    assert pm.cc is None
    assert pm.mae == pytest.approx(2.0 / 3.0)


def test_pointwise_length_mismatch():
    with pytest.raises(ShapeError):
        pointwise_metrics(np.ones(3), np.ones(4))


def test_pointwise_empty_series_is_config_error():
    # it returned NaN MAE and MSE with numpy RuntimeWarnings
    with pytest.raises(ConfigError, match="at least one value"):
        pointwise_metrics(np.zeros(0), np.zeros((0, 2)))
