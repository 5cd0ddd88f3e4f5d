"""Tests of the benchmark's own arithmetic: self time, percentiles, reference checks.

    python3 -m pytest bench/test_bench.py
"""

import math

import pytest

import stats


def test_self_time_subtracts_nested_children():
    # root [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6] inside the second
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    assert stats.self_times(parents, starts, ends) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # children [1, 5] and [3, 7] overlap on [3, 5]; child [9, 12] sticks out of [0, 10]
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    assert stats.self_times(parents, starts, ends)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert stats.self_times([-1], [2.5], [4.0]) == [1.5]


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 20) == 1.0
    assert stats.percentile(values, 21) == 2.0
    assert stats.percentile(values, 100) == 5.0
    hundred = [float(i) for i in range(1, 101)]
    assert stats.percentile(hundred, 90) == 90.0
    assert stats.percentile(hundred, 99) == 99.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


@pytest.mark.parametrize("n, expected", [
    (10, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert stats.tail_percentile(n) == expected


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    # exclusive quartiles: Q1 at rank 2.75 = 9.725, Q3 at rank 8.25 = 10.275
    assert stats.quartile_spread(values) == pytest.approx((10.275 - 9.725) / 10.0)


def test_compare_accepts_values_within_tolerance():
    ref = {"total": 100.0, "model_mse": [0.5, 0.25]}
    got = {"total": 100.0 + 5e-5, "model_mse": [0.5 * (1 + 1e-7), 0.25], "extra": 1.0}
    assert stats.compare(got, ref, rtol=1e-6, atol=1e-9) == []


@pytest.mark.parametrize("got", [
    {"total": 100.001, "model_mse": [0.5, 0.25]},           # outside rtol
    {"total": 100.0, "model_mse": [0.5, 0.2501]},            # one element off
    {"total": 100.0, "model_mse": [0.5]},                    # wrong length
    {"model_mse": [0.5, 0.25]},                              # missing value
    {"total": math.nan, "model_mse": [0.5, 0.25]},           # not finite
    {"total": "100.0", "model_mse": [0.5, 0.25]},            # not a number
])
def test_compare_reports_each_mismatch(got):
    ref = {"total": 100.0, "model_mse": [0.5, 0.25]}
    assert len(stats.compare(got, ref, rtol=1e-6, atol=1e-9)) == 1


def test_compare_uses_absolute_tolerance_near_zero():
    assert stats.compare({"mean": 5e-10}, {"mean": 0.0}, rtol=1e-6, atol=1e-9) == []
    assert stats.compare({"mean": 5e-9}, {"mean": 0.0}, rtol=1e-6, atol=1e-9) != []
