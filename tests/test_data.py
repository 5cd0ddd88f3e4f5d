"""Dataset ingestion, normalization, synthetic generators, splits."""

import numpy as np
import pytest

from alternator.data import (
    SeriesDataset,
    denormalize,
    load_csv,
    normalize_minmax,
    save_csv,
    split_dataset,
    synth_ar1,
    synth_bimodal,
)
from alternator.errors import ConfigError, DataError


# --- CSV -----------------------------------------------------------------

def _write(tmp_path, text):
    p = tmp_path / "data.csv"
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_basic_shape(tmp_path):
    p = _write(tmp_path, "series_id,t,v1\na,0,1.0\na,1,2.0\na,2,3.0\n"
                         "b,0,4.0\nb,1,5.0\nb,2,6.0\n")
    ds = load_csv(p)
    assert ds.data.shape == (2, 3, 1)
    assert np.array_equal(ds.data[1, :, 0], [4.0, 5.0, 6.0])


def test_load_csv_orders_by_time(tmp_path):
    p = _write(tmp_path, "series_id,t,v1\na,2,3.0\na,0,1.0\na,1,2.0\n")
    ds = load_csv(p)
    assert np.array_equal(ds.data[0, :, 0], [1.0, 2.0, 3.0])


def test_load_csv_ragged_lengths_names_series(tmp_path):
    p = _write(tmp_path, "series_id,t,v1\na,0,1\na,1,2\na,2,3\nb,0,4\nb,1,5\nb,2,6\nb,3,7\n")
    with pytest.raises(DataError, match="'b'"):
        load_csv(p)


def test_load_csv_non_numeric_reports_row(tmp_path):
    p = _write(tmp_path, "series_id,t,v1\na,0,1.0\na,1,oops\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite_reports_row(tmp_path, cell):
    p = _write(tmp_path, f"series_id,t,v1\na,0,1.0\na,1,{cell}\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p)


def test_load_csv_duplicate_time_reports_row(tmp_path):
    # every series repeats one t, so the lengths alone still agree
    p = _write(tmp_path, "series_id,t,v1\na,0,1\na,0,2\nb,0,3\nb,1,4\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "series_id,t,v1\n"))


def test_load_csv_bad_header(tmp_path):
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "id,time,v1\na,0,1\n"))


def test_csv_round_trip(tmp_path):
    ds = synth_bimodal(3, 5, 0.1, seed=0)
    path = tmp_path / "out.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.data, ds.data)  # repr() preserves float64 exactly


# --- normalization ----------------------------------------------------------

def test_normalize_simple_channel():
    ds = SeriesDataset(np.array([0.0, 5.0, 10.0]).reshape(1, 3, 1))
    out = normalize_minmax(ds)
    assert np.allclose(out.data[0, :, 0], [0.0, 0.5, 1.0])


def test_normalize_constant_channel_invertible():
    ds = SeriesDataset(np.full((2, 3, 1), 7.0))
    norm = normalize_minmax(ds)
    assert np.array_equal(norm.data, np.zeros((2, 3, 1)))
    back = denormalize(norm)
    assert np.array_equal(back.data, ds.data)


def test_normalize_round_trip_tight():
    rng = np.random.default_rng(1)
    ds = SeriesDataset(rng.normal(scale=3.0, size=(4, 6, 2)))
    back = denormalize(normalize_minmax(ds))
    assert np.max(np.abs(back.data - ds.data)) <= 1e-12


def test_normalized_values_in_unit_interval():
    rng = np.random.default_rng(2)
    out = normalize_minmax(SeriesDataset(rng.normal(size=(3, 5, 2))))
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_denormalize_requires_record():
    with pytest.raises(ConfigError):
        denormalize(SeriesDataset(np.zeros((1, 2, 1))))


def test_double_normalize_rejected():
    ds = normalize_minmax(SeriesDataset(np.random.default_rng(0).normal(size=(2, 3, 1))))
    with pytest.raises(ConfigError):
        normalize_minmax(ds)


# --- synthetic generators ------------------------------------------------------

def test_bimodal_sine_peak():
    T = 8
    ds = synth_bimodal(6, T, noise_std=0.0, seed=3)
    peaks = ds.data[:, T // 4 - 1, 0]  # t = T/4 (1-based) -> sin(pi/2) = +/-1
    assert np.all(np.isin(np.round(peaks, 12), [1.0, -1.0]))
    assert np.any(peaks > 0)  # at least one +1-mode series at this seed


def test_bimodal_deterministic_per_seed():
    a = synth_bimodal(5, 10, 0.2, seed=4)
    b = synth_bimodal(5, 10, 0.2, seed=4)
    assert np.array_equal(a.data, b.data)


def test_bimodal_mode_fraction():
    ds = synth_bimodal(1000, 4, noise_std=0.0, seed=5)
    plus = np.mean(ds.data[:, 0, 0] > 0)
    assert 0.45 <= plus <= 0.55


def test_ar1_deterministic_recursion():
    ds = synth_ar1(1, 3, phi_coeff=0.5, noise_std=0.0, seed=0, x0=1.0)
    assert np.allclose(ds.data[0, :, 0], [1.0, 0.5, 0.25], atol=1e-15)


def test_ar1_white_noise_autocorrelation():
    ds = synth_ar1(100, 1000, phi_coeff=0.0, noise_std=1.0, seed=6)
    x = ds.data[:, :, 0]
    a, b = x[:, :-1].ravel(), x[:, 1:].ravel()
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_ar1_stationary_variance():
    phi, std = 0.8, 0.5
    ds = synth_ar1(100, 1000, phi_coeff=phi, noise_std=std, seed=7)
    target = std**2 / (1 - phi**2)
    assert abs(ds.data.var() - target) <= 0.1 * target


def test_ar1_rejects_nonstationary():
    with pytest.raises(ConfigError):
        synth_ar1(2, 5, phi_coeff=1.0, noise_std=0.1, seed=0)


# --- splits ----------------------------------------------------------------

def test_split_floor_allocation():
    ds = synth_bimodal(10, 4, 0.1, seed=8)
    tr, va, te = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
    assert (tr.n_series, va.n_series, te.n_series) == (8, 1, 1)


def test_split_rejects_zero_fraction():
    ds = synth_bimodal(10, 4, 0.1, seed=8)
    with pytest.raises(ConfigError):
        split_dataset(ds, (1.0, 0.0, 0.0), seed=0)
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.5, 0.3, 0.3), seed=0)


def test_split_partition_disjoint_and_exhaustive():
    # tag each series with a unique value so membership is checkable
    data = np.arange(13)[:, None, None] * np.ones((13, 2, 1))
    ds = SeriesDataset(data)
    for seed in range(3):
        parts = split_dataset(ds, (0.55, 0.3, 0.15), seed=seed)
        ids = np.concatenate([p.data[:, 0, 0] for p in parts])
        assert sorted(ids.tolist()) == list(range(13))


def test_split_deterministic():
    ds = synth_bimodal(9, 4, 0.1, seed=9)
    a = split_dataset(ds, (0.5, 0.25, 0.25), seed=1)
    b = split_dataset(ds, (0.5, 0.25, 0.25), seed=1)
    for u, v in zip(a, b):
        assert np.array_equal(u.data, v.data)
