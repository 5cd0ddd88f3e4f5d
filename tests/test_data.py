"""Dataset ingestion, normalization, synthetic generators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alternator.data import (
    SeriesDataset,
    denormalize,
    load_csv,
    normalize_minmax,
    save_csv,
    synth_ar1,
    synth_bimodal,
)
from alternator.errors import ConfigError, DataError, ShapeError


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


# Each row is what csv.writer writes for [id, t, repr(v1), ...]: CRLF line
# ends, an id quoted only where it must be, and an empty id written bare.
GOLDEN_ONE_CHANNEL = b"series_id,t,v1\r\ns0,0,0.1\r\ns0,1,-2.5\r\ns0,2,1e-300\r\n"
GOLDEN_TWO_CHANNELS = (
    b"series_id,t,v1,v2\r\n"
    b",0,1.0,-0.0\r\n,1,0.5,3.0\r\n"
    b'"a,b",0,0.3333333333333333,2.0\r\n"a,b",1,-1e+16,7.0\r\n'
    b'"q""x",0,5e-324,1.7976931348623157e+308\r\n"q""x",1,0.25,-4.0\r\n'
    b" s,0,123456.789,0.0\r\n s,1,2.0,1e-05\r\n"
)


def test_save_csv_golden_bytes(tmp_path):
    path = tmp_path / "one.csv"
    save_csv(SeriesDataset(np.array([[[0.1], [-2.5], [1e-300]]])), path)
    assert path.read_bytes() == GOLDEN_ONE_CHANNEL
    x = np.array([[[1.0, -0.0], [0.5, 3.0]],
                  [[1.0 / 3.0, 2.0], [-1e16, 7.0]],
                  [[5e-324, 1.7976931348623157e308], [0.25, -4.0]],
                  [[123456.789, 0.0], [2.0, 1e-05]]])
    path = tmp_path / "two.csv"
    save_csv(SeriesDataset(x), path, series_ids=["", "a,b", 'q"x', " s"])
    assert path.read_bytes() == GOLDEN_TWO_CHANNELS
    assert load_csv(path).data.tobytes() == x.tobytes()


_SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3))
_EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=60, deadline=None)
@given(
    x=arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)),
    ids=st.lists(st.text(alphabet='ab, "\n\r'), min_size=4, max_size=4, unique=True),
)
@example(x=_EXTREMES.reshape(1, 4, 1), ids=["s", "", "t", "u"])
@example(x=_EXTREMES.reshape(2, 1, 2), ids=[" ", '"', ",", "\n"])
def test_csv_round_trip_is_bitwise(tmp_path_factory, x, ids):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    save_csv(SeriesDataset(x), path, series_ids=ids[:x.shape[0]])
    assert load_csv(path).data.tobytes() == x.tobytes()


def test_load_csv_shuffled_rows_group_by_first_appearance(tmp_path):
    ds = SeriesDataset(np.random.default_rng(3).normal(size=(6, 7, 2)))
    path = tmp_path / "sorted.csv"
    save_csv(ds, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    order = np.random.default_rng(4).permutation(len(rows))
    shuffled = [rows[k] for k in order]
    first_seen = list(dict.fromkeys(int(row.split(",")[0][1:]) for row in shuffled))
    back = load_csv(_write(tmp_path, "\n".join([header, *shuffled]) + "\n"))
    assert back.data.tobytes() == ds.data[first_seen].tobytes()


@pytest.mark.parametrize("ids", [["a", "b"], ["a", "b", "c", "d"]])
def test_save_csv_rejects_wrong_id_count_before_writing(tmp_path, ids):
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous contents\n")
    with pytest.raises(ShapeError, match=f"{len(ids)} series ids for 3 series"):
        save_csv(SeriesDataset(np.ones((3, 2, 1))), path, series_ids=ids)
    assert path.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


_H = "series_id,t,v1\n"


# One defect per file, and the message each one gives; the row numbers count
# the header and blank lines.
@pytest.mark.parametrize("text, message", [
    (_H + "a,0,1\na,1\n", "row 3 has 2 fields, expected 3"),
    (_H + "a,0,1\na,1,2,3\n", "row 3 has 4 fields, expected 3"),
    (_H + "a,0,1.0\na,1,oops\n",
     "row 3: non-numeric cell (could not convert string to float: 'oops')"),
    (_H + "a,0,1.0\na,x,2\n", "row 3: non-numeric cell (could not convert string to float: 'x')"),
    (_H + "a,0,1\na,1,nan\n", "row 3: non-finite cell"),
    (_H + "a,0,1\na,inf,2\n", "row 3: non-finite cell"),
    (_H + "a,0,1\nb,0,-Infinity\n", "row 3: non-finite cell"),
    (_H + "a,0,1\na,0,2\nb,0,3\nb,1,4\n", "row 3: repeats t=0 of series 'a'"),
    (_H + "a,0,1\na,1,2\nb,0,3\nb,1,4\nb,1.0,5\n", "row 6: repeats t=1.0 of series 'b'"),
    (_H + "a,0,1\na,1.0,2\na,1,5\nb,0,3\nb,1,4\n", "row 4: repeats t=1 of series 'a'"),
    (_H + "a,0,1\na,-0.0,2\n", "row 3: repeats t=-0.0 of series 'a'"),
    (_H + "a,0,1\nb,0,2\na,1,3\nb,1,4\na,0,5\nb,0,6\n", "row 6: repeats t=0 of series 'a'"),
    (_H + "a,0,1\na,1,2\na,2,3\nb,0,4\nb,1,5\nb,2,6\nb,3,7\n",
     "series 'b' has length 4, expected 3"),
    (_H + "a,0,1\na,1,2\nb,0,4\nc,0,5\nc,1,6\n", "series 'b' has length 1, expected 2"),
    (_H + "\na,0,1\n\na,1,oops\n",
     "row 5: non-numeric cell (could not convert string to float: 'oops')"),
    (_H + "\na,0,1\n\n\na,1,nan\n", "row 6: non-finite cell"),
    (_H + "a,0,1\n\na,0,2\n", "row 4: repeats t=0 of series 'a'"),
    (_H + "\n\na,0\n", "row 4 has 2 fields, expected 3"),
    (_H, "no data rows"),
    (_H + "\n\n", "no data rows"),
])
def test_load_csv_error_names_the_defect(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, message", [
    (_H + "a,0,nan\na,1,2\na,2,oops\n", "row 2: non-finite cell"),
    (_H + "a,0,1\na,0,2\na,1\n", "row 3: repeats t=0 of series 'a'"),
    (_H + "a,0,1\na,0,2\na,1,nan\n", "row 3: repeats t=0 of series 'a'"),
    (_H + "a,0,1\nb,0,1\nb,1,x\n", "row 4: non-numeric cell (could not convert string to float: 'x')"),
])
def test_load_csv_reports_the_first_defect_in_file_order(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_csv_memory_is_bounded_at_eval_size(tmp_path):
    # the 500 x 50 evaluation size; holding every row's text would take more
    path = tmp_path / "eval.csv"
    save_csv(SeriesDataset(np.random.default_rng(8).normal(size=(500, 50, 1))), path)
    tracemalloc.start()
    try:
        load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


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

