"""Dataset ingestion, normalization, synthetic generators and atomic file writes.

The long CSV format (``series_id,t,v1..vD``) is read in one streaming pass
that keeps only each row's series index and float cells; the checks, the
(series, t) sort and the reshape are numpy. It is written one series at a
time, in the bytes ``csv.writer`` would give row by row.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError

CSV_ID_COLUMN = "series_id"
CSV_TIME_COLUMN = "t"


@dataclass
class SeriesDataset:
    """A batch of equal-length sequences with an optional norm record.

    ``data`` has shape (N, T, d_x). ``norm`` stores the per-channel
    (min, max) used by :func:`normalize_minmax`.
    """

    data: np.ndarray
    norm: "tuple[np.ndarray, np.ndarray] | None" = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DataError(f"dataset must be (N, T, d_x), got shape {self.data.shape}")

    @property
    def n_series(self) -> int:
        return self.data.shape[0]

    @property
    def n_steps(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]


def load_csv(path) -> SeriesDataset:
    """Read long-format CSV with header ``series_id,t,v1..vD``.

    Rows are grouped by series id (first-appearance order) and sorted by t
    within each series; all series must share one length and channel count.
    Non-finite cells and repeated (series_id, t) pairs are rejected. An
    error names the first row, in file order, that has one of the row
    defects (width, non-numeric, non-finite, repeated t).

    One streaming ``csv.reader`` pass keeps only each row's series index
    and its float cells; the checks, the sort and the reshape are numpy.
    """
    index: dict[str, int] = {}   # series id -> first-appearance index
    groups: list[int] = []       # one series index per data row
    cells: list[float] = []      # t, v1..vD of each data row, row after row
    blanks: list[int] = []       # data rows read before each blank line
    error = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset file") from None
        if len(header) < 3 or header[0] != CSV_ID_COLUMN or header[1] != CSV_TIME_COLUMN:
            raise DataError(
                f"{path}: expected header starting 'series_id,t,' with at least one channel"
            )
        width = len(header)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                blanks.append(len(groups))
                continue
            if len(row) != width:
                error = f"row {row_no} has {len(row)} fields, expected {width}"
                break
            try:
                cells.extend(map(float, row[1:]))
            except ValueError as exc:
                del cells[len(groups) * (width - 1):]
                error = f"row {row_no}: non-numeric cell ({exc})"
                break
            groups.append(index.setdefault(row[0], len(index)))
    table = np.array(cells, dtype=np.float64).reshape(len(groups), width - 1)
    del cells   # freed before the sorted copy below
    group = np.array(groups, dtype=np.intp)
    order = np.lexsort((table[:, 0], group))
    # The rows before a stream error were read whole; a defect among them
    # comes first in the file, so it is reported first.
    _check_rows(path, table, group, order, blanks, index)
    if error is not None:
        raise DataError(f"{path}: {error}")
    if not groups:
        raise DataError(f"{path}: no data rows")
    lengths = np.bincount(group)
    T = int(lengths[0])
    ragged = np.flatnonzero(lengths != T)
    if ragged.size:
        sid = list(index)[ragged[0]]
        raise DataError(f"{path}: series {sid!r} has length {lengths[ragged[0]]}, expected {T}")
    data = table[order, 1:].reshape(len(index), T, width - 2)
    return SeriesDataset(data=data)


def _csv_rows(path, fh):
    """``csv.reader`` rows of ``fh``; undecodable text and csv errors raise DataError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _check_rows(path, table, group, order, blanks, index) -> None:
    """Raise on the first non-finite row or repeated (series, t) row, in file order.

    ``order`` sorts the rows by (series, t) stably, so within a run of equal
    keys every row after the first repeats an earlier one. A non-finite row
    is reported before a repeat found at the same or a later row, as a
    row-by-row reader would.
    """
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    first_bad = int(bad[0]) if bad.size else len(table)
    sorted_group, sorted_t = group[order], table[order, 0]
    repeats = order[1:][(sorted_group[1:] == sorted_group[:-1]) & (sorted_t[1:] == sorted_t[:-1])]
    first_repeat = int(repeats.min()) if repeats.size else len(table)
    k = min(first_bad, first_repeat)
    if k == len(table):
        return
    # data row k sits after k + 1 earlier records (the header and data rows)
    # and after the blank lines read before it
    row_no = k + 2 + int(np.searchsorted(blanks, k, side="right"))
    if first_bad <= first_repeat:
        raise DataError(f"{path}: row {row_no}: non-finite cell")
    with open(path, newline="", encoding="utf-8") as fh:
        raw_t = next(itertools.islice(csv.reader(fh), row_no - 1, None))[1]
    raise DataError(f"{path}: row {row_no}: repeats t={raw_t} of series {list(index)[group[k]]!r}")


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Write through a temp file in ``path``'s directory that replaces ``path`` on success.

    If the block raises, the temp file is removed and an existing ``path``
    is left as it was, so readers see the old file or the whole new one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_csv(ds: SeriesDataset, path, series_ids: "list[str] | None" = None) -> None:
    """Write a dataset in the long CSV format read by :func:`load_csv`, atomically.

    The bytes are those of ``csv.writer`` writing ``[id, t, repr(v1), ...]``
    row by row: CRLF line ends, and an id quoted as a field inside a row.
    Each series is formatted in one pass and written with one call.
    """
    if series_ids is None:
        series_ids = [f"s{i}" for i in range(ds.n_series)]
    if len(series_ids) != ds.n_series:
        raise ShapeError(f"{len(series_ids)} series ids for {ds.n_series} series")
    header = [CSV_ID_COLUMN, CSV_TIME_COLUMN] + [f"v{j + 1}" for j in range(ds.n_channels)]
    steps = [str(t) for t in range(ds.n_steps)]
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for sid, series in zip(series_ids, ds.data):
            columns = (map(repr, channel) for channel in series.T.tolist())
            rows = zip(itertools.repeat(_csv_field(sid)), steps, *columns)
            fh.write("".join([line + "\r\n" for line in map(",".join, rows)]))


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it inside a row.

    An empty value is written bare there, though alone on its row
    ``csv.writer`` writes it as ``""``.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-3]   # drop the "," and the CRLF after it


def normalize_minmax(ds: SeriesDataset) -> SeriesDataset:
    """Min-max scale each channel over all series/timesteps into [0, 1].

    Constant channels map to zero; the stored (min, max) record makes that
    invertible. NaN entries (mask sentinels) are ignored when computing the
    range and stay NaN.
    """
    return apply_norm(ds, (np.nanmin(ds.data, axis=(0, 1)), np.nanmax(ds.data, axis=(0, 1))))


def apply_norm(ds: SeriesDataset, norm: tuple[np.ndarray, np.ndarray]) -> SeriesDataset:
    """Scale with an existing (min, max) record, e.g. from a training run."""
    if ds.norm is not None:
        raise ConfigError("dataset is already normalized")
    lo, hi = (np.asarray(v, dtype=np.float64) for v in norm)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = np.where(span > 0, (ds.data - lo) / safe, 0.0)
    return replace(ds, data=scaled, norm=(lo, hi))


def denormalize(ds: SeriesDataset) -> SeriesDataset:
    """Invert :func:`normalize_minmax` using the stored record."""
    if ds.norm is None:
        raise ConfigError("dataset has no normalization record")
    lo, hi = ds.norm
    return replace(ds, data=ds.data * (hi - lo) + lo, norm=None)


def synth_bimodal(N: int, T: int, noise_std: float, seed: int) -> SeriesDataset:
    """Sine mixture: each series picks a sign and emits +/- sin(2*pi*t/T).

    The marginal at any fixed interior t is bimodal, which makes this the
    desk-scale density-estimation testbed.
    """
    if N < 1 or T < 1:
        raise ConfigError("N and T must be >= 1")
    rng = np.random.default_rng(seed)
    modes = np.where(rng.random(N) < 0.5, 1.0, -1.0)
    t = np.arange(1, T + 1)
    base = np.sin(2.0 * np.pi * t / T)
    data = modes[:, None] * base[None, :] + noise_std * rng.standard_normal((N, T))
    return SeriesDataset(data=data[:, :, None])


def synth_ar1(
    N: int, T: int, phi_coeff: float, noise_std: float, seed: int,
    x0: "float | None" = None,
) -> SeriesDataset:
    """AR(1) series x_t = phi * x_{t-1} + noise_std * eps_t.

    The first element is drawn from the stationary distribution unless
    ``x0`` pins it explicitly.
    """
    if N < 1 or T < 1:
        raise ConfigError("N and T must be >= 1")
    if abs(phi_coeff) >= 1.0:
        raise ConfigError(f"AR(1) requires |phi| < 1, got {phi_coeff}")
    rng = np.random.default_rng(seed)
    data = np.empty((N, T))
    if x0 is None:
        stat_std = noise_std / np.sqrt(1.0 - phi_coeff**2)
        data[:, 0] = stat_std * rng.standard_normal(N)
    else:
        data[:, 0] = x0
    steps = rng.standard_normal((N, T - 1)) if T > 1 else None
    for t in range(1, T):
        data[:, t] = phi_coeff * data[:, t - 1] + noise_std * steps[:, t - 1]
    return SeriesDataset(data=data[:, :, None])
