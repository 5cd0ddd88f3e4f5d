"""Dataset ingestion, normalization, synthetic generators, splits, and atomic file writes."""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

CSV_ID_COLUMN = "series_id"
CSV_TIME_COLUMN = "t"


@dataclass
class SeriesDataset:
    """A batch of equal-length sequences with optional mask and norm record.

    ``data`` has shape (N, T, d_x). ``mask`` (when present) is a boolean
    observed-indicator of shape (N, T) or (N, T, d_x). ``norm`` stores the
    per-channel (min, max) used by :func:`normalize_minmax`.
    """

    data: np.ndarray
    mask: "np.ndarray | None" = None
    norm: "tuple[np.ndarray, np.ndarray] | None" = None
    name: str = "dataset"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DataError(f"dataset must be (N, T, d_x), got shape {self.data.shape}")
        if self.mask is not None and self.mask.shape[:2] != self.data.shape[:2]:
            raise DataError("mask shape does not match data")

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
    Non-finite cells and repeated (series_id, t) pairs are rejected.
    """
    groups: dict[str, dict[float, list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset file") from None
        if len(header) < 3 or header[0] != CSV_ID_COLUMN or header[1] != CSV_TIME_COLUMN:
            raise DataError(
                f"{path}: expected header starting 'series_id,t,' with at least one channel"
            )
        n_channels = len(header) - 2
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}")
            sid = row[0]
            try:
                t = float(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DataError(f"{path}: row {row_no}: non-numeric cell ({exc})") from None
            if not all(math.isfinite(v) for v in (t, *values)):
                raise DataError(f"{path}: row {row_no}: non-finite cell")
            rows = groups.setdefault(sid, {})
            if t in rows:
                raise DataError(f"{path}: row {row_no}: repeats t={row[1]} of series {sid!r}")
            rows[t] = values
    if not groups:
        raise DataError(f"{path}: no data rows")
    lengths = {sid: len(rows) for sid, rows in groups.items()}
    T = next(iter(lengths.values()))
    for sid, n in lengths.items():
        if n != T:
            raise DataError(f"{path}: series {sid!r} has length {n}, expected {T}")
    data = np.empty((len(groups), T, n_channels))
    for i, rows in enumerate(groups.values()):
        data[i] = [rows[t] for t in sorted(rows)]
    return SeriesDataset(data=data, name=str(path))


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
    """Write a dataset in the long CSV format read by :func:`load_csv`, atomically."""
    if series_ids is None:
        series_ids = [f"s{i}" for i in range(ds.n_series)]
    header = [CSV_ID_COLUMN, CSV_TIME_COLUMN] + [f"v{j + 1}" for j in range(ds.n_channels)]
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, sid in enumerate(series_ids):
            for t in range(ds.n_steps):
                writer.writerow([sid, t] + [repr(float(v)) for v in ds.data[i, t]])


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
    return SeriesDataset(data=data[:, :, None], name="bimodal")


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
    return SeriesDataset(data=data[:, :, None], name="ar1")


def split_dataset(
    ds: SeriesDataset, fractions: tuple[float, float, float], seed: int
) -> tuple[SeriesDataset, SeriesDataset, SeriesDataset]:
    """Disjoint shuffled (train, val, test) partition covering all series.

    Val/test sizes are floored; the remainder goes to train. All fractions
    must be strictly positive and sum to 1.
    """
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigError("fractions must be three positive values")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fractions)}")
    N = ds.n_series
    n_val = int(np.floor(N * fractions[1]))
    n_test = int(np.floor(N * fractions[2]))
    n_train = N - n_val - n_test
    perm = np.random.default_rng(seed).permutation(N)
    parts = (perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:])
    out = []
    for label, idx in zip(("train", "val", "test"), parts):
        mask = ds.mask[idx] if ds.mask is not None else None
        out.append(replace(ds, data=ds.data[idx], mask=mask, name=f"{ds.name}/{label}"))
    return tuple(out)
