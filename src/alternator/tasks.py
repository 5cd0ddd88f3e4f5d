"""Downstream tasks: missing-at-random masking, imputation, forecasting.

``impute`` and ``forecast_ensemble`` take one (T, d_x) series with an int
seed, or an (S, T, d_x) stack with one seed per series. A stack runs
through ``core.alternate`` in blocks of whole series, at most
``_ROW_BLOCK`` rollout rows or one series a block, each block drawing its
noise when it runs, so memory does not grow with the stack. Each series
draws from the same seed streams as it would alone. A single series is run
as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AlternatorModel,
    alternate,
    encode_states,
    series_stack,
    spawn_seed,
    stack_steps,
)
from .errors import ConfigError, ShapeError

MISSING_SENTINEL = np.nan

# Rollout rows per ``core.alternate`` call: a block holds as many whole
# series as fit, and at least one.
_ROW_BLOCK = 1024


def _series_blocks(n_series: int, rows_per_series: int) -> list[slice]:
    per = max(1, _ROW_BLOCK // rows_per_series)
    return [slice(b, b + per) for b in range(0, n_series, per)]


@dataclass
class MARMask:
    """Missing-at-random mask: True marks an observed timestep.

    ``observed`` is a boolean (T,), or (T, d_x) when masked per channel; a
    mask over a stack of series has a leading (S,) axis. Any other dtype is
    a ShapeError: an int array would index where it should mask.
    """

    observed: np.ndarray

    def __post_init__(self):
        dtype = np.asarray(self.observed).dtype
        if dtype != np.bool_:
            raise ShapeError(f"mask must be boolean, got dtype {dtype}")

    @staticmethod
    def stack(masks: "Sequence[MARMask]") -> "MARMask":
        """One mask over the stack of the masks' series, in order."""
        return MARMask(np.stack([m.observed for m in masks]))


def apply_mar_mask(
    xs: np.ndarray, rate: float, seed: int, per_channel: bool = False
) -> tuple[np.ndarray, MARMask]:
    """Drop each timestep independently with probability ``rate``.

    Masked entries are replaced by NaN, which is outside any data range and
    trips the numeric checks if it ever leaks into a computation, so masked
    values can only be consumed via the mask. With ``per_channel`` each
    channel is masked independently instead of whole timesteps.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"missing rate must lie in [0, 1], got {rate}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ShapeError(f"expected (T, d_x) series, got {xs.shape}")
    rng = np.random.default_rng(seed)
    shape = xs.shape if per_channel else (xs.shape[0],)
    observed = rng.random(shape) >= rate
    masked = xs.copy()
    if per_channel:
        masked[~observed] = MISSING_SENTINEL
    else:
        masked[~observed, :] = MISSING_SENTINEL
    return masked, MARMask(observed)


def _observed_grid(observed: np.ndarray, shape: tuple) -> np.ndarray:
    """Per-entry flags for series of ``shape`` (..., T, d_x) from a step or entry mask."""
    obs = np.asarray(observed)
    if obs.shape == shape[:-1]:
        return np.broadcast_to(obs[..., None], shape)
    if obs.shape == shape:
        return obs
    raise ShapeError(f"mask shape {obs.shape} inconsistent with series {shape}")


def impute(
    model: AlternatorModel,
    masked_xs: np.ndarray,
    mask: MARMask,
    seed: "int | Sequence[int]",
    n_samples: int = 1,
    mean_propagation: bool = False,
) -> np.ndarray:
    """Fill missing entries by running the alternation with conditional means.

    At observed steps the datum drives the latent update; at missing steps
    the model's own observation mean substitutes as input and is emitted.
    Observed entries pass through unchanged. ``n_samples`` > 1 averages the
    emitted means over that many independent rollouts. A (T, d_x) series
    takes an int seed and returns (T, d_x); an (S, T, d_x) stack takes a
    mask with a leading (S,) axis and S seeds, returns (S, T, d_x), and
    runs the S * n_samples rollouts in blocks of whole series. Rollout k of
    a series draws from the spawn of its seed with key (k,).
    """
    xs, seeds, single = series_stack(masked_xs, seed, model.d_x, "series")
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    S, T, _ = xs.shape
    if T < 1:
        raise ConfigError("sequence length must be >= 1")
    obs = _observed_grid(mask.observed[None] if single else mask.observed, xs.shape)
    data = np.where(obs, xs, 0.0)  # sentinel never enters the recursion
    completed = np.empty_like(xs)
    for b in _series_blocks(S, n_samples):
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(k,)))
                for s in seeds[b] for k in range(n_samples)]
        z0 = np.stack([rng.standard_normal(model.d_z) for rng in rngs])
        eps_z = None if mean_propagation else np.stack(
            [rng.standard_normal((T, model.d_z)) for rng in rngs])
        steps = alternate(model, z0, T, data=np.repeat(data[b], n_samples, axis=0),
                          observed=np.repeat(obs[b], n_samples, axis=0), eps_z=eps_z)
        (filled,) = stack_steps(steps, T, "x")
        completed[b] = filled.reshape(-1, n_samples, T, model.d_x).sum(axis=1) / n_samples
    completed[obs] = xs[obs]  # exact pass-through, no averaging artifacts
    return completed[0] if single else completed


def mean_fill(masked_xs: np.ndarray, mask: MARMask) -> np.ndarray:
    """Baseline: replace missing entries by the per-channel observed mean."""
    masked_xs = np.asarray(masked_xs, dtype=np.float64)
    _, d_x = masked_xs.shape
    obs = _observed_grid(mask.observed, masked_xs.shape)
    out = masked_xs.copy()
    for j in range(d_x):
        col_obs = obs[:, j]
        fill = masked_xs[col_obs, j].mean() if col_obs.any() else 0.0
        out[~col_obs, j] = fill
    return out


@dataclass
class EnsembleForecast:
    """Free-running continuations of one encoded context, or of a stack of them."""

    members: np.ndarray           # (M, H, d_x), or (S, M, H, d_x) for a stack


def forecast_ensemble(
    model: AlternatorModel,
    context_xs: np.ndarray,
    horizon: int,
    members: int = 50,
    seed: "int | Sequence[int]" = 0,
    member_seeds: "Sequence | None" = None,
) -> EnsembleForecast:
    """Encode the context deterministically, then roll each member forward.

    The context is consumed with mean-propagation encoding so the ensemble
    spread comes only from the forecast-phase noise; members differ only in
    their noise draws. A (T_c, d_x) context takes an int seed; an (S, T_c,
    d_x) stack takes S seeds (and, if given, S lists of member seeds of one
    length), and the S * M members roll in blocks of whole series. A
    context encodes with the spawn of its seed with key (0,), and member k
    draws from the spawn with key (1, k) unless ``member_seeds`` names its
    seed.
    """
    ctx, seeds, single = series_stack(context_xs, seed, model.d_x, "context")
    T_c = ctx.shape[1]
    if T_c < 1 or horizon < 1:
        raise ConfigError("context length and horizon must be >= 1")
    if member_seeds is None:
        member_seeds = [[spawn_seed(s, 1, k) for k in range(members)] for s in seeds]
    elif single:
        member_seeds = [member_seeds]
    M = len(member_seeds[0]) if len(member_seeds) == len(seeds) else 0
    if M < 1 or any(len(row) != M for row in member_seeds):
        raise ConfigError("ensemble needs at least one member, and as many for every series")
    _, z_last = encode_states(model, ctx, [spawn_seed(s, 0) for s in seeds],
                              mean_propagation=True)

    xs = np.empty((len(seeds), M, horizon, model.d_x))
    for b in _series_blocks(len(seeds), M):
        # each member draws, per step, its observation noise then its latent noise
        noise = np.stack([
            np.random.default_rng(mseed).standard_normal((horizon, model.d_x + model.d_z))
            for row in member_seeds[b] for mseed in row
        ])
        steps = alternate(model, np.repeat(z_last[b], M, axis=0), horizon, t0=T_c,
                          eps_x=noise[..., :model.d_x], eps_z=noise[..., model.d_x:])
        (block,) = stack_steps(steps, horizon, "x")
        xs[b] = block.reshape(-1, M, horizon, model.d_x)
    return EnsembleForecast(members=xs[0] if single else xs)


def climatology_forecast(train_data: np.ndarray, t_start: int, horizon: int) -> np.ndarray:
    """Per-timestep training mean over steps [t_start, t_start + horizon)."""
    train_data = np.asarray(train_data, dtype=np.float64)
    if train_data.ndim != 3:
        raise ShapeError(f"expected (N, T, d_x) training data, got {train_data.shape}")
    if t_start + horizon > train_data.shape[1]:
        raise ConfigError("climatology window exceeds training length")
    return train_data[:, t_start:t_start + horizon].mean(axis=0)
