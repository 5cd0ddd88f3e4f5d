"""Downstream tasks: missing-at-random masking, imputation, forecasting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AlternatorModel, alternate, encode_states, stack_steps
from .errors import ConfigError, ShapeError

MISSING_SENTINEL = np.nan


@dataclass
class MARMask:
    """Missing-at-random mask: True marks an observed timestep."""

    observed: np.ndarray     # bool, (T,) or (T, d_x) when per-channel
    rate: float
    seed: int

    @property
    def missing_fraction(self) -> float:
        return float(1.0 - self.observed.mean())


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
    return masked, MARMask(observed=observed, rate=rate, seed=seed)


def _observed_grid(mask: MARMask, T: int, d_x: int) -> np.ndarray:
    obs = mask.observed
    if obs.shape == (T,):
        return np.broadcast_to(obs[:, None], (T, d_x))
    if obs.shape == (T, d_x):
        return obs
    raise ShapeError(f"mask shape {obs.shape} inconsistent with series ({T}, {d_x})")


def impute(
    model: AlternatorModel,
    masked_xs: np.ndarray,
    mask: MARMask,
    seed: int,
    n_samples: int = 1,
    mean_propagation: bool = False,
) -> np.ndarray:
    """Fill missing entries by running the alternation with conditional means.

    At observed steps the datum drives the latent update; at missing steps
    the model's own observation mean substitutes as input and is emitted.
    Observed entries pass through unchanged. ``n_samples`` > 1 averages the
    emitted means over that many independent rollouts.
    """
    masked_xs = np.asarray(masked_xs, dtype=np.float64)
    if masked_xs.ndim != 2 or masked_xs.shape[1] != model.d_x:
        raise ShapeError(f"expected (T, {model.d_x}) series, got {masked_xs.shape}")
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    T = masked_xs.shape[0]
    if T > model.schedule.T:
        raise ConfigError(f"series length {T} exceeds schedule length {model.schedule.T}")
    obs = _observed_grid(mask, T, model.d_x)
    data = np.where(obs, masked_xs, 0.0)  # sentinel never enters the recursion
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            for k in range(n_samples)]
    z0 = np.stack([rng.standard_normal(model.d_z) for rng in rngs])
    eps_z = None if mean_propagation else np.stack(
        [rng.standard_normal((T, model.d_z)) for rng in rngs])
    batch = (n_samples, T, model.d_x)
    steps = alternate(model, z0, T, data=np.broadcast_to(data, batch),
                      observed=np.broadcast_to(obs, batch), eps_z=eps_z)
    (xs,) = stack_steps(steps, T, "x")
    completed = xs.sum(axis=0) / n_samples
    completed[obs] = masked_xs[obs]  # exact pass-through, no averaging artifacts
    return completed


def mean_fill(masked_xs: np.ndarray, mask: MARMask) -> np.ndarray:
    """Baseline: replace missing entries by the per-channel observed mean."""
    masked_xs = np.asarray(masked_xs, dtype=np.float64)
    T, d_x = masked_xs.shape
    obs = _observed_grid(mask, T, d_x)
    out = masked_xs.copy()
    for j in range(d_x):
        col_obs = obs[:, j]
        fill = masked_xs[col_obs, j].mean() if col_obs.any() else 0.0
        out[~col_obs, j] = fill
    return out


@dataclass
class EnsembleForecast:
    """Free-running continuations of one encoded context."""

    members: np.ndarray           # (M, H, d_x)
    conditioning_length: int

    @property
    def mean(self) -> np.ndarray:
        return self.members.mean(axis=0)


def forecast_ensemble(
    model: AlternatorModel,
    context_xs: np.ndarray,
    horizon: int,
    members: int = 50,
    seed: int = 0,
    member_seeds: "list[int] | None" = None,
) -> EnsembleForecast:
    """Encode the context deterministically, then roll each member forward.

    The context is consumed with mean-propagation encoding so the ensemble
    spread comes only from the forecast-phase noise; members differ only in
    their noise draws.
    """
    context_xs = np.asarray(context_xs, dtype=np.float64)
    if context_xs.ndim != 2 or context_xs.shape[1] != model.d_x:
        raise ShapeError(f"expected (T_c, {model.d_x}) context, got {context_xs.shape}")
    T_c = context_xs.shape[0]
    if T_c < 1 or horizon < 1:
        raise ConfigError("context length and horizon must be >= 1")
    if T_c + horizon > model.schedule.T:
        raise ConfigError(
            f"context {T_c} + horizon {horizon} exceeds schedule length {model.schedule.T}"
        )
    if member_seeds is None:
        member_seeds = [
            int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(entropy=seed, spawn_key=(1,)).spawn(members)
        ]
    if len(member_seeds) < 1:
        raise ConfigError("ensemble needs at least one member")
    encode_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(0,)).generate_state(1)[0])
    _, z_last = encode_states(model, context_xs, encode_seed, mean_propagation=True)

    # each member draws, per step, its observation noise then its latent noise
    noise = np.stack([
        np.random.default_rng(mseed).standard_normal((horizon, model.d_x + model.d_z))
        for mseed in member_seeds
    ])
    steps = alternate(model, np.tile(z_last, (len(member_seeds), 1)), horizon, t0=T_c,
                      eps_x=noise[..., :model.d_x], eps_z=noise[..., model.d_x:])
    return EnsembleForecast(members=stack_steps(steps, horizon, "x")[0], conditioning_length=T_c)


def climatology_forecast(train_data: np.ndarray, t_start: int, horizon: int) -> np.ndarray:
    """Per-timestep training mean over steps [t_start, t_start + horizon)."""
    train_data = np.asarray(train_data, dtype=np.float64)
    if train_data.ndim != 3:
        raise ShapeError(f"expected (N, T, d_x) training data, got {train_data.shape}")
    if t_start + horizon > train_data.shape[1]:
        raise ConfigError("climatology window exceeds training length")
    return train_data[:, t_start:t_start + horizon].mean(axis=0)
