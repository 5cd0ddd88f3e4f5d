"""Composite training objective, Adam, cosine annealing, and the train loop.

The objective is the alternation-reconstruction loss plus a weighted
noise-matching loss,

    L = (1/B) sum_b sum_t [ ||z_t - mu_z||^2 + w ||x_t - mu_x||^2 ]
        + lambda * (1/B) sum_b sum_t [ ||eps_z - pred_z||^2
                                       + gamma_t ||eps_x - pred_x||^2 ]

with w = (d_z sigma_z^2)/(d_x sigma_x^2) and
gamma_t = (d_z sigma_z^2 alpha_t)/(d_x sigma_x^2 beta_t), or 0 where beta_t = 0.
:func:`rollout` stacks each step field into one (B, T, .) tensor; each of the
four terms is then one square-sum, with gamma_t as a per-step weight vector.
Under teacher forcing only lat_noise_net([z_{t-1}; x_t]) depends on the
recursion, so it is the one network run per step: lat_net runs once over
the B*T data rows before the recursion, and obs_net and obs_noise_net once
over the stacked z_0..z_{T-1} after it. The whole recursion, forward and
backward, is the one tape node :func:`alternator.autodiff.latent_recursion`,
which loops over the steps in plain numpy.

One step's graph is alive at a time: :func:`alternator.autodiff.backward`
frees each node's saved buffers as it sweeps, and :func:`train` drops the
tape, loss and gradients before the Adam update, so the next step's
forward never runs while the last step's graph is held.

Latents are rolled out per batch (z_0 standard normal, z_t sampled from the
model), and the training data feed the rollout (teacher forcing). The
noise-matching targets are the noise that produced the rollout: the
injected latent noise, and the residual (x - mu_x)/sigma_x implied by the
observation.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .core import VANILLA_DYNAMICS, AlternatorModel, mean_x_components
from .data import SeriesDataset
from .errors import ConfigError, NumericError, ShapeError
from .networks import mlp_layers


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    epochs: int = 1000
    batch_size: int = 100
    noise_weight: float = 0.1      # lambda on the noise-matching loss
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.noise_weight < 0:
            raise ConfigError("noise_weight must be >= 0")
        if self.lr_min > self.lr_max:
            raise ConfigError("lr_min must not exceed lr_max")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("Adam betas must lie in [0, 1)")


@dataclass
class LossBreakdown:
    """Per-batch loss terms; total = alt_z + alt_x + lambda*(nm_z + nm_x)."""

    total: float
    alt_z: float
    alt_x: float
    nm_z: float
    nm_x: float


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: LossBreakdown


def gamma_weight(d_x: int, d_z: int, sigma_x: float, sigma_z: float, alpha_t, beta_t):
    """Balance factor between the two noise-matching terms; alpha_t, beta_t may be arrays."""
    if d_x < 1 or d_z < 1:
        raise ConfigError("dimensions must be >= 1")
    if sigma_x <= 0.0:
        raise ConfigError("sigma_x must be positive")
    if np.any(np.asarray(beta_t) == 0.0):
        raise NumericError("gamma weight undefined at beta_t = 0")
    return (d_z * sigma_z**2 * alpha_t) / (d_x * sigma_x**2 * beta_t)


@dataclass
class RolloutNoise:
    """All randomness one rollout consumes, drawn up front."""

    z0: np.ndarray                       # (B, d_z)
    eps_z: np.ndarray                    # (B, T, d_z)


def draw_rollout_noise(rng: np.random.Generator, batch: int, T: int, d_z: int) -> RolloutNoise:
    """z_0, then the latent noise of every step."""
    return RolloutNoise(z0=rng.standard_normal((batch, d_z)),
                        eps_z=rng.standard_normal((batch, T, d_z)))


@dataclass
class Rollout:
    """One training rollout: the noise it drew and its steps stacked into (B, T, .) tensors."""

    noise: RolloutNoise
    x: Tensor
    z: Tensor
    mu_x: Tensor
    mu_z: Tensor
    pred_x: "Tensor | None" = None       # noise predictions, None unless requested
    pred_z: "Tensor | None" = None


def rollout(
    model: AlternatorModel,
    batch: np.ndarray,
    noise: RolloutNoise,
    want_noise_preds: bool = True,
) -> Rollout:
    """Run the teacher-forced alternation over a (B, T, d_x) batch, each field stacked over time.

    Each data observation feeds the latent update; mu_x is still computed
    for the loss. Only lat_noise_net then depends on the recursion, and
    obs_net and obs_noise_net run once over the stacked z_0..z_{T-1} after
    it. lat_noise_net runs inside :func:`alternator.autodiff.latent_recursion`,
    one tape node for all T steps, after lat_net has run once over the B*T
    data rows. Raises ConfigError, before any network runs, if T exceeds
    the schedule.
    """
    B, T, d_x = batch.shape
    if d_x != model.d_x:
        raise ShapeError(f"batch channel dim {d_x} != model d_x {model.d_x}")
    net, s = model.lat_noise_net, model.schedule
    if T > s.T:
        raise ConfigError(f"steps 1..{T} exceed schedule length {s.T}")
    lat_out = ad.reshape(model.lat_net(batch.reshape(B * T, d_x)), (B, T, model.d_z))
    out = ad.latent_recursion(
        lat_out, mlp_layers(net.spec, net.params), net.spec.activation, noise.z0, batch,
        s.sigma_z * noise.eps_z, s.coef_z(np.arange(1, T + 1)),
        vanilla=model.dynamics == VANILLA_DYNAMICS, want_pred=want_noise_preds)
    z_prev, z, mu_z, *pred_z = (ad.select(out, k, axis=0) for k in range(out.shape[0]))
    mu_x, pred_x = mean_x_components(model, ad.reshape(z_prev, (B * T, model.d_z)),
                                     np.tile(np.arange(1, T + 1), B),
                                     want_noise_pred=want_noise_preds)
    r = Rollout(noise, Tensor(batch), z, ad.reshape(mu_x, (B, T, d_x)), mu_z)
    if want_noise_preds:
        r.pred_x = ad.reshape(pred_x, (B, T, d_x))
        (r.pred_z,) = pred_z
    return r


def alternator_loss(model: AlternatorModel, r: Rollout) -> tuple[Tensor, Tensor]:
    """(latent term, weighted observation term), each averaged over the batch."""
    s = model.schedule
    w = (model.d_z * s.sigma_z**2) / (model.d_x * s.sigma_x**2)
    B = r.z.shape[0]
    z_sum = ad.total_sum(ad.square(ad.sub(r.z, r.mu_z)))
    x_sum = ad.total_sum(ad.square(ad.sub(r.x, r.mu_x)))
    return ad.scale(z_sum, 1.0 / B), ad.scale(x_sum, w / B)


def noise_matching_loss(model: AlternatorModel, r: Rollout) -> tuple[Tensor, Tensor]:
    """(latent, gamma-weighted observation) noise-matching terms.

    The targets are the injected latent noise and the residual
    (x - mu_x)/sigma_x. Steps with beta_t = 0 contribute no observation
    term (gamma treated as zero rather than dividing by zero).
    """
    if r.pred_z is None:
        raise ConfigError("rollout was built without noise predictions")
    s = model.schedule
    B, T, _ = r.z.shape
    target_z = Tensor(r.noise.eps_z)
    target_x = ad.scale(ad.sub(r.x, r.mu_x), 1.0 / s.sigma_x)
    on = np.flatnonzero(s.beta[:T])
    gamma = np.zeros(T)
    gamma[on] = gamma_weight(model.d_x, model.d_z, s.sigma_x, s.sigma_z, s.alpha[on], s.beta[on])
    z_sum = ad.total_sum(ad.square(ad.sub(target_z, r.pred_z)))
    x_sum = ad.total_sum(ad.scale(ad.square(ad.sub(target_x, r.pred_x)), gamma[:, None]))
    return ad.scale(z_sum, 1.0 / B), ad.scale(x_sum, 1.0 / B)


def total_loss(
    model: AlternatorModel,
    batch: np.ndarray,
    config: TrainConfig,
    noise: RolloutNoise,
) -> tuple[Tensor, LossBreakdown]:
    """Composite objective on one batch; returns the graph node and floats."""
    lam = config.noise_weight
    try:
        r = rollout(model, batch, noise, want_noise_preds=lam > 0.0)
    except NumericError as exc:
        raise NumericError(f"rollout: {exc}") from exc
    try:
        alt_z, alt_x = alternator_loss(model, r)
    except NumericError as exc:
        raise NumericError(f"alternator term: {exc}") from exc
    loss = ad.add(alt_z, alt_x)
    if lam > 0.0:
        try:
            nm_z, nm_x = noise_matching_loss(model, r)
        except NumericError as exc:
            raise NumericError(f"noise-matching term: {exc}") from exc
        loss = ad.add(loss, ad.scale(ad.add(nm_z, nm_x), lam))
        nm_z_val, nm_x_val = nm_z.item(), nm_x.item()
    else:
        nm_z_val = nm_x_val = 0.0
    breakdown = LossBreakdown(
        total=loss.item(), alt_z=alt_z.item(), alt_x=alt_x.item(),
        nm_z=nm_z_val, nm_x=nm_x_val,
    )
    return loss, breakdown


class AdamState:
    """First/second moment accumulators plus the step counter."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """Standard bias-corrected Adam update of ``params``' arrays and ``state``, in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} ({name})")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def cosine_lr(epoch: int, total_epochs: int, lr_max: float, lr_min: float) -> float:
    """Cosine annealing from lr_max (epoch 0) down to lr_min (epoch = total)."""
    if total_epochs <= 0:
        raise ConfigError("total_epochs must be positive")
    if not 0 <= epoch <= total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * epoch / total_epochs))


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)))


def train(
    model: AlternatorModel,
    dataset: SeriesDataset,
    config: TrainConfig,
    log_fn: "Callable[[EpochStats], None] | None" = None,
) -> tuple[AlternatorModel, list[EpochStats]]:
    """Optimize all four networks; returns the model and per-epoch history.

    Sequences are reshuffled every epoch with an epoch-indexed seeded RNG
    (the final short batch is kept), one latent rollout is drawn per
    sequence per epoch, and updates use Adam with cosine-annealed learning
    rate. Deterministic: same config and seed give an identical history.
    """
    data = dataset.data
    if data.shape[0] == 0:
        raise ConfigError("training dataset is empty")
    N, T, _ = data.shape
    params = model.named_parameters()
    state = AdamState(config.adam_beta1, config.adam_beta2, config.adam_eps)
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        rng = _epoch_rng(config.seed, epoch)
        lr = cosine_lr(epoch - 1, config.epochs, config.lr_max, config.lr_min)
        perm = rng.permutation(N)
        sums = np.zeros(len(fields(LossBreakdown)))
        for start in range(0, N, config.batch_size):
            idx = perm[start:start + config.batch_size]
            batch = data[idx]
            noise = draw_rollout_noise(rng, len(idx), T, model.d_z)
            try:
                with Tape() as tape:
                    loss, breakdown = total_loss(model, batch, config, noise)
                named_grads = dict(zip(params, backward(tape, loss, list(params.values()))))
            except NumericError as exc:
                raise NumericError(f"training aborted at epoch {epoch}: {exc}") from exc
            del tape, loss                # the step's graph dies before the next one is built
            adam_step(params, named_grads, state, lr)
            sums += len(idx) * np.array(astuple(breakdown))
        avg = sums / N
        stats = EpochStats(epoch=epoch, lr=float(lr),
                           loss=LossBreakdown(*[float(v) for v in avg]))
        history.append(stats)
        if log_fn is not None:
            log_fn(stats)
    return model, history
