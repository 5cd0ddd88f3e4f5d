"""Objective terms, optimizer, schedule, and training-loop contracts."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_model, zero_network

from alternator import autodiff as ad
from alternator.autodiff import Tape, Tensor, backward, finite_difference_check
from alternator.core import (
    NoiseSchedule,
    alternate,
    default_schedule,
    mean_x_components,
    vanilla_schedule,
)
from alternator.data import synth_bimodal
from alternator.errors import ConfigError, NumericError, ShapeError
from alternator import networks
from alternator.training import (
    AdamState,
    Rollout,
    RolloutNoise,
    TrainConfig,
    adam_step,
    alternator_loss,
    cosine_lr,
    draw_rollout_noise,
    gamma_weight,
    noise_matching_loss,
    rollout,
    total_loss,
    train,
)


# --- gamma weight --------------------------------------------------------

def test_gamma_full_symmetry_is_one():
    assert gamma_weight(3, 3, 0.2, 0.2, 0.4, 0.4) == pytest.approx(1.0)


def test_gamma_zero_alpha():
    assert gamma_weight(3, 2, 0.2, 0.1, 0.0, 0.5) == 0.0


def test_gamma_direct_evaluation():
    assert gamma_weight(4, 2, 0.2, 0.1, 0.5, 0.5) == pytest.approx(0.125, abs=1e-12)


def test_gamma_guards():
    with pytest.raises(NumericError):
        gamma_weight(4, 2, 0.2, 0.1, 0.5, 0.0)
    with pytest.raises(ConfigError):
        gamma_weight(4, 2, 0.0, 0.1, 0.5, 0.5)


# --- loss terms on hand-built rollouts ------------------------------------

def _hand_rollout(model, zs, mu_zs, xs, mu_xs, eps_z=None, pred_x=None, pred_z=None):
    """A Rollout from per-step (B, d) values, stacked into (B, T, d) tensors."""
    B, d_z = np.asarray(zs[0]).shape
    T = len(zs)
    noise = RolloutNoise(
        z0=np.zeros((B, d_z)),
        eps_z=np.asarray(eps_z) if eps_z is not None else np.zeros((B, T, d_z)),
    )

    def stacked(steps):
        return None if steps is None else Tensor(np.stack(steps, axis=1).astype(np.float64))

    return Rollout(noise, stacked(xs), stacked(zs), stacked(mu_xs), stacked(mu_zs),
                   stacked(pred_x), stacked(pred_z))


def test_alternator_loss_zero_residuals():
    model = make_model(d_x=2, d_z=2, T=1)
    r = _hand_rollout(model, zs=[[[0.3, 0.4]]], mu_zs=[[[0.3, 0.4]]],
                      xs=[[[1.0, 2.0]]], mu_xs=[[[1.0, 2.0]]])
    alt_z, alt_x = alternator_loss(model, r)
    assert alt_z.item() == 0.0 and alt_x.item() == 0.0


def test_alternator_loss_unit_residuals_hand_value():
    # B=1, T=1, d_x=d_z=1, sigma_x=sigma_z -> weight 1; two unit squares -> 2
    model = make_model(d_x=1, d_z=1, T=1, sigma_x=0.2, sigma_z=0.2)
    r = _hand_rollout(model, zs=[[[1.0]]], mu_zs=[[[0.0]]],
                      xs=[[[2.0]]], mu_xs=[[[1.0]]])
    alt_z, alt_x = alternator_loss(model, r)
    assert alt_z.item() + alt_x.item() == pytest.approx(2.0, abs=1e-12)


def test_alternator_loss_weight_scales_with_sigma_z_squared():
    r_args = dict(zs=[[[0.0]]], mu_zs=[[[0.0]]], xs=[[[1.0]]], mu_xs=[[[0.0]]])
    m1 = make_model(d_x=1, d_z=1, T=1, sigma_x=0.2, sigma_z=0.1)
    m2 = make_model(d_x=1, d_z=1, T=1, sigma_x=0.2, sigma_z=0.2)
    _, x1 = alternator_loss(m1, _hand_rollout(m1, **r_args))
    _, x2 = alternator_loss(m2, _hand_rollout(m2, **r_args))
    assert x2.item() == pytest.approx(4.0 * x1.item(), rel=1e-12)


def test_noise_matching_zero_when_predictions_match_targets():
    model = make_model(d_x=1, d_z=1, T=1)
    r = _hand_rollout(
        model,
        zs=[[[0.0]]], mu_zs=[[[0.0]]], xs=[[[0.5]]], mu_xs=[[[0.5]]],
        eps_z=[[[0.7]]], pred_z=[[[0.7]]], pred_x=[[[0.0]]],
    )
    nm_z, nm_x = noise_matching_loss(model, r)
    assert nm_z.item() == 0.0 and nm_x.item() == 0.0


def test_noise_matching_latent_sum_of_squares():
    # d_z=2, per-coordinate error 1, gamma_t = 0 (alpha_t = 0) -> 2
    sched = NoiseSchedule(beta=np.array([0.5]), alpha=np.array([0.0]),
                          sigma_x=0.3, sigma_z=0.15)
    model = make_model(d_x=1, d_z=2, T=1, schedule=sched)
    r = _hand_rollout(
        model,
        zs=[[[0.0, 0.0]]], mu_zs=[[[0.0, 0.0]]], xs=[[[0.0]]], mu_xs=[[[9.0]]],
        eps_z=[[[1.0, 1.0]]], pred_z=[[[0.0, 0.0]]], pred_x=[[[0.0]]],
    )
    nm_z, nm_x = noise_matching_loss(model, r)
    assert nm_z.item() == pytest.approx(2.0, abs=1e-12)
    assert nm_x.item() == 0.0


def test_trajectory_target_zero_when_data_equals_mean():
    model = make_model(d_x=1, d_z=2, T=2, seed=3)
    for net in model.networks().values():
        zero_network(net)
    data = np.zeros((2, 2, 1))
    noise = draw_rollout_noise(np.random.default_rng(0), 2, 2, 2)
    r = rollout(model, data, noise)
    nm_z, nm_x = noise_matching_loss(model, r)
    # data == mu_x == 0 and pred_x == 0, so the observation term vanishes
    assert nm_x.item() == 0.0


# --- total loss ------------------------------------------------------------

def _toy_batch(B=2, T=3, d_x=1, seed=0):
    return np.random.default_rng(seed).normal(size=(B, T, d_x))


def test_total_loss_lambda_zero_equals_alternator_exactly():
    model = make_model(d_x=1, d_z=2, T=3, seed=4)
    batch = _toy_batch()
    noise = draw_rollout_noise(np.random.default_rng(1), 2, 3, 2)
    cfg0 = TrainConfig(epochs=1, batch_size=2, noise_weight=0.0)
    loss, breakdown = total_loss(model, batch, cfg0, noise)
    r = rollout(model, batch, noise, want_noise_preds=False)
    alt_z, alt_x = alternator_loss(model, r)
    assert loss.item() == alt_z.item() + alt_x.item()
    assert breakdown.nm_z == 0.0 and breakdown.nm_x == 0.0


def test_total_loss_additivity_random_batches():
    model = make_model(d_x=2, d_z=3, T=4, seed=5)
    cfg = TrainConfig(epochs=1, batch_size=3, noise_weight=0.7)
    rng = np.random.default_rng(2)
    for trial in range(20):
        batch = rng.normal(size=(3, 4, 2))
        noise = draw_rollout_noise(rng, 3, 4, 3)
        _, b = total_loss(model, batch, cfg, noise)
        assert b.total == pytest.approx(
            b.alt_z + b.alt_x + 0.7 * (b.nm_z + b.nm_x), abs=1e-10
        )
        assert min(b.alt_z, b.alt_x, b.nm_z, b.nm_x) >= 0.0


def _per_step_terms(model, batch, noise, cfg):
    """Reference objective as taped ops, summed step by step over the kernel's steps.

    Every network runs at every step (no precomputed lat_net output): the
    data feed each step of ``alternate``, and mu_x and both noise
    predictions are computed here from the step's previous latent. Returns
    [total, alt_z, alt_x, nm_z, nm_x] tensors.
    """
    s = model.schedule
    B, T, _ = batch.shape
    w = (model.d_z * s.sigma_z**2) / (model.d_x * s.sigma_x**2)
    steps = alternate(model, noise.z0, T, data=batch, eps_z=noise.eps_z)
    alt_z = alt_x = nm_z = nm_x = Tensor(0.0)
    z_prev = Tensor(noise.z0)

    def sq(a, b):
        return ad.total_sum(ad.square(ad.sub(a, b)))

    for i, step in enumerate(steps):
        mu_x, pred_x = mean_x_components(model, z_prev, i + 1, want_noise_pred=True)
        pred_z = model.lat_noise_net(ad.concat([z_prev, step.x], axis=-1))
        z_prev = step.z
        alt_z = ad.add(alt_z, sq(step.z, step.mu_z))
        alt_x = ad.add(alt_x, sq(step.x, mu_x))
        target_x = ad.scale(ad.sub(step.x, mu_x), 1.0 / s.sigma_x)
        nm_z = ad.add(nm_z, sq(Tensor(noise.eps_z[:, i]), pred_z))
        if s.beta[i] != 0.0:
            g = gamma_weight(model.d_x, model.d_z, s.sigma_x, s.sigma_z, s.alpha[i], s.beta[i])
            nm_x = ad.add(nm_x, ad.scale(sq(target_x, pred_x), g))
    lam = cfg.noise_weight
    if lam == 0.0:
        nm_z = nm_x = Tensor(0.0)
    alt_z, alt_x = ad.scale(alt_z, 1.0 / B), ad.scale(alt_x, w / B)
    nm_z, nm_x = ad.scale(nm_z, 1.0 / B), ad.scale(nm_x, 1.0 / B)
    return [ad.add(ad.add(alt_z, alt_x), ad.scale(ad.add(nm_z, nm_x), lam)),
            alt_z, alt_x, nm_z, nm_x]


def _assert_matches_per_step_reference(model, batch, noise, cfg):
    """Loss terms at rtol 1e-12 and every parameter gradient at rtol 1e-10."""
    params = model.named_parameters()
    with Tape() as tape:
        loss, b = total_loss(model, batch, cfg, noise)
    grads = backward(tape, loss, list(params.values()))
    with Tape() as ref_tape:
        want = _per_step_terms(model, batch, noise, cfg)
    ref_grads = backward(ref_tape, want[0], list(params.values()))
    got = [b.total, b.alt_z, b.alt_x, b.nm_z, b.nm_x]
    np.testing.assert_allclose(got, [t.item() for t in want], rtol=1e-12, atol=0.0)
    for name, g, ref_g in zip(params, grads, ref_grads):
        np.testing.assert_allclose(g, ref_g, rtol=1e-10, atol=0.0, err_msg=name)


# Each id names the objective (trajectory targets, free_running false), as the
# CLI config keys do, then lambda and beta_lo.
@pytest.mark.parametrize("lam,beta_lo", [
    pytest.param(0.0, 0.1, id="trajectory-False-0.0-0.1"),
    pytest.param(0.7, 0.1, id="trajectory-False-0.7-0.1"),
    pytest.param(0.7, 0.0, id="trajectory-False-0.7-0.0"),
])
def test_total_loss_matches_per_step_reference(lam, beta_lo):
    # beta_lo = 0 puts beta_1 = 0, where the gamma-weighted term is skipped.
    model = make_model(d_x=2, d_z=3, T=5, seed=21,
                       schedule=default_schedule(5, 0.3, 0.15, beta_span=(beta_lo, 1.0)))
    rng = np.random.default_rng(22)
    batch = rng.normal(size=(4, 5, 2))
    noise = draw_rollout_noise(rng, 4, 5, 3)
    cfg = TrainConfig(epochs=1, batch_size=4, noise_weight=lam)
    assert (model.schedule.beta[0] == 0.0) == (beta_lo == 0.0)
    _assert_matches_per_step_reference(model, batch, noise, cfg)


@pytest.mark.parametrize("dynamics,B", [
    pytest.param("vanilla", 4, id="vanilla-4-False"),
    pytest.param("noise_models", 1, id="noise_models-1-False"),
])
def test_total_loss_matches_per_step_reference_vanilla_and_one_series(dynamics, B):
    model = make_model(d_x=2, d_z=3, T=5, seed=23, dynamics=dynamics)
    rng = np.random.default_rng(24)
    batch = rng.normal(size=(B, 5, 2))
    noise = draw_rollout_noise(rng, B, 5, 3)
    cfg = TrainConfig(epochs=1, batch_size=B, noise_weight=0.7)
    _assert_matches_per_step_reference(model, batch, noise, cfg)


@pytest.mark.parametrize("T", [2, 6])
def test_teacher_forced_tape_size_is_linear_in_steps(T):
    # The whole latent recursion is one tape node, so the per-step term is
    # zero: the tape holds the three batched networks, the recursion, the
    # field selects, the loss terms and the parameter and noise leaves, 65
    # nodes at any T.
    model = make_model(d_x=1, d_z=3, T=T, hidden_dim=5, seed=25)
    batch = np.random.default_rng(26).normal(size=(4, T, 1))
    noise = draw_rollout_noise(np.random.default_rng(27), 4, T, 3)
    with Tape() as tape:
        total_loss(model, batch, TrainConfig(epochs=1, batch_size=4), noise)
    assert len(tape.nodes) == 0 * T + 65


def _reference_recursion(lat_out, layers, z0, data, z_noise, coef, vanilla, want_pred):
    """ad.latent_recursion as a chain of public ops, one step at a time."""
    sqrt_a, c = coef
    z = Tensor(z0)
    fields = ([], [], [], [])          # z_prev, z, mu_z, pred_z
    for i in range(data.shape[1]):
        fields[0].append(z)
        mu = ad.scale(ad.select(lat_out, i, axis=1), sqrt_a[i])
        pred = None
        if want_pred or (c[i] != 0.0 and not vanilla):
            pred = ad.mlp(ad.concat([z, Tensor(data[:, i])], axis=-1), layers)
        if c[i] != 0.0:
            mu = ad.add(mu, ad.scale(z if vanilla else pred, c[i]))
        z = ad.shift(mu, z_noise[:, i])
        for field, value in zip(fields[1:], (z, mu, pred)):
            field.append(value)
    kept = fields if want_pred else fields[:3]
    return ad.stack([ad.stack(f, axis=1) for f in kept], axis=0)


@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("alpha_span", [(0.1, 1.0), (0.1, 0.9)])  # boundary at t=T, none
@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("dynamics", ["noise_models", "vanilla"])
def test_latent_recursion_matches_op_chain_bitwise(monkeypatch, dynamics, lam, alpha_span, B):
    model = make_model(d_x=2, d_z=3, T=5, seed=28, dynamics=dynamics,
                       schedule=default_schedule(5, 0.3, 0.15, alpha_span=alpha_span))
    rng = np.random.default_rng(29)
    batch = rng.normal(size=(B, 5, 2))
    noise = draw_rollout_noise(rng, B, 5, 3)
    cfg = TrainConfig(epochs=1, batch_size=B, noise_weight=lam)
    params = model.named_parameters()

    def run(recursion):
        seen = {}

        def spy(lat_out, *args, **kwargs):
            seen["lat_out"] = lat_out
            seen["out"] = recursion(lat_out, *args, **kwargs)
            return seen["out"]

        monkeypatch.setattr(ad, "latent_recursion", spy)
        with Tape() as tape:
            loss, _ = total_loss(model, batch, cfg, noise)
        grads = backward(tape, loss, [seen["lat_out"], *params.values()])
        return [loss.data, seen["out"].data] + grads

    got = run(ad.latent_recursion)
    want = run(_reference_recursion)
    assert got[1].shape[0] == (4 if lam > 0 else 3)   # z_prev, z, mu_z (, pred_z)
    for name, a, b in zip(["loss", "fields", "lat_out"] + list(params), got, want):
        assert np.array_equal(a, b), name


def test_zero_networks_zero_data_vanilla_schedule_kills_observation_term():
    model = make_model(d_x=1, d_z=2, T=3, schedule="vanilla", seed=20)
    for net in model.networks().values():
        zero_network(net)
    batch = np.zeros((2, 3, 1))
    noise = draw_rollout_noise(np.random.default_rng(9), 2, 3, 2)
    cfg = TrainConfig(epochs=1, batch_size=2, noise_weight=1.0)
    _, b = total_loss(model, batch, cfg, noise)
    assert b.alt_x == 0.0  # mu_x = 0 = x exactly


@pytest.mark.parametrize("dynamics", [
    pytest.param("noise_models", id="trajectory-False"),
    pytest.param("vanilla", id="trajectory-False-vanilla"),
])
def test_total_loss_gradients_match_finite_differences(dynamics):
    model = make_model(d_x=2, d_z=2, T=2, hidden_dim=3, seed=7, dynamics=dynamics)
    batch = np.random.default_rng(4).uniform(-1, 1, size=(2, 2, 2))
    noise = draw_rollout_noise(np.random.default_rng(5), 2, 2, 2)
    cfg = TrainConfig(epochs=1, batch_size=2, noise_weight=1.0)

    def loss_fn():
        return total_loss(model, batch, cfg, noise)[0]

    err = finite_difference_check(loss_fn, model.named_parameters().values(), h=1e-5)
    assert err <= 1e-4


def test_lambda_zero_vanilla_schedule_noise_nets_get_exact_zero_grads():
    model = make_model(d_x=1, d_z=2, T=2, schedule="vanilla", seed=8)
    batch = _toy_batch(B=2, T=2)
    noise = draw_rollout_noise(np.random.default_rng(6), 2, 2, 2)
    cfg = TrainConfig(epochs=1, batch_size=2, noise_weight=0.0)
    with Tape() as tape:
        loss, _ = total_loss(model, batch, cfg, noise)
    params = model.named_parameters()
    grads = dict(zip(params, backward(tape, loss, list(params.values()))))
    for name, g in grads.items():
        if name.startswith(("obs_noise_net.", "lat_noise_net.")):
            assert np.array_equal(g, np.zeros_like(params[name].data)), name
    # the reconstruction networks do receive gradient
    assert any(np.any(g != 0) for name, g in grads.items() if name.startswith("obs_net."))


# --- optimizer and learning rate -------------------------------------------

def test_adam_first_step_bias_corrected_delta():
    p = {"w": Tensor(np.zeros(1))}
    state = AdamState()
    adam_step(p, {"w": np.ones(1)}, state, lr=0.1)
    assert abs(p["w"].data[0] + 0.1) <= 1e-8


def test_adam_zero_gradient_no_move():
    p = {"w": Tensor(np.array([1.0, -2.0]))}
    state = AdamState()
    adam_step(p, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(p["w"].data, [1.0, -2.0])


def test_adam_deterministic_trajectories():
    def run():
        p = {"w": Tensor(np.array([0.5]))}
        state = AdamState()
        out = []
        for step in range(5):
            g = np.array([np.sin(step + 1.0)])
            adam_step(p, {"w": g}, state, lr=0.05)
            out.append(p["w"].data.copy())
        return np.concatenate(out)

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    p = {"w": Tensor(np.zeros(2))}
    with pytest.raises(ShapeError):
        adam_step(p, {"w": np.zeros(3)}, AdamState(), lr=0.1)


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 1000, 1e-3, 1e-5) == pytest.approx(1e-3)
    assert cosine_lr(1000, 1000, 1e-3, 1e-5) == pytest.approx(1e-5)
    assert cosine_lr(500, 1000, 1e-3, 1e-5) == pytest.approx(5.05e-4, abs=1e-12)


def test_cosine_lr_guards():
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 1e-3, 1e-5)
    with pytest.raises(ConfigError):
        cosine_lr(5, 4, 1e-3, 1e-5)


# --- training loop ----------------------------------------------------------

def _toy_dataset(N=4, T=6, seed=0):
    return synth_bimodal(N, T, 0.05, seed)


def test_train_one_epoch_moves_parameters():
    ds = _toy_dataset()
    model = make_model(d_x=1, d_z=2, T=6, seed=10)
    before = {k: v.data.copy() for k, v in model.named_parameters().items()}
    cfg = TrainConfig(epochs=1, batch_size=2, seed=1)
    model, history = train(model, ds, cfg)
    assert len(history) == 1
    assert np.isfinite(history[0].loss.total)
    moved = [k for k, v in model.named_parameters().items()
             if not np.array_equal(before[k], v.data)]
    assert moved


def test_train_same_seed_identical_history():
    ds = _toy_dataset()
    cfg = TrainConfig(epochs=3, batch_size=3, seed=2)
    histories = []
    for _ in range(2):
        model = make_model(d_x=1, d_z=2, T=6, seed=11)
        _, history = train(model, ds, cfg)
        histories.append([(s.epoch, s.lr, s.loss.total, s.loss.alt_z, s.loss.alt_x,
                           s.loss.nm_z, s.loss.nm_x) for s in history])
    assert histories[0] == histories[1]


def _traced_epoch_peak(n_series: int, d_z: int, batch_size: int) -> int:
    """Traced peak bytes of one training epoch on bimodal series, T=50, hidden 64."""
    ds = synth_bimodal(n_series, 50, 0.05, 0)
    model = make_model(d_x=1, d_z=d_z, T=50, hidden_dim=64, depth=2, seed=0)
    tracemalloc.start()
    try:
        _, history = train(model, ds, TrainConfig(epochs=1, batch_size=batch_size, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(history[0].loss.total)
    return peak


def test_density_step_memory_is_bounded():
    # one optimizer step at the density regime's sizes (B=100, T=50, d_z=8,
    # hidden 64): 26.8 MiB while backward kept every node's saved buffers to
    # the end of the sweep, 25.7 MiB now that each is dropped once used
    peak = _traced_epoch_peak(100, d_z=8, batch_size=100)
    assert peak < 32 * 2**20, f"{peak} bytes"


def test_imputation_step_backward_keeps_only_the_gradients_asked_for():
    # one step at the imputation regime's sizes (B=32, T=50, d_z=64, hidden
    # 64), whose forward leaves 10.3 MiB alive: when backward kept every
    # node's gradient to the end of the sweep, 10.1 MiB stayed alive after it
    # and its peak was 14.7 MiB; keeping only the parameters' gradients
    # (0.29 MiB), 0.3 and 11.9 MiB
    ds = synth_bimodal(32, 50, 0.05, 0)
    model = make_model(d_x=1, d_z=64, T=50, hidden_dim=64, depth=2, seed=0)
    noise = draw_rollout_noise(np.random.default_rng(0), 32, 50, 64)
    params = list(model.named_parameters().values())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss, _ = total_loss(model, ds.data, TrainConfig(epochs=1, batch_size=32), noise)
        tracemalloc.reset_peak()
        grads = backward(tape, loss, params)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grads) == len(params)
    assert after - start < 2**20, f"{after - start} bytes alive after backward"
    assert peak < 13 * 2**20, f"backward peak {peak} bytes"


# Traced peaks when a step's graph lived on through the next step: 47.9 MiB
# (density) and 40.4 MiB (imputation); with one graph at a time, 26.2 and 16.4.
@pytest.mark.parametrize("n_series, d_z, batch_size, bound_mib", [
    (500, 8, 100, 32),      # density regime, 5 steps
    (96, 64, 32, 24),       # imputation regime, 3 steps
])
def test_epoch_holds_one_step_graph_at_a_time(n_series, d_z, batch_size, bound_mib):
    peak = _traced_epoch_peak(n_series, d_z=d_z, batch_size=batch_size)
    assert peak < bound_mib * 2**20, f"{peak} bytes"


def test_train_keeps_final_short_batch():
    ds = _toy_dataset(N=5)
    model = make_model(d_x=1, d_z=2, T=6, seed=12)
    cfg = TrainConfig(epochs=1, batch_size=2, seed=3)
    _, history = train(model, ds, cfg)  # 3 batches: 2+2+1
    assert np.isfinite(history[0].loss.total)


def test_train_lambda_zero_vanilla_never_touches_noise_nets():
    sched = vanilla_schedule(6, 0.3, 0.15)
    model = make_model(d_x=1, d_z=2, T=6, schedule=sched, seed=13)
    before = {name: p.data.copy() for name, p in model.named_parameters().items()
              if name.startswith(("obs_noise_net", "lat_noise_net"))}
    cfg = TrainConfig(epochs=2, batch_size=2, noise_weight=0.0, seed=4)
    model, _ = train(model, _toy_dataset(), cfg)
    for name, p in model.named_parameters().items():
        if name in before:
            assert np.array_equal(before[name], p.data), name


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_nan_abort_names_epoch():
    model = make_model(d_x=1, d_z=2, T=6, seed=14)
    model.obs_net.params["out.weight"].data[:] = 1e200
    with pytest.raises(NumericError, match="epoch 1"):
        train(model, _toy_dataset(), TrainConfig(epochs=1, batch_size=4, seed=5))


@pytest.mark.filterwarnings("ignore:overflow")
def test_latent_recursion_overflow_names_lat_noise_net_and_step():
    model = make_model(d_x=1, d_z=2, T=6, seed=15)
    model.lat_noise_net.params["layer0.weight"].data[2, 0] = 1e308   # the x_t input row
    batch = np.zeros((2, 6, 1))
    batch[:, 2] = 5.0                                              # x_3 overflows it
    noise = draw_rollout_noise(np.random.default_rng(16), 2, 6, 2)
    with pytest.raises(NumericError, match=r"t=3: lat_noise_net layer 0"):
        total_loss(model, batch, TrainConfig(epochs=1, batch_size=2), noise)


def test_series_longer_than_the_schedule_is_config_error_before_any_network_runs(monkeypatch):
    def no_network(*args):
        raise AssertionError("a network ran")

    monkeypatch.setattr(networks, "network_forward", no_network)
    model = make_model(d_x=1, d_z=2, T=4, seed=17)
    ds = _toy_dataset(N=3, T=6)
    noise = draw_rollout_noise(np.random.default_rng(18), 3, 6, 2)
    cfg = TrainConfig(epochs=1, batch_size=3)
    for run in (lambda: rollout(model, ds.data, noise),
                lambda: total_loss(model, ds.data, cfg, noise),
                lambda: train(model, ds, cfg)):
        with pytest.raises(ConfigError, match=r"steps 1\.\.6 exceed schedule length 4"):
            run()


def test_train_rejects_empty_dataset():
    ds = _toy_dataset()
    ds.data = ds.data[:0]
    model = make_model(d_x=1, d_z=2, T=6)
    with pytest.raises(ConfigError):
        train(model, ds, TrainConfig(epochs=1, batch_size=2))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_max=1e-5, lr_min=1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(noise_weight=-0.1)
