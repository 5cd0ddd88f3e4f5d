"""Acceptance gate: one test per criterion, one printed pass/fail line each.

The three trained-model criteria share module-scoped fixtures (a density
run, an imputation-regime run, and a forecasting run on synthetic data);
the whole module takes several minutes of CPU. Run with ``-v -s`` to see
the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from alternator import cli
from alternator.autodiff import finite_difference_check
from alternator.core import (
    build_model,
    default_schedule,
    generate_batch,
    mean_x_components,
    mean_z_components,
    vanilla_schedule,
)
from alternator.data import synth_ar1, synth_bimodal
from alternator.metrics import (
    crps_ensemble,
    median_bandwidth,
    mmd_rbf,
    pointwise_metrics,
    sequence_mmd,
)
from alternator.tasks import (
    apply_mar_mask,
    climatology_forecast,
    forecast_ensemble,
    impute,
    mean_fill,
)
from alternator.training import (
    TrainConfig,
    alternator_loss,
    draw_rollout_noise,
    rollout,
    total_loss,
    train,
)

pytestmark = pytest.mark.slow

MINUTE = 60.0
TEN_MINUTES = 600.0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- shared trained models ----------------------------------------------------

@pytest.fixture(scope="module")
def density_run():
    """Density-regime training: sigma_x=0.3, sigma_z=0.15, batch 100."""
    ds = synth_bimodal(500, 50, 0.05, seed=101)
    held = synth_bimodal(200, 50, 0.05, seed=202)
    sched = default_schedule(50, 0.3, 0.15)
    untrained = build_model(1, 8, sched, hidden_dim=64, depth=2, seed=0)
    model = build_model(1, 8, sched, hidden_dim=64, depth=2, seed=0)
    t0 = time.time()
    model, history = train(model, ds, TrainConfig(epochs=300, batch_size=100, seed=1))
    return {"model": model, "untrained": untrained, "held": held,
            "history": history, "train_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def imputation_run():
    """Imputation-regime training: sigma_x=sigma_z=0.15, batch 32, lr 5e-4."""
    ds = synth_bimodal(500, 50, 0.05, seed=101)
    test = synth_bimodal(60, 50, 0.05, seed=303)
    sched = default_schedule(50, 0.15, 0.15)
    model = build_model(1, 8, sched, hidden_dim=64, depth=2, seed=0)
    t0 = time.time()
    model, history = train(
        model, ds,
        TrainConfig(epochs=300, batch_size=32, seed=1, lr_max=5e-4, lr_min=5e-6),
    )
    return {"model": model, "test": test, "history": history,
            "train_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def forecast_run():
    """Forecasting testbed: AR(1) with phi=0.9."""
    ds = synth_ar1(400, 50, 0.9, 0.3, seed=404)
    test = synth_ar1(60, 50, 0.9, 0.3, seed=505)
    sched = default_schedule(50, 0.15, 0.15)
    model = build_model(1, 8, sched, hidden_dim=64, depth=2, seed=0)
    t0 = time.time()
    model, _ = train(
        model, ds,
        TrainConfig(epochs=200, batch_size=100, seed=2, lr_max=5e-4, lr_min=5e-6),
    )
    return {"model": model, "train": ds, "test": test,
            "train_seconds": time.time() - t0}


# --- criterion 1: gradient correctness ------------------------------------------

def test_criterion_1_gradient_check_full_objective():
    t0 = time.time()
    model = build_model(2, 2, default_schedule(2, 0.3, 0.15),
                        hidden_dim=6, depth=2, seed=7)
    batch = np.random.default_rng(0).uniform(-1, 1, size=(1, 2, 2))
    noise = draw_rollout_noise(np.random.default_rng(1), 1, 2, 2)
    cfg = TrainConfig(epochs=1, batch_size=1, noise_weight=1.0)

    def loss_fn():
        return total_loss(model, batch, cfg, noise)[0]

    err = finite_difference_check(loss_fn, model.named_parameters().values(), h=1e-5)
    elapsed = time.time() - t0
    report(1, err <= 1e-4 and elapsed < MINUTE,
           f"max rel grad error {err:.2e} over all four networks "
           f"(B=1, T=2, d_x=d_z=2) in {elapsed:.1f}s")


# --- criterion 2: vanilla degeneration -------------------------------------------

def test_criterion_2_vanilla_degeneration():
    model = build_model(2, 3, vanilla_schedule(4, 0.3, 0.15),
                        hidden_dim=8, depth=2, seed=8)
    coef_ok = all(
        model.schedule.coef_x(t)[1] == 0.0 and model.schedule.coef_z(t)[1] == 0.0
        for t in range(1, 5)
    )
    rng = np.random.default_rng(2)
    bitwise_ok = True
    for t in range(1, 5):
        z = rng.normal(size=3)
        x = rng.normal(size=2)
        want_x = np.sqrt(1.0 - model.schedule.sigma_x**2) * model.obs_net(z).data
        want_z = np.sqrt(float(model.schedule.alpha[t - 1])) * model.lat_net(x).data
        bitwise_ok &= np.array_equal(mean_x_components(model, z, t)[0].data, want_x)
        bitwise_ok &= np.array_equal(mean_z_components(model, z, x, t).data, want_z)
    report(2, coef_ok and bitwise_ok,
           "noise-model coefficients exactly 0; means match the classic "
           "alternation bitwise")


# --- criterion 3: metric oracles ----------------------------------------------

def _mmd_bruteforce(X, Y, h):
    def k(a, b):
        d = a - b
        return np.exp(-float(d @ d) / (2.0 * h * h))

    def mk(A, B):
        return sum(k(a, b) for a in A for b in B) / (len(A) * len(B))

    return mk(X, X) + mk(Y, Y) - 2.0 * mk(X, Y)


def _crps_integral(members, y):
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


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 5))
    Y = rng.normal(loc=0.3, size=(20, 5))
    h = median_bandwidth(np.concatenate([X, Y]))
    mmd_err = abs(mmd_rbf(X, Y, h) - _mmd_bruteforce(X, Y, h))
    self_mmd = abs(mmd_rbf(X, X, h))
    crps_err = 0.0
    for M in (1, 2, 3):
        for _ in range(20):
            members = rng.normal(size=M)
            y = rng.normal()
            crps_err = max(
                crps_err, abs(crps_ensemble(members, y) - _crps_integral(members, y))
            )
    report(3, mmd_err <= 1e-12 and self_mmd <= 1e-12 and crps_err <= 1e-10,
           f"MMD vs brute force {mmd_err:.1e}, MMD(X,X) {self_mmd:.1e}, "
           f"CRPS vs piecewise integral {crps_err:.1e} for M in {{1,2,3}}")


# --- criterion 4: loss additivity ------------------------------------------------

def test_criterion_4_loss_additivity():
    model = build_model(2, 3, default_schedule(4, 0.3, 0.15),
                        hidden_dim=6, depth=2, seed=9)
    rng = np.random.default_rng(4)
    lam = 1.0
    cfg = TrainConfig(epochs=1, batch_size=3, noise_weight=lam)
    worst = 0.0
    for _ in range(100):
        batch = rng.normal(size=(3, 4, 2))
        noise = draw_rollout_noise(rng, 3, 4, 3)
        _, b = total_loss(model, batch, cfg, noise)
        worst = max(worst, abs(b.total - (b.alt_z + b.alt_x + lam * (b.nm_z + b.nm_x))))
    batch = rng.normal(size=(3, 4, 2))
    noise = draw_rollout_noise(rng, 3, 4, 3)
    cfg0 = TrainConfig(epochs=1, batch_size=3, noise_weight=0.0)
    loss0, _ = total_loss(model, batch, cfg0, noise)
    alt_z, alt_x = alternator_loss(model, rollout(model, batch, noise, want_noise_preds=False))
    exact = loss0.item() == alt_z.item() + alt_x.item()
    report(4, worst <= 1e-10 and exact,
           f"additivity error {worst:.1e} over 100 random batches; "
           f"lambda=0 reduces to the alternator loss exactly: {exact}")


# --- criterion 5: synthetic density estimation ------------------------------------

def test_criterion_5_density_estimation(density_run):
    t0 = time.time()
    held = density_run["held"].data
    samples = generate_batch(density_run["model"], 200, 50, seed=999)
    base = generate_batch(density_run["untrained"], 200, 50, seed=999)
    mmd_trained = sequence_mmd(samples, held)
    mmd_untrained = sequence_mmd(base, held)
    elapsed = density_run["train_seconds"] + (time.time() - t0)
    ratio = mmd_trained / mmd_untrained
    report(5, ratio <= 0.5 and elapsed < TEN_MINUTES,
           f"MMD trained {mmd_trained:.4f} vs untrained {mmd_untrained:.4f} "
           f"(ratio {ratio:.3f} <= 0.5) in {elapsed:.0f}s")


# --- criterion 6: imputation sweep ----------------------------------------------

def test_criterion_6_imputation_beats_mean_fill(imputation_run):
    t0 = time.time()
    model = imputation_run["model"]
    test = imputation_run["test"].data
    rates = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    lines = []
    all_win = True
    for r_idx, rate in enumerate(rates):
        mse_model, mse_base = [], []
        for i in range(test.shape[0]):
            truth = test[i]
            masked, mask = apply_mar_mask(truth, rate, seed=1000 + 97 * r_idx + i)
            filled = impute(model, masked, mask, seed=i)
            mse_model.append(pointwise_metrics(truth, filled).mse)
            mse_base.append(pointwise_metrics(truth, mean_fill(masked, mask)).mse)
        win = np.mean(mse_model) < np.mean(mse_base)
        all_win &= win
        lines.append(f"{rate:.1f}:{np.mean(mse_model):.4f}<{np.mean(mse_base):.4f}")
    elapsed = imputation_run["train_seconds"] + (time.time() - t0)
    report(6, all_win and elapsed < TEN_MINUTES,
           f"model MSE < mean-fill MSE at every MAR rate ({'; '.join(lines)}) "
           f"in {elapsed:.0f}s")


# --- criterion 7: ensemble forecasting --------------------------------------------

def test_criterion_7_forecast_beats_climatology(forecast_run):
    t0 = time.time()
    model = forecast_run["model"]
    H, T_c, members = 7, 43, 50
    clim = climatology_forecast(forecast_run["train"].data, T_c, H)
    test = forecast_run["test"].data
    crps_model, crps_clim = [], []
    for i in range(test.shape[0]):
        ctx, truth = test[i, :T_c], test[i, T_c:T_c + H]
        ens = forecast_ensemble(model, ctx, H, members=members, seed=i)
        assert ens.members.shape == (members, H, 1)
        for h in range(H):
            crps_model.append(crps_ensemble(ens.members[:, h], truth[h]))
            crps_clim.append(crps_ensemble(clim[None, h], truth[h]))
    elapsed = forecast_run["train_seconds"] + (time.time() - t0)
    cm, cc = float(np.mean(crps_model)), float(np.mean(crps_clim))
    report(7, cm <= cc and elapsed < TEN_MINUTES,
           f"50-member ensemble CRPS {cm:.4f} <= climatology {cc:.4f} "
           f"over a 7-step horizon in {elapsed:.0f}s")


# --- criterion 8: determinism ------------------------------------------------------

def test_criterion_8_bitwise_determinism(tmp_path):
    cfg = {
        "dataset": {"kind": "bimodal", "n": 8, "t": 8, "noise_std": 0.05, "seed": 42},
        "model": {"d_z": 2, "hidden_dim": 8, "sigma_x": 0.3, "sigma_z": 0.15},
        "train": {"epochs": 3, "batch_size": 4},
        "impute": {"rates": [0.3, 0.6]},
        "seed": 7,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--deterministic"]) == 0
        ckpt = out / "checkpoint.alt"
        imp = tmp_path / f"imp_{tag}"
        assert cli.main(["impute", "--config", str(cfg_path), "--checkpoint",
                         str(ckpt), "--out", str(imp), "--deterministic"]) == 0
        ev = tmp_path / f"ev_{tag}"
        assert cli.main(["eval-density", "--config", str(cfg_path), "--checkpoint",
                         str(ckpt), "--out", str(ev), "--deterministic",
                         "--set", "eval_density.n_samples=8"]) == 0
        outs.append((out, imp, ev))

    same = True
    for name, idx in (("loss_log.jsonl", 0), ("checkpoint.alt", 0),
                      ("impute_metrics.jsonl", 1), ("imputed.csv", 1),
                      ("density_metrics.jsonl", 2)):
        same &= (outs[0][idx] / name).read_bytes() == (outs[1][idx] / name).read_bytes()
    # resolved configs agree on everything except the output directory itself
    resolved = []
    for out, _, _ in outs:
        tree = json.loads((out / "config.json").read_text())
        tree.pop("out")
        resolved.append(tree)
    same &= resolved[0] == resolved[1]
    report(8, same, "repeated --deterministic runs give bitwise-identical loss "
                    "history, checkpoint, and metrics files")


# --- criterion 9: training sanity -----------------------------------------------

def test_criterion_9_training_sanity(imputation_run):
    history = imputation_run["history"]
    first = history[0].loss.total
    final = history[-1].loss.total
    entries_ok = all(
        np.isfinite(v) and v >= 0.0
        for s in history
        for v in (s.loss.total, s.loss.alt_z, s.loss.alt_x, s.loss.nm_z, s.loss.nm_x)
    )
    report(9, final <= 0.5 * first and entries_ok and len(history) == 300,
           f"300-epoch run: final total {final:.1f} <= 0.5 x first-epoch "
           f"{first:.1f} (ratio {final / first:.3f}); all breakdown entries "
           f"finite and non-negative")
