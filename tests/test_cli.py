"""End-to-end CLI runs: resolution, artifacts, determinism, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alternator
from alternator import cli
from alternator.core import load_model, spawn_seed
from alternator.data import load_csv


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def _read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.fixture(scope="session")
def tiny_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "dataset": {"kind": "bimodal", "n": 6, "t": 8, "noise_std": 0.05, "seed": 42},
        "model": {"d_z": 2, "hidden_dim": 8, "sigma_x": 0.3, "sigma_z": 0.15},
        "train": {"epochs": 2, "batch_size": 4},
        "seed": 7,
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def trained_run(tiny_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_cli("train", "--config", tiny_cfg, "--out", out) == 0
    return out


# --- config resolution ----------------------------------------------------

def _resolve(task="train", preset=None, config=None, sets=None, seed=None):
    ns = argparse.Namespace(task=task, config=config, seed=seed, out=None,
                            deterministic=False, preset=preset, set=sets or [])
    return cli.resolve_config(ns)


def test_density_defaults_match_benchmark_regime():
    cfg = _resolve(preset="density")
    assert cfg["model"]["d_z"] == 32
    assert cfg["model"]["sigma_x"] == 0.3
    assert cfg["model"]["sigma_z"] == 0.15
    assert cfg["train"]["batch_size"] == 100
    assert cfg["train"]["epochs"] == 1000
    assert cfg["train"]["lr_max"] == 1e-3
    assert cfg["train"]["lr_min"] == 1e-5


def test_imputation_preset_overrides():
    cfg = _resolve(preset="imputation")
    assert cfg["model"]["d_z"] == 64
    assert cfg["model"]["sigma_x"] == 0.15
    assert cfg["model"]["sigma_z"] == 0.15
    assert cfg["train"]["batch_size"] == 32
    assert cfg["train"]["epochs"] == 800
    assert cfg["train"]["lr_max"] == 5e-4
    assert cfg["train"]["lr_min"] == 5e-6


def test_set_overrides_beat_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"model": {"d_z": 16}}), encoding="utf-8")
    cfg = _resolve(config=str(p), sets=["model.d_z=3", "train.epochs=5"])
    assert cfg["model"]["d_z"] == 3
    assert cfg["train"]["epochs"] == 5


def test_set_rejects_unknown_key():
    from alternator.errors import ConfigError
    with pytest.raises(ConfigError):
        _resolve(sets=["model.nonsense=1"])


@pytest.mark.parametrize("expr, key", [
    ("train.epochs=abc", "train.epochs"),
    ("train.epochs=2.5", "train.epochs"),
    ("train.free_running=1", "train.free_running"),
    ("model.d_z=true", "model.d_z"),
    ("model=3", "model"),
])
def test_set_with_wrong_type_is_config_error(tmp_path, capsys, expr, key):
    code = run_cli("train", "--set", "dataset.kind=bimodal", "--set", expr,
                   "--out", tmp_path / "x")
    assert code == cli.EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err


def test_resolved_types_follow_defaults(tmp_path):
    from alternator.errors import ConfigError
    cfg = _resolve(sets=["train.lr_max=1", "generate.horizon=5", "dataset.n=null"])
    assert cfg["train"]["lr_max"] == 1                  # a float field takes an int
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"train": {"epoch": 5}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="train.epoch"):
        _resolve(config=str(p))


def test_sigma_out_of_range_is_config_error(tmp_path, capsys):
    code = run_cli("train", "--set", "dataset.kind=bimodal", "--set", "model.sigma_x=1.5",
                   "--out", tmp_path / "x")
    assert code == cli.EXIT_CONFIG
    assert "sigma_x must lie in (0, 1)" in capsys.readouterr().err


# --- train ------------------------------------------------------------------

def test_train_writes_expected_artifacts(trained_run):
    assert (trained_run / "checkpoint.alt").exists()
    assert (trained_run / "config.json").exists()
    log = _read_jsonl(trained_run / "loss_log.jsonl")
    assert len(log) == 2
    for rec in log:
        assert set(rec) == {"epoch", "lr", "total", "alt_z", "alt_x", "nm_z", "nm_x"}
        assert all(np.isfinite(v) for v in rec.values())
    resolved = json.loads((trained_run / "config.json").read_text())
    assert resolved["model"]["d_x"] == 1
    model = load_model(trained_run / "checkpoint.alt")
    assert model.d_z == 2


def test_train_rerun_is_bitwise_identical(tiny_cfg, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("train", "--config", tiny_cfg, "--out", out1, "--deterministic") == 0
    assert run_cli("train", "--config", tiny_cfg, "--out", out2, "--deterministic") == 0
    for name in ("loss_log.jsonl", "checkpoint.alt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_from_resolved_config_reproduces(trained_run, tmp_path):
    out2 = tmp_path / "again"
    assert run_cli("train", "--config", trained_run / "config.json", "--out", out2) == 0
    assert (trained_run / "loss_log.jsonl").read_bytes() == (out2 / "loss_log.jsonl").read_bytes()
    assert (trained_run / "checkpoint.alt").read_bytes() == (out2 / "checkpoint.alt").read_bytes()


# --- generate / encode ------------------------------------------------------

def test_generate_dumps_requested_samples(trained_run, tmp_path):
    out = tmp_path / "gen"
    code = run_cli("generate", "--checkpoint", trained_run / "checkpoint.alt",
                   "--out", out, "--seed", 3, "--set", "generate.n_samples=5")
    assert code == 0
    ds = load_csv(out / "samples.csv")
    assert ds.data.shape == (5, 8, 1)


def test_encode_dumps_latents(tiny_cfg, trained_run, tmp_path):
    out = tmp_path / "enc"
    code = run_cli("encode", "--config", tiny_cfg, "--checkpoint",
                   trained_run / "checkpoint.alt", "--out", out)
    assert code == 0
    ds = load_csv(out / "latents.csv")
    assert ds.data.shape == (6, 8, 2)  # d_z channels


# --- impute -----------------------------------------------------------------

def test_impute_sweep_covers_nine_rates(tiny_cfg, trained_run, tmp_path):
    out = tmp_path / "imp"
    code = run_cli("impute", "--config", tiny_cfg, "--checkpoint",
                   trained_run / "checkpoint.alt", "--out", out)
    assert code == 0
    records = _read_jsonl(out / "impute_metrics.jsonl")
    model_mse_rates = sorted(r["rate"] for r in records if r["metric"] == "model_mse")
    assert model_mse_rates == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    for rec in records:
        assert {"task", "metric", "value", "std_error", "n", "seed"} <= set(rec)
    assert (out / "imputed.csv").exists()


def test_impute_rate_zero_row_is_exact_passthrough(tiny_cfg, trained_run, tmp_path):
    out = tmp_path / "imp0"
    code = run_cli("impute", "--config", tiny_cfg, "--checkpoint",
                   trained_run / "checkpoint.alt", "--out", out,
                   "--set", "impute.rates=[0.0]")
    assert code == 0
    records = _read_jsonl(out / "impute_metrics.jsonl")
    mae = [r for r in records if r["metric"] == "model_mae"][0]
    assert mae["value"] == 0.0


# --- forecast ----------------------------------------------------------------

def test_forecast_metrics_and_member_dump(tiny_cfg, trained_run, tmp_path):
    out = tmp_path / "fc"
    code = run_cli("forecast", "--config", tiny_cfg, "--checkpoint",
                   trained_run / "checkpoint.alt", "--out", out,
                   "--set", "forecast.horizon=3", "--set", "forecast.members=5")
    assert code == 0
    records = _read_jsonl(out / "forecast_metrics.jsonl")
    crps_rows = [r for r in records if r["metric"] == "crps"]
    assert sorted(r["h"] for r in crps_rows) == [1, 2, 3]
    with open(out / "ensemble.csv", newline="", encoding="utf-8") as fh:
        ids = {row[0] for row in csv.reader(fh) if row and row[0] != "series_id"}
    members_of_s0 = {i for i in ids if i.startswith("s0_")}
    assert len(members_of_s0) == 5


def test_forecast_horizon_too_long_is_config_error(tiny_cfg, trained_run, tmp_path):
    code = run_cli("forecast", "--config", tiny_cfg, "--checkpoint",
                   trained_run / "checkpoint.alt", "--out", tmp_path / "fc2",
                   "--set", "forecast.horizon=8")
    assert code == cli.EXIT_CONFIG


# --- eval-density ---------------------------------------------------------------

def test_eval_density_self_comparison_is_zero(trained_run, tmp_path):
    gen_out = tmp_path / "gen"
    eval_seed = 11
    gen_seed = spawn_seed(eval_seed, 0)
    assert run_cli("generate", "--checkpoint", trained_run / "checkpoint.alt",
                   "--out", gen_out, "--seed", gen_seed,
                   "--set", "generate.n_samples=6") == 0
    out = tmp_path / "ev"
    code = run_cli("eval-density", "--checkpoint", trained_run / "checkpoint.alt",
                   "--out", out, "--seed", eval_seed,
                   "--set", "dataset.kind=csv",
                   "--set", f"dataset.path={gen_out / 'samples.csv'}",
                   "--set", "eval_density.n_samples=6")
    assert code == 0
    records = _read_jsonl(out / "density_metrics.jsonl")
    mmd = [r for r in records if r["metric"] == "mmd"][0]
    assert abs(mmd["value"]) <= 1e-12
    assert {"task", "metric", "value", "std_error", "n", "seed"} <= set(mmd)


def test_eval_density_baseline_ratio(tiny_cfg, trained_run, tmp_path):
    out = tmp_path / "ev2"
    code = run_cli("eval-density", "--config", tiny_cfg,
                   "--checkpoint", trained_run / "checkpoint.alt",
                   "--baseline-checkpoint", trained_run / "checkpoint.alt",
                   "--out", out, "--set", "eval_density.n_samples=6")
    assert code == 0
    metrics = {r["metric"]: r["value"] for r in _read_jsonl(out / "density_metrics.jsonl")}
    assert set(metrics) == {"mmd", "mmd_baseline", "mmd_ratio"}
    assert metrics["mmd_ratio"] == pytest.approx(1.0)


# --- exit codes ---------------------------------------------------------------

def test_missing_dataset_kind_is_config_error(tmp_path):
    assert run_cli("train", "--out", tmp_path / "x") == cli.EXIT_CONFIG


def test_bad_checkpoint_path_is_io_error(tiny_cfg, tmp_path):
    code = run_cli("generate", "--checkpoint", tmp_path / "missing.alt",
                   "--out", tmp_path / "y")
    assert code == cli.EXIT_IO


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_abort_exit_code(tiny_cfg, tmp_path):
    code = run_cli("train", "--config", tiny_cfg, "--out", tmp_path / "boom",
                   "--set", "train.lr_max=1e200", "--set", "train.epochs=3")
    assert code == cli.EXIT_NUMERIC


_TINY_TRAIN = ["--set", "dataset.kind=bimodal", "--set", "dataset.n=4", "--set", "dataset.t=3",
               "--set", "train.epochs=1", "--set", "model.d_z=2", "--set", "model.hidden_dim=4"]


@pytest.mark.parametrize("task, extra, code, named", [
    ("train", ["--set", "train.epochs=null"], cli.EXIT_OK, None),
    ("train", ["--set", "model.d_z=null"], cli.EXIT_OK, None),
    ("train", ["--set", "dataset.n=null"], cli.EXIT_OK, None),
    ("train", ["--set", "model.beta_span=[0.1]"], cli.EXIT_CONFIG, "beta_span"),
    ("train", ["--set", 'model.alpha_span=[0.1, "a"]'], cli.EXIT_CONFIG, "'model.alpha_span'"),
    ("train", ["--seed", "-1"], cli.EXIT_CONFIG, "'seed'"),
    ("train", ["--set", "dataset.seed=-3"], cli.EXIT_CONFIG, "'dataset.seed'"),
    ("impute", ["--set", "impute.mask_seed=-1"], cli.EXIT_CONFIG, "'impute.mask_seed'"),
    ("impute", ["--set", "impute.rates=[]"], cli.EXIT_CONFIG, "'impute.rates'"),
    ("generate", ["--set", "generate.n_samples=-1"], cli.EXIT_CONFIG, "'generate.n_samples'"),
    ("forecast", ["--set", "forecast.horizon=-1"], cli.EXIT_CONFIG, "horizon -1"),
    ("eval-density", ["--set", "eval_density.variant=foo"], cli.EXIT_CONFIG,
     "'eval_density.variant'"),
    ("eval-density", ["--set", "eval_density.n_samples=0"], cli.EXIT_CONFIG,
     "'eval_density.n_samples'"),
    ("train", ["--set", "train.lr_max=NaN"], cli.EXIT_CONFIG, "'train.lr_max'"),
    ("train", ["--set", "dataset.noise_std=NaN"], cli.EXIT_CONFIG, "'dataset.noise_std'"),
    ("train", ["--set", "model.sigma_x=Infinity"], cli.EXIT_CONFIG, "'model.sigma_x'"),
    ("train", ["--set", "model.beta_span=[0.1, NaN]"], cli.EXIT_CONFIG, "'model.beta_span'"),
    ("generate", ["--set", "generate.horizon=9"], cli.EXIT_CONFIG, "'generate.horizon'"),
])
def test_config_values_never_end_in_traceback(tiny_cfg, trained_run, tmp_path, task, extra,
                                              code, named):
    # null resolves to the DEFAULTS value (1000 epochs, d_z 32, 500 series).
    if task == "train":
        argv = ["train", *_TINY_TRAIN]
    else:
        argv = [task, "--config", tiny_cfg, "--checkpoint", trained_run / "checkpoint.alt"]
    src = str(Path(alternator.__file__).parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-m", "alternator.cli", *map(str, argv + extra), "--out", tmp_path / "o"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if named is not None:
        assert named in proc.stderr
