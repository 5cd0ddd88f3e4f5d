"""End-to-end CLI runs: resolution, artifacts, determinism, exit codes."""

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model

import alternator
from alternator import cli, core, data, metrics, training
from alternator.core import load_model, spawn_seed
from alternator.data import load_csv
from alternator.errors import ShapeError


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


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _bench_workloads(monkeypatch):
    """bench/workloads.py, loaded by path; nothing under bench/ is written."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("task", cli.TASKS)
def test_benchmark_config_resolves_for_every_task(tmp_path, monkeypatch, task):
    # bench/workloads.py pins every config key it runs with; a removed or renamed key
    # would make each benchmark run exit 2, so it fails here first
    workloads = _bench_workloads(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.BASE_CONFIG), encoding="utf-8")
    resolved = dict(_leaves(_resolve(task=task, config=config)))
    for name, value in _leaves(workloads.BASE_CONFIG):
        if value is not None:       # a null leaf takes its default
            assert resolved[name] == value, name


def test_benchmark_train_config_runs_end_to_end(tmp_path, monkeypatch):
    # a pinned key that resolves but that run_train then mishandles (one
    # passed on to TrainConfig, say) fails here rather than in every benchmark run
    workloads = _bench_workloads(monkeypatch)
    cfg = json.loads(json.dumps(workloads.BASE_CONFIG))
    cfg["train"]["epochs"] = 1
    cfg["dataset"]["path"] = str(tmp_path / "series.csv")
    workloads.write_csv(workloads.bimodal(4, seed=0), tmp_path / "series.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_cli("train", "--config", config, "--out", tmp_path / "run") == cli.EXIT_OK
    assert load_model(tmp_path / "run" / "checkpoint.alt").schedule.T == workloads.T


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


_TRAIN_DEFAULTS = {
    "epochs": 1000, "batch_size": 100, "noise_weight": 0.1, "lr_max": 1e-3, "lr_min": 1e-5,
    "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8,
}
# config-only keys: each takes its one value, and TrainConfig has no field for it
_TRAIN_CONFIG_ONLY = {"noise_target_mode": "trajectory", "free_running": False}


def test_train_defaults_are_pinned_and_shared_with_train_config():
    # compared as JSON, so the resolved config.json keeps its bytes
    resolved = _resolve()["train"]
    assert json.dumps(resolved, sort_keys=True) == json.dumps(
        {**_TRAIN_DEFAULTS, **_TRAIN_CONFIG_ONLY}, sort_keys=True)
    fields = dataclasses.asdict(training.TrainConfig())
    assert fields.pop("seed") == 0
    assert json.dumps(fields, sort_keys=True) == json.dumps(
        {k: v for k, v in resolved.items() if k not in _TRAIN_CONFIG_ONLY}, sort_keys=True)


def test_sigma_out_of_range_is_config_error(tmp_path, capsys):
    code = run_cli("train", "--set", "dataset.kind=bimodal", "--set", "model.sigma_x=1.5",
                   "--out", tmp_path / "x")
    assert code == cli.EXIT_CONFIG
    assert "'model.sigma_x' must be in (0, 1)" in capsys.readouterr().err


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


def test_generate_without_mallopt_writes_the_same_bytes(trained_run, tmp_path, monkeypatch):
    argv = ["generate", "--checkpoint", trained_run / "checkpoint.alt", "--seed", 3,
            "--set", "generate.n_samples=5"]
    assert run_cli(*argv, "--out", tmp_path / "glibc") == 0
    opened = []

    class NoMallopt:                  # a C library without mallopt, as outside glibc
        def __init__(self, name):
            opened.append(name)

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    assert run_cli(*argv, "--out", tmp_path / "bare") == 0
    assert opened == [None]
    samples = [(tmp_path / d / "samples.csv").read_bytes() for d in ("glibc", "bare")]
    assert samples[0] == samples[1]


def test_import_leaves_the_allocator_alone():
    code = ("import ctypes\n"
            "opened = []\n"
            "ctypes.CDLL = lambda *a, **k: opened.append(a)\n"
            "import alternator, alternator.cli\n"
            "assert opened == [], opened\n")
    env = {**os.environ, "PYTHONPATH": str(Path(alternator.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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


@pytest.mark.parametrize("task, extra", [
    ("train", ["--set", "train.epochs=0"]),
    ("train", ["--set", "model.depth=0"]),
    ("forecast", ["--set", "forecast.horizon=8"]),
    ("forecast", ["--set", "forecast.members=0"]),
    ("impute", ["--set", "impute.n_samples=0"]),
    ("impute", ["--set", "impute.rates=[1.5]"]),
    ("impute", ["--set", "dataset.t=9"]),        # longer than the checkpoint's schedule
    ("encode", ["--set", "dataset.t=9"]),
    ("eval-density", ["--set", "dataset.t=9"]),
    ("train", ["--set", "model.beta_span=[0.1, 1.5]"]),
    ("train", ["--set", "model.alpha_span=[0.1, 1.5]"]),
    ("train", ["--set", "dataset.normalize=true", "--set", "dataset.norm_min=[-5.0]"]),
    ("impute", ["--set", "dataset.normalize=true", "--set", "dataset.norm_max=[5.0]"]),
])
def test_rejected_run_writes_nothing(tiny_cfg, trained_run, tmp_path, task, extra):
    out = tmp_path / "rejected"
    ckpt = [] if task == "train" else ["--checkpoint", trained_run / "checkpoint.alt"]
    code = run_cli(task, "--config", tiny_cfg, *ckpt, "--out", out, *extra)
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("expr", ["task=generate", "task=train", "task=null"])
def test_set_task_is_config_error(tiny_cfg, tmp_path, capsys, expr):
    # the subcommand owns the task, as it does when a --config file names one
    out = tmp_path / "rejected"
    out.mkdir()
    code = run_cli("train", "--config", tiny_cfg, "--out", out, "--set", expr)
    assert code == cli.EXIT_CONFIG
    assert list(out.iterdir()) == []
    assert "'task'" in capsys.readouterr().err


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


def _strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict parsers do."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_eval_density_zero_baseline_mmd_writes_a_null_ratio(trained_run, tmp_path):
    # the data are the samples eval-density draws from the baseline, so its
    # MMD is exactly 0.0 and the ratio has no value
    ckpt = trained_run / "checkpoint.alt"
    gen_out = tmp_path / "gen"
    assert run_cli("generate", "--checkpoint", ckpt, "--out", gen_out,
                   "--seed", spawn_seed(11, 0), "--set", "generate.n_samples=6") == 0
    out = tmp_path / "ev"
    assert run_cli("eval-density", "--checkpoint", ckpt, "--baseline-checkpoint", ckpt,
                   "--out", out, "--seed", 11, "--set", "dataset.kind=csv",
                   "--set", f"dataset.path={gen_out / 'samples.csv'}",
                   "--set", "eval_density.n_samples=6") == cli.EXIT_OK
    lines = (out / "density_metrics.jsonl").read_text(encoding="utf-8").splitlines()
    records = {r["metric"]: r for r in map(_strict_loads, lines)}
    assert records["mmd_baseline"]["value"] == 0.0
    assert records["mmd_ratio"]["value"] is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_metric_is_a_numeric_abort_without_a_metric_file(
        tiny_cfg, trained_run, tmp_path, monkeypatch, capsys, bad):
    monkeypatch.setattr(metrics, "sequence_mmd", lambda *args: bad)
    out = tmp_path / "ev"
    assert run_cli("eval-density", "--config", tiny_cfg, "--out", out,
                   "--checkpoint", trained_run / "checkpoint.alt",
                   "--set", "eval_density.n_samples=4") == cli.EXIT_NUMERIC
    assert "metric 'mmd' is not finite" in capsys.readouterr().err
    assert not (out / "density_metrics.jsonl").exists()
    with pytest.raises(ValueError, match="non-standard JSON token"):
        _strict_loads(json.dumps({"value": bad}))  # what a record of it would hold


# --- exit codes ---------------------------------------------------------------

def test_eval_density_checks_baseline_before_writing(tiny_cfg, trained_run, tmp_path, capsys):
    baseline = tmp_path / "two_channel.alt"
    core.save_model(make_model(d_x=2, d_z=2, T=8), baseline)
    out = tmp_path / "ev"
    code = run_cli("eval-density", "--config", tiny_cfg, "--checkpoint",
                   trained_run / "checkpoint.alt", "--baseline-checkpoint", baseline,
                   "--out", out, "--set", "eval_density.n_samples=4")
    assert code == cli.EXIT_CONFIG
    assert "a checkpoint has 2" in capsys.readouterr().err
    assert not out.exists()


def test_shape_error_exits_with_config_code(trained_run, tmp_path, capsys, monkeypatch):
    def mismatched(*args, **kwargs):
        raise ShapeError("incompatible shapes")

    monkeypatch.setattr(core, "generate_batch", mismatched)
    code = run_cli("generate", "--checkpoint", trained_run / "checkpoint.alt",
                   "--out", tmp_path / "gen")
    assert code == cli.EXIT_CONFIG
    assert "shape error: incompatible shapes" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b"[" * 50_000,
    b'{"dataset": {"x0": ' + b"[" * 600 + b"]" * 600 + b"}}",  # the merge copies it recursively
], ids=["not-utf8", "json-recursion", "merge-recursion"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    code = run_cli("train", "--config", path, "--set", "dataset.kind=bimodal",
                   "--out", tmp_path / "o")
    assert code == cli.EXIT_CONFIG
    assert f"config file {path}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_set_value_too_deep_for_json_is_a_string():
    assert cli._parse_set("dataset.path=" + "[" * 50_000) == (["dataset", "path"], "[" * 50_000)


@pytest.mark.parametrize("content, named", [
    (b"series_id,t,v1\nA,0,1.0\n\xff,1,2.0\n", "not UTF-8 text"),
    (b'series_id,t,v1\nA,0,1.0\nA,1,"' + b"x" * 200_000 + b'"\n',
     "line 3: field larger than field limit"),
], ids=["not-utf8", "field-limit"])
def test_unreadable_csv_is_io_error(tmp_path, capsys, content, named):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    code = run_cli("train", "--set", "dataset.kind=csv", "--set", f"dataset.path={path}",
                   "--out", tmp_path / "o")
    assert code == cli.EXIT_IO
    assert f"{path}: {named}" in capsys.readouterr().err


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


_NORM_TWO_CHANNELS = ["--set", "dataset.normalize=true", "--set", "dataset.norm_min=[0.0, 0.0]",
                      "--set", "dataset.norm_max=[1.0, 1.0]"]
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
    ("forecast", ["--set", "forecast.horizon=-1"], cli.EXIT_CONFIG, "'forecast.horizon'"),
    ("eval-density", ["--set", "eval_density.variant=foo"], cli.EXIT_CONFIG,
     "'eval_density.variant'"),
    ("eval-density", ["--set", "eval_density.n_samples=0"], cli.EXIT_CONFIG,
     "'eval_density.n_samples'"),
    ("train", ["--set", "train.lr_max=NaN"], cli.EXIT_CONFIG, "'train.lr_max'"),
    ("train", ["--set", "dataset.noise_std=NaN"], cli.EXIT_CONFIG, "'dataset.noise_std'"),
    ("train", ["--set", "model.sigma_x=Infinity"], cli.EXIT_CONFIG, "'model.sigma_x'"),
    ("train", ["--set", "model.beta_span=[0.1, NaN]"], cli.EXIT_CONFIG, "'model.beta_span'"),
    ("generate", ["--set", "generate.horizon=9"], cli.EXIT_CONFIG, "'generate.horizon'"),
    # fields whose default is null: null is accepted, other values are type-checked
    ("generate", ["--set", "generate.horizon=null"], cli.EXIT_OK, None),
    ("generate", ["--set", 'generate.horizon="abc"'], cli.EXIT_CONFIG, "'generate.horizon'"),
    ("generate", ["--set", "generate.horizon=0"], cli.EXIT_CONFIG, "'generate.horizon'"),
    ("forecast", ["--set", "forecast.context_length=2.5"], cli.EXIT_CONFIG,
     "'forecast.context_length'"),
    ("forecast", ["--set", "forecast.context_length=0"], cli.EXIT_CONFIG,
     "'forecast.context_length'"),
    ("train", ["--set", "dataset.x0=NaN"], cli.EXIT_CONFIG, "'dataset.x0'"),
    ("train", ["--set", "dataset.path=5"], cli.EXIT_CONFIG, "'dataset.path'"),
    ("train", ["--set", "dataset.norm_min=[0.0, NaN]"], cli.EXIT_CONFIG, "'dataset.norm_min'"),
    ("train", ["--set", 'dataset.norm_max="a"'], cli.EXIT_CONFIG, "'dataset.norm_max'"),
    # numeric ranges, norm records of the wrong length, and task inputs
    ("train", ["--set", "train.lr_max=-1", "--set", "train.lr_min=-2"], cli.EXIT_CONFIG,
     "'train.lr_max'"),
    ("train", ["--set", "train.lr_min=0"], cli.EXIT_CONFIG, "'train.lr_min'"),
    ("train", ["--set", "train.adam_eps=0"], cli.EXIT_CONFIG, "'train.adam_eps'"),
    ("train", ["--set", "dataset.noise_std=-1"], cli.EXIT_CONFIG, "'dataset.noise_std'"),
    ("train", ["--set", "dataset.noise_std=0"], cli.EXIT_OK, None),
    ("train", _NORM_TWO_CHANNELS, cli.EXIT_CONFIG, "'dataset.norm_min'"),
    ("impute", _NORM_TWO_CHANNELS, cli.EXIT_CONFIG, "'dataset.norm_min'"),
    ("forecast", _NORM_TWO_CHANNELS, cli.EXIT_CONFIG, "'dataset.norm_min'"),
    ("impute", ["--set", "impute.n_samples=0"], cli.EXIT_CONFIG, "'impute.n_samples'"),
    ("impute", ["--set", "impute.rates=[0.5, 1.5]"], cli.EXIT_CONFIG, "'impute.rates'"),
    ("forecast", ["--set", "forecast.members=0"], cli.EXIT_CONFIG, "'forecast.members'"),
    # half a norm record names the missing half
    ("train", ["--set", "dataset.normalize=true", "--set", "dataset.norm_min=[-5.0]"],
     cli.EXIT_CONFIG, "'dataset.norm_max'"),
    ("train", ["--set", "dataset.normalize=true", "--set", "dataset.norm_max=[5.0]"],
     cli.EXIT_CONFIG, "'dataset.norm_min'"),
    ("forecast", ["--set", "dataset.normalize=true", "--set", "dataset.norm_min=[-5.0]"],
     cli.EXIT_CONFIG, "'dataset.norm_max'"),
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


@pytest.mark.parametrize("task, key, value", [
    ("generate", "generate.n_samples", "0"),
    ("impute", "impute.rates", "[]"),
    ("eval-density", "eval_density.variant", "foo"),
    ("forecast", "forecast.horizon", "0"),
    ("train", "train.epochs", "0"),
    ("train", "train.batch_size", "0"),
    ("train", "model.d_z", "0"),
    ("train", "model.hidden_dim", "0"),
    ("train", "model.depth", "0"),
    ("train", "model.sigma_x", "1.0"),
    ("train", "model.sigma_z", "0.0"),
    ("train", "model.kind", "self_attention"),
    ("train", "train.free_running", "true"),
    ("train", "train.noise_target_mode", "literal"),
])
def test_config_checks_run_before_any_file_is_read(tmp_path, capsys, task, key, value):
    checkpoint = [] if task == "train" else ["--checkpoint", tmp_path / "missing.alt"]
    code = run_cli(task, *checkpoint, "--out", tmp_path / "o",
                   "--set", "dataset.kind=csv", "--set", f"dataset.path={tmp_path / 'no.csv'}",
                   "--set", f"{key}={value}")
    assert code == cli.EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_checks_its_train_config_before_reading_the_dataset(tmp_path, capsys):
    code = run_cli("train", "--out", tmp_path / "o", "--set", "dataset.kind=csv",
                   "--set", f"dataset.path={tmp_path / 'no.csv'}", "--set", "train.epochs=0")
    assert code == cli.EXIT_CONFIG
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("model.kind", "foo"), ("model.activation", "relu"), ("model.dynamics", "foo"),
])
def test_train_checks_model_values_before_reading_the_dataset(tmp_path, capsys, key, value):
    code = run_cli("train", "--out", tmp_path / "o", "--set", "dataset.kind=csv",
                   "--set", f"dataset.path={tmp_path / 'no.csv'}", "--set", f"{key}={value}")
    assert code == cli.EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_latent_recursion_overflow_is_numeric_abort(tmp_path, monkeypatch, capsys):
    build = cli.build_model_from_config

    def with_huge_weight(cfg, d_x, T):
        model = build(cfg, d_x, T)
        # the weight on x_t in lat_noise_net's first layer; every x_t is 5
        model.lat_noise_net.params["layer0.weight"].data[model.d_z, 0] = 1e308
        return model

    monkeypatch.setattr(cli, "build_model_from_config", with_huge_weight)
    path = tmp_path / "fives.csv"
    data.save_csv(data.SeriesDataset(np.full((2, 3, 1), 5.0)), path)
    code = run_cli("train", *_TINY_TRAIN, "--set", "dataset.kind=csv",
                   "--set", f"dataset.path={path}", "--out", tmp_path / "o")
    assert code == cli.EXIT_NUMERIC
    assert "t=1: lat_noise_net layer 0" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["sequence", "marginal"])
def test_eval_density_looks_up_the_metric_it_names_when_it_runs(tiny_cfg, trained_run, tmp_path,
                                                                 monkeypatch, variant):
    # a wrapper put on the metrics function after import, as a tracer does, sees the call
    fn = getattr(metrics, f"{variant}_mmd")
    calls = []
    monkeypatch.setattr(metrics, f"{variant}_mmd",
                        lambda *args: calls.append(variant) or fn(*args))
    assert run_cli("eval-density", "--config", tiny_cfg, "--out", tmp_path / "e",
                   "--checkpoint", trained_run / "checkpoint.alt",
                   "--set", f"eval_density.variant={variant}",
                   "--set", "eval_density.n_samples=4") == cli.EXIT_OK
    assert calls == [variant]


def test_normalized_ar1_run_records_its_norm_and_impute_reuses_it(tmp_path):
    train_out = tmp_path / "train"
    assert run_cli("train", "--out", train_out, "--set", "dataset.kind=ar1",
                   "--set", "dataset.n=4", "--set", "dataset.t=5",
                   "--set", "dataset.normalize=true", "--set", "train.epochs=1",
                   "--set", "model.d_z=2", "--set", "model.hidden_dim=4") == cli.EXIT_OK
    cfg = json.loads((train_out / "config.json").read_text(encoding="utf-8"))
    d = cfg["dataset"]
    series = data.synth_ar1(4, 5, d["phi"], d["noise_std"], d["seed"]).data
    assert d["norm_min"] == series.min(axis=(0, 1)).tolist()
    assert d["norm_max"] == series.max(axis=(0, 1)).tolist()
    impute_out = tmp_path / "impute"
    assert run_cli("impute", "--config", train_out / "config.json",
                   "--checkpoint", train_out / "checkpoint.alt", "--out", impute_out) == 0
    reused = json.loads((impute_out / "config.json").read_text(encoding="utf-8"))["dataset"]
    assert (reused["norm_min"], reused["norm_max"]) == (d["norm_min"], d["norm_max"])


def _fail_csv(monkeypatch, path):
    def replace_fails(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(data.os, "replace", replace_fails)  # after every row is written
    data.save_csv(data.SeriesDataset(np.ones((2, 3, 1))), path)


def _fail_checkpoint(monkeypatch, path):
    def crc_fails(payload):
        raise OSError("disk full")

    monkeypatch.setattr(core.zlib, "crc32", crc_fails)  # after magic and payload are written
    core.save_model(make_model(), path)


def _fail_metrics(monkeypatch, path):
    writer = cli.MetricWriter(path, "impute", 0)
    writer.add("model_mse", 1.0)
    writer.add("model_mae", 2.0, bad=object())  # not JSON serializable
    writer.flush()


def _fail_config(monkeypatch, path):
    cli._write_config({"a": 1, "b": object()}, path.parent)


@pytest.mark.parametrize("name, fail", [
    ("data.csv", _fail_csv), ("model.alt", _fail_checkpoint),
    ("metrics.jsonl", _fail_metrics), ("config.json", _fail_config),
])
def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch, name, fail):
    path = tmp_path / name
    path.write_bytes(b"previous contents\n")
    with pytest.raises((OSError, TypeError)):
        fail(monkeypatch, path)
    assert path.read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


# Every size field is set here to a few units; the drawn values below are
# at most 1 in size, so every run stays tiny.
_EDGE_BASE = {
    "dataset.kind": "bimodal", "dataset.n": 3, "dataset.t": 4, "model.d_z": 2,
    "model.hidden_dim": 2, "model.depth": 1, "train.epochs": 1, "train.batch_size": 2,
    "generate.n_samples": 2, "generate.horizon": 2, "impute.rates": [0.5],
    "forecast.horizon": 1, "forecast.members": 2, "eval_density.n_samples": 3,
}


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


def _edge_values(name, default):
    like = cli._NULLABLE.get(name, default)
    elem = like[0] if isinstance(like, list) and like else 0.5
    wrong_type = 1 if isinstance(like, str) else "x"
    return st.sampled_from([0, -1, float("nan"), wrong_type, [], [elem], [elem] * 3])


_EDGE_SETS = st.one_of(*[st.tuples(st.just(name), _edge_values(name, default))
                         for name, default in _leaves(cli.DEFAULTS)])


@pytest.fixture(scope="module")
def edge_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("edge")
    sets = [a for k, v in _EDGE_BASE.items() for a in ("--set", f"{k}={json.dumps(v)}")]
    assert run_cli("train", *sets, "--out", out) == cli.EXIT_OK
    return out / "checkpoint.alt", sets


@settings(max_examples=300, deadline=None)
@given(task=st.sampled_from(cli.TASKS), edges=st.lists(_EDGE_SETS, min_size=1, max_size=2))
def test_edge_values_exit_cleanly(edge_checkpoint, tmp_path_factory, task, edges):
    checkpoint, sets = edge_checkpoint
    out = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())) / "o"
    argv = [task, *sets, "--out", out]
    if task != "train":
        argv += ["--checkpoint", checkpoint]
    for name, value in edges:
        argv += ["--set", f"{name}={json.dumps(value)}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(*argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_IO)
    if code == cli.EXIT_CONFIG:
        assert not out.exists() or not any(out.iterdir())
