"""The benchmark's workloads: inputs, pinned configs, commands and output checks.

Every workload writes a config file that pins every field the command
reads, so an edit to ``cli.DEFAULTS`` or ``cli.PRESETS`` cannot change what
is measured. Input series are generated here from the workload seed and
handed to the CLI as CSV, so the program receives only the generated inputs.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

T = 50
RATES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
TRAIN_EPOCHS = 2          # per measured train command

# Every field of the config tree, spelled out rather than read from the CLI.
BASE_CONFIG = {
    "seed": 0,
    "out": None,
    "deterministic": False,
    "dataset": {
        "kind": "csv", "path": None, "n": None, "t": T, "noise_std": 0.05,
        "phi": 0.9, "x0": None, "seed": 0, "normalize": False,
        "norm_min": None, "norm_max": None,
    },
    "model": {
        "d_z": 8, "hidden_dim": 64, "depth": 2, "kind": "mlp", "activation": "tanh",
        "sigma_x": 0.3, "sigma_z": 0.15, "beta_span": [0.1, 1.0], "alpha_span": [0.1, 1.0],
        "dynamics": "noise_models", "init_seed": 0,
    },
    "train": {
        "epochs": TRAIN_EPOCHS, "batch_size": 100, "noise_weight": 0.1,
        "lr_max": 1e-3, "lr_min": 1e-5, "adam_beta1": 0.9, "adam_beta2": 0.999,
        "adam_eps": 1e-8, "noise_target_mode": "trajectory", "free_running": False,
    },
    "generate": {"n_samples": 500, "horizon": None},
    "encode": {"mean_propagation": False},
    "impute": {
        "rates": RATES, "n_samples": 1, "per_channel": False, "mask_seed": 0,
        "mean_propagation": False,
    },
    "forecast": {"horizon": 7, "members": 50, "context_length": None},
    "eval_density": {"n_samples": 500, "variant": "sequence"},
}

# Checkpoint regimes: (sigma_x, sigma_z); all use d_z=8, hidden 64, depth 2.
DENSITY_SIGMAS = (0.3, 0.15)
TASK_SIGMAS = (0.15, 0.15)
MODEL_INIT_SEED = 0
BASELINE_INIT_SEED = 1


def bimodal(n: int, seed: int) -> np.ndarray:
    """(n, T, 1) sign-flipped sine mixture plus 0.05 Gaussian noise."""
    rng = np.random.default_rng([seed, 1])
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    base = np.sin(2.0 * np.pi * np.arange(1, T + 1) / T)
    return (signs[:, None] * base + 0.05 * rng.standard_normal((n, T)))[:, :, None]


def ar1(n: int, seed: int, phi: float = 0.9, noise: float = 0.3) -> np.ndarray:
    """(n, T, 1) AR(1) series started from the stationary distribution."""
    rng = np.random.default_rng([seed, 2])
    x = np.empty((n, T))
    x[:, 0] = noise / math.sqrt(1.0 - phi * phi) * rng.standard_normal(n)
    for t in range(1, T):
        x[:, t] = phi * x[:, t - 1] + noise * rng.standard_normal(n)
    return x[:, :, None]


def write_csv(series: np.ndarray, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("series_id,t,v1\n")
        for i, row in enumerate(series[:, :, 0]):
            fh.writelines(f"s{i},{t},{v!r}\n" for t, v in enumerate(row.tolist()))


def write_checkpoint(path: Path, sigmas: tuple[float, float], init_seed: int) -> None:
    from alternator import core

    schedule = core.default_schedule(T, *sigmas)
    model = core.build_model(
        d_x=1, d_z=8, schedule=schedule, hidden_dim=64, depth=2, seed=init_seed)
    core.save_model(model, path)


class CheckError(Exception):
    """An output file is missing, malformed or not finite."""


def _jsonl(path: Path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckError(f"{what} is not a finite number: {value!r}")
    return float(value)


def _metric(records: list[dict], name: str, **match) -> float:
    hits = [r["value"] for r in records if r.get("metric") == name
            and all(r.get(k) == v for k, v in match.items())]
    if len(hits) != 1:
        raise CheckError(f"expected one {name} record {match or ''}, found {len(hits)}")
    return _finite(hits[0], name)


def _csv_values(path: Path) -> tuple[int, np.ndarray]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        ids = {r[0] for r in rows}
        values = np.array([float(r[2]) for r in rows])
    except (OSError, IndexError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise CheckError(f"{path.name} holds non-finite values")
    return len(ids), values


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.

    ``prepare(work_dir, seed, size)`` writes inputs and checkpoints and
    returns the CLI argv for a command over ``size`` series or samples;
    ``summarize(out_dir, size)`` checks the command's outputs and returns
    the values compared against the recorded references.
    """

    command: str              # CLI subcommand
    size: int                 # series or samples per measured command
    warmup_size: int          # the same, in the set-up warm-up command
    items: int                # work items per command
    item: str                 # what one item is
    named_metric: str         # throughput in items/s, or latency when the unit is "s"
    named_unit: str
    prepare: Callable[[Path, int, int], list[str]]
    summarize: Callable[[Path, int], dict]
    repeat: int = 1           # commands per round


@dataclass(frozen=True)
class Workload:
    """Rounds of CLI commands measured in a closed loop; a round runs each step in turn."""

    name: str
    why: str
    steps: tuple[Step, ...]


def _config(work: Path, seed: int, out: Path, **groups) -> Path:
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["seed"] = seed
    cfg["out"] = str(out)
    for group, values in groups.items():
        cfg[group].update(values)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _train_prepare(model: dict, train: dict):
    def prepare(work: Path, seed: int, n: int) -> list[str]:
        data = work / "train.csv"
        write_csv(bimodal(n, seed), data)
        cfg = _config(work, seed, work / "out", dataset={"path": str(data), "n": n},
                      model=model, train=train)
        return ["train", "--config", str(cfg)]
    return prepare


def _train_summarize(out: Path, size: int) -> dict:
    from alternator import core
    from alternator.errors import CheckpointError

    records = _jsonl(out / "loss_log.jsonl")
    if [r.get("epoch") for r in records] != list(range(1, TRAIN_EPOCHS + 1)):
        raise CheckError(f"loss_log.jsonl has epochs {[r.get('epoch') for r in records]}")
    for r in records:
        for key in ("lr", "total", "alt_z", "alt_x", "nm_z", "nm_x"):
            _finite(r.get(key), f"epoch {r['epoch']} {key}")
    try:
        core.load_model(out / "checkpoint.alt")
    except (OSError, CheckpointError) as exc:
        raise CheckError(f"checkpoint does not reload: {exc}") from None
    return {"total": records[-1]["total"]}


def _impute_prepare(work: Path, seed: int, n: int) -> list[str]:
    data = work / "series.csv"
    write_csv(bimodal(n, seed), data)
    ckpt = work / "model.alt"
    write_checkpoint(ckpt, TASK_SIGMAS, MODEL_INIT_SEED)
    cfg = _config(work, seed, work / "out", dataset={"path": str(data), "n": n},
                  impute={"mask_seed": seed + 1})
    return ["impute", "--config", str(cfg), "--checkpoint", str(ckpt)]


def _impute_summarize(out: Path, size: int) -> dict:
    records = _jsonl(out / "impute_metrics.jsonl")
    mse = [_metric(records, "model_mse", rate=r) for r in RATES]
    for r in RATES:
        _metric(records, "baseline_mse", rate=r)
    n_ids, _ = _csv_values(out / "imputed.csv")
    if n_ids != size * len(RATES):
        raise CheckError(f"imputed.csv holds {n_ids} series, expected {size * len(RATES)}")
    return {"model_mse": mse}


def _forecast_prepare(work: Path, seed: int, n: int) -> list[str]:
    data = work / "series.csv"
    write_csv(ar1(n, seed), data)
    ckpt = work / "model.alt"
    write_checkpoint(ckpt, TASK_SIGMAS, MODEL_INIT_SEED)
    cfg = _config(work, seed, work / "out", dataset={"path": str(data), "n": n})
    return ["forecast", "--config", str(cfg), "--checkpoint", str(ckpt)]


def _forecast_summarize(out: Path, size: int) -> dict:
    records = _jsonl(out / "forecast_metrics.jsonl")
    crps = _metric(records, "crps_avg")
    _metric(records, "baseline_crps_avg")
    n_ids, _ = _csv_values(out / "ensemble.csv")
    if n_ids != size * BASE_CONFIG["forecast"]["members"]:
        raise CheckError(f"ensemble.csv holds {n_ids} members")
    return {"crps_avg": crps}


def _generate_prepare(work: Path, seed: int, n: int) -> list[str]:
    ckpt = work / "model.alt"
    write_checkpoint(ckpt, DENSITY_SIGMAS, MODEL_INIT_SEED)
    cfg = _config(work, seed, work / "out", generate={"n_samples": n})
    return ["generate", "--config", str(cfg), "--checkpoint", str(ckpt)]


def _generate_summarize(out: Path, size: int) -> dict:
    n_ids, v = _csv_values(out / "samples.csv")
    if n_ids != size or v.size != size * T:
        raise CheckError(f"samples.csv holds {n_ids} series and {v.size} values")
    return {"mean": float(v.mean()), "std": float(v.std()),
            "min": float(v.min()), "max": float(v.max())}


def _eval_prepare(work: Path, seed: int, n: int) -> list[str]:
    data = work / "series.csv"
    write_csv(bimodal(n, seed), data)
    ckpt, base = work / "model.alt", work / "baseline.alt"
    write_checkpoint(ckpt, DENSITY_SIGMAS, MODEL_INIT_SEED)
    write_checkpoint(base, DENSITY_SIGMAS, BASELINE_INIT_SEED)
    cfg = _config(work, seed, work / "out", dataset={"path": str(data), "n": n},
                  eval_density={"n_samples": n})
    return ["eval-density", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--baseline-checkpoint", str(base)]


def _eval_summarize(out: Path, size: int) -> dict:
    records = _jsonl(out / "density_metrics.jsonl")
    values = {k: _metric(records, k) for k in ("mmd", "mmd_baseline", "mmd_ratio")}
    if values["mmd"] < 0 or values["mmd_baseline"] <= 0:
        raise CheckError(f"MMD values out of range: {values}")
    return {"mmd": values["mmd"], "mmd_baseline": values["mmd_baseline"]}


_DENSITY_MODEL = {"d_z": 8, "sigma_x": 0.3, "sigma_z": 0.15}
_DENSITY_TRAIN = {"batch_size": 100, "lr_max": 1e-3, "lr_min": 1e-5}
_IMPUTATION_MODEL = {"d_z": 64, "sigma_x": 0.15, "sigma_z": 0.15}
_IMPUTATION_TRAIN = {"batch_size": 32, "lr_max": 5e-4, "lr_min": 5e-6}
TRAIN_SERIES = 500
TASK_SERIES = 10


def _train_step(model: dict, train: dict) -> Step:
    return Step(
        "train", size=TRAIN_SERIES, warmup_size=train["batch_size"],
        items=TRAIN_SERIES * TRAIN_EPOCHS, item="sequence-epoch",
        named_metric="train_seq_per_s", named_unit="seq/s",
        prepare=_train_prepare(model, train), summarize=_train_summarize,
    )


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-density",
        "density regime (d_z 8, batch 100): matmul and tape size dominate",
        (_train_step(_DENSITY_MODEL, _DENSITY_TRAIN),),
    ),
    Workload(
        "train-imputation",
        "imputation regime (d_z 64, batch 32): fixed cost per optimizer step dominates",
        (_train_step(_IMPUTATION_MODEL, _IMPUTATION_TRAIN),),
    ),
    Workload(
        "downstream",
        "impute, forecast, generate, eval-density on untrained checkpoints: no tape",
        (
            Step("impute", size=TASK_SERIES, warmup_size=2, items=TASK_SERIES * len(RATES),
                 item="series-rate", named_metric="impute_series_per_s",
                 named_unit="series*rate/s",
                 prepare=_impute_prepare, summarize=_impute_summarize),
            Step("forecast", size=TASK_SERIES, warmup_size=2, items=TASK_SERIES, item="series",
                 named_metric="forecast_series_per_s", named_unit="series/s",
                 prepare=_forecast_prepare, summarize=_forecast_summarize),
            Step("generate", size=500, warmup_size=2, items=500, item="sequence",
                 named_metric="generate_seq_per_s", named_unit="seq/s",
                 prepare=_generate_prepare, summarize=_generate_summarize, repeat=3),
            Step("eval-density", size=500, warmup_size=20, items=1, item="evaluation",
                 named_metric="eval_density_s", named_unit="s",
                 prepare=_eval_prepare, summarize=_eval_summarize),
        ),
    ),
)}
