"""Experiment runner: reproducible train/generate/encode/impute/forecast/eval runs.

Every run resolves its configuration (flags > config file > preset >
defaults), checks it, writes the resolved tree verbatim next to its outputs,
and emits machine-readable artifacts only: JSONL metric/loss records and
long-format CSV dumps. A run rejected by a check writes nothing, not even
its output directory. The encode, impute and forecast sweeps pass the whole
dataset (for impute, every rate x series row) to one task call, which runs
it as one batch. Exit codes are stable: 0 success, 2 config or shape
error, 3 numeric abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import core, data, metrics, networks, tasks, training
from .errors import CheckpointError, ConfigError, DataError, NumericError, ShapeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

TASKS = ("train", "generate", "encode", "impute", "forecast", "eval-density")

DEFAULTS: dict = {
    "task": None,
    "seed": 0,
    "out": "runs/out",
    "deterministic": False,
    "dataset": {
        "kind": None,            # bimodal | ar1 | csv (required)
        "path": None,            # csv only
        "n": 500,
        "t": 50,
        "noise_std": 0.05,
        "phi": 0.9,
        "x0": None,
        "seed": 1234,
        "normalize": False,
        "norm_min": None,
        "norm_max": None,
    },
    "model": {
        "d_z": 32,
        "hidden_dim": 64,
        "depth": 2,
        "kind": "mlp",           # the only kind; kept so saved configs load
        "activation": "tanh",
        "sigma_x": 0.3,
        "sigma_z": 0.15,
        "beta_span": [0.1, 1.0],
        "alpha_span": [0.1, 1.0],
        "dynamics": "noise_models",
        "init_seed": 0,
    },
    # The TrainConfig defaults; its seed is the run's top-level seed. The two
    # other keys name the one training objective; kept so saved configs load.
    "train": {**{f.name: f.default for f in dataclasses.fields(training.TrainConfig)
                 if f.name != "seed"},
              "noise_target_mode": "trajectory", "free_running": False},
    "generate": {"n_samples": 100, "horizon": None},
    "encode": {"mean_propagation": False},
    "impute": {
        "rates": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "n_samples": 1,
        "per_channel": False,
        "mask_seed": 99,
        "mean_propagation": False,
    },
    "forecast": {"horizon": 7, "members": 50, "context_length": None},
    "eval_density": {"n_samples": 500, "variant": "sequence"},
}

# Hyperparameter bundles for the two benchmark regimes; density is the
# package default, imputation narrows the noise scales and batch.
PRESETS: dict[str, dict] = {
    "density": {},
    "imputation": {
        "model": {"d_z": 64, "sigma_x": 0.15, "sigma_z": 0.15},
        "train": {"epochs": 800, "batch_size": 32, "lr_max": 5e-4, "lr_min": 5e-6},
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_set(expr: str) -> tuple[list[str], object]:
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except (json.JSONDecodeError, RecursionError):
        value = raw
    return key.split("."), value


def _apply_set(cfg: dict, path: list[str], value) -> None:
    node = cfg
    for part in path[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config group {'.'.join(path[:-1])!r}")
        node = node[part]
    if path[-1] not in node:
        raise ConfigError(f"unknown config key {'.'.join(path)!r}")
    node[path[-1]] = value


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- preset <- config file <- command-line overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        cfg = _deep_merge(cfg, PRESETS[args.preset])
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ConfigError(f"config file {args.config}: expected a JSON object")
            file_cfg.pop("task", None)  # the subcommand owns the task
            if isinstance(file_cfg.get("model"), dict):
                file_cfg["model"].pop("d_x", None)  # train records it; the dataset sets it
            cfg = _deep_merge(cfg, file_cfg)  # recurses into each value as it copies it
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config file {args.config}: not readable as JSON ({exc})") from exc
    cfg["task"] = args.task
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if args.deterministic:
        cfg["deterministic"] = True
    for expr in args.set or []:
        path, value = _parse_set(expr)
        if path[0] == "task":
            raise ConfigError(f"--set {expr!r}: 'task' is set by the subcommand, not by --set")
        _apply_set(cfg, path, value)
    _check_types(cfg, DEFAULTS)
    return cfg


# Fields whose default is None: null stays null, any other value must be
# like this sample. The step counts must also be >= 1.
_NULLABLE = {
    "dataset.path": "",
    "dataset.x0": 0.0,
    "dataset.norm_min": [0.0],
    "dataset.norm_max": [0.0],
    "generate.horizon": 1,
    "forecast.context_length": 1,
}
# eval_density.variant v runs metrics.<v>_mmd, looked up when the run calls it, so that
# a wrapper put on the metrics module's function (the benchmark's tracer) sees the call.
_MMD_VARIANTS = ("marginal", "sequence")
# The bounds a value can be checked against before any file is read:
# name -> (test, what the value must be). A null nullable field is not tested.
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: v > 0, "> 0")
_OPEN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")


def _one_of(values: tuple) -> tuple:
    return (lambda v: v in values, f"one of {list(values)}")


_BOUNDS = {
    "model.d_z": _AT_LEAST_ONE,
    "model.hidden_dim": _AT_LEAST_ONE,
    "model.depth": _AT_LEAST_ONE,
    "model.kind": _one_of(("mlp",)),
    "model.activation": _one_of(networks.ACTIVATIONS),
    "model.dynamics": _one_of(core.DYNAMICS),
    "model.sigma_x": _OPEN_UNIT,
    "model.sigma_z": _OPEN_UNIT,
    "dataset.noise_std": (lambda v: v >= 0, ">= 0"),
    "train.epochs": _AT_LEAST_ONE,
    "train.batch_size": _AT_LEAST_ONE,
    "train.lr_max": _POSITIVE,
    "train.lr_min": _POSITIVE,
    "train.adam_eps": _POSITIVE,
    "train.noise_target_mode": _one_of(("trajectory",)),
    "train.free_running": _one_of((False,)),
    "generate.n_samples": _AT_LEAST_ONE,
    "generate.horizon": _AT_LEAST_ONE,
    "impute.rates": (lambda v: v and all(0 <= r <= 1 for r in v),
                     "a non-empty list of rates in [0, 1]"),
    "impute.n_samples": _AT_LEAST_ONE,
    "forecast.horizon": _AT_LEAST_ONE,
    "forecast.members": _AT_LEAST_ONE,
    "forecast.context_length": _AT_LEAST_ONE,
    "eval_density.variant": _one_of(_MMD_VARIANTS),
    "eval_density.n_samples": _AT_LEAST_ONE,
}


def _check_types(cfg: dict, defaults: dict, prefix: str = "") -> None:
    """Reject keys missing from DEFAULTS and leaves unlike their default.

    None means unset: a null leaf takes its DEFAULTS value, or stays null
    where that is None. bool stays bool, an int field takes only int, a
    float field also takes int but not NaN or infinity, list elements follow
    the default's elements, seeds are non-negative, the fields named in
    ``_BOUNDS`` must pass its test, and a field whose default is None is
    checked against its ``_NULLABLE`` sample.
    """
    for key, value in cfg.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        if default is None:
            if value is None or name not in _NULLABLE:
                continue
            default = _NULLABLE[name]
        or_null = " or null" if name in _NULLABLE else ""
        if isinstance(default, dict) and isinstance(value, dict):
            _check_types(value, default, name + ".")
        elif value is None and not isinstance(default, dict):
            cfg[key] = copy.deepcopy(default)
        elif not _like(value, default):
            elem = default[0] if isinstance(default, list) else default
            kind = "finite float" if type(elem) is float else type(elem).__name__
            if isinstance(default, list):
                kind = f"list of {kind}"
            raise ConfigError(f"config key {name!r} must be {kind}{or_null}, got {value!r}")
        elif (key == "seed" or key.endswith("_seed")) and value < 0:
            raise ConfigError(f"config key {name!r} must be a non-negative seed, got {value}")
        elif name in _BOUNDS and not _BOUNDS[name][0](value):
            raise ConfigError(f"config key {name!r} must be {_BOUNDS[name][1]}{or_null}, "
                              f"got {value!r}")


def _like(value, default) -> bool:
    if isinstance(default, list):
        return isinstance(value, list) and all(_like(v, default[0]) for v in value)
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if type(default) is float:  # JSON's NaN and Infinity are floats too
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, type(default))


def resolve_dataset(cfg: dict) -> data.SeriesDataset:
    """Build the dataset and fill normalization records into the config."""
    d = cfg["dataset"]
    kind = d["kind"]
    if kind is None:
        raise ConfigError("dataset.kind is required (bimodal | ar1 | csv)")
    if kind == "bimodal":
        ds = data.synth_bimodal(d["n"], d["t"], d["noise_std"], d["seed"])
    elif kind == "ar1":
        ds = data.synth_ar1(d["n"], d["t"], d["phi"], d["noise_std"], d["seed"], x0=d["x0"])
    elif kind == "csv":
        if not d["path"]:
            raise ConfigError("dataset.path is required for kind=csv")
        ds = data.load_csv(d["path"])
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    if d["normalize"]:
        if d["norm_min"] is None and d["norm_max"] is None:
            ds = data.normalize_minmax(ds)
            d["norm_min"] = [float(v) for v in ds.norm[0]]
            d["norm_max"] = [float(v) for v in ds.norm[1]]
        else:
            for key in ("norm_min", "norm_max"):
                if d[key] is None:
                    raise ConfigError(f"config key 'dataset.{key}' must be set when the other "
                                      f"half of the norm record is")
                if len(d[key]) != ds.n_channels:
                    raise ConfigError(f"config key 'dataset.{key}' must list one value per "
                                      f"channel ({ds.n_channels}), got {len(d[key])}")
            ds = data.apply_norm(ds, (np.asarray(d["norm_min"]), np.asarray(d["norm_max"])))
    return ds


def _task_dataset(cfg: dict, *models: "core.AlternatorModel | None") -> data.SeriesDataset:
    """The dataset of a checkpoint task, checked against each checkpoint given."""
    ds = resolve_dataset(cfg)
    for model in (m for m in models if m is not None):
        if ds.n_channels != model.d_x:
            raise ConfigError(f"dataset has {ds.n_channels} channels but a checkpoint "
                              f"has {model.d_x}")
        if ds.n_steps > model.schedule.T:
            raise ConfigError(f"dataset length {ds.n_steps} exceeds a checkpoint's schedule "
                              f"length {model.schedule.T}")
    return ds


def build_model_from_config(cfg: dict, d_x: int, T: int) -> core.AlternatorModel:
    m = cfg["model"]
    schedule = core.default_schedule(
        T, m["sigma_x"], m["sigma_z"],
        beta_span=tuple(m["beta_span"]), alpha_span=tuple(m["alpha_span"]),
    )
    return core.build_model(
        d_x=d_x, d_z=m["d_z"], schedule=schedule, hidden_dim=m["hidden_dim"],
        depth=m["depth"], activation=m["activation"],
        seed=m["init_seed"], dynamics=m["dynamics"],
    )


def _write_config(cfg: dict, out_dir: Path) -> None:
    # Every task's first write, so a run rejected before it leaves no directory.
    out_dir.mkdir(parents=True, exist_ok=True)
    with data.atomic_write(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


class MetricWriter:
    """Newline-delimited metric records with a fixed field core.

    Values and standard errors are finite or None (JSON null); NaN or
    infinity raises NumericError, as strict JSON has no token for them.
    """

    def __init__(self, path: Path, task: str, seed: int):
        self.path = path
        self.task = task
        self.seed = seed
        self.records: list[dict] = []

    def add(self, metric: str, value: "float | None", std_error: "float | None" = None,
            n: int = 1, **extra) -> None:
        if any(v is not None and not np.isfinite(v) for v in (value, std_error)):
            raise NumericError(f"metric {metric!r} is not finite: {value} (std_error {std_error})")
        rec = {"task": self.task, "metric": metric,
               "value": None if value is None else float(value),
               "std_error": None if std_error is None else float(std_error),
               "n": int(n), "seed": self.seed}
        rec.update(extra)
        self.records.append(rec)

    def add_mean(self, metric: str, values, **extra) -> None:
        """Record the mean of ``values`` and its standard error (None for one value)."""
        arr = np.asarray(values)
        se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else None
        self.add(metric, float(arr.mean()), std_error=se, n=len(arr), **extra)

    def flush(self) -> None:
        with data.atomic_write(self.path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def run_train(cfg: dict, out_dir: Path) -> int:
    own = {f.name for f in dataclasses.fields(training.TrainConfig)}  # not the config-only keys
    train_cfg = training.TrainConfig(  # before the dataset
        seed=cfg["seed"], **{k: v for k, v in cfg["train"].items() if k in own})
    ds = resolve_dataset(cfg)
    cfg["model"]["d_x"] = ds.n_channels
    model = build_model_from_config(cfg, ds.n_channels, ds.n_steps)
    _write_config(cfg, out_dir)
    log_path = out_dir / "loss_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as log:
        def log_fn(stats: training.EpochStats) -> None:
            rec = {"epoch": stats.epoch, "lr": stats.lr}
            rec.update(dataclasses.asdict(stats.loss))
            log.write(json.dumps(rec, sort_keys=True) + "\n")

        model, history = training.train(model, ds, train_cfg, log_fn=log_fn)
    core.save_model(model, out_dir / "checkpoint.alt")
    print(f"trained {cfg['train']['epochs']} epochs; "
          f"final total loss {history[-1].loss.total:.6f}; outputs in {out_dir}")
    return EXIT_OK


def _load_checkpoint(args: argparse.Namespace) -> core.AlternatorModel:
    if not args.checkpoint:
        raise ConfigError("--checkpoint is required for this task")
    return core.load_model(args.checkpoint)


def run_generate(cfg: dict, out_dir: Path, model: core.AlternatorModel) -> int:
    g = cfg["generate"]
    T = g["horizon"] or model.schedule.T
    if T > model.schedule.T:  # before generate_batch draws noise for every step
        raise ConfigError(f"config key 'generate.horizon' must not exceed the checkpoint's "
                          f"schedule length {model.schedule.T}, got {T}")
    _write_config(cfg, out_dir)
    samples = core.generate_batch(model, g["n_samples"], T, cfg["seed"])
    data.save_csv(data.SeriesDataset(samples), out_dir / "samples.csv")
    print(f"generated {g['n_samples']} sequences of length {T} into {out_dir}")
    return EXIT_OK


def run_encode(cfg: dict, out_dir: Path, model: core.AlternatorModel) -> int:
    ds = _task_dataset(cfg, model)
    _write_config(cfg, out_dir)
    seeds = [core.spawn_seed(cfg["seed"], i) for i in range(ds.n_series)]
    latents = core.encode_states(model, ds.data, seeds,
                                 mean_propagation=cfg["encode"]["mean_propagation"])[0]
    data.save_csv(data.SeriesDataset(latents), out_dir / "latents.csv")
    print(f"encoded {ds.n_series} sequences into {out_dir}")
    return EXIT_OK


def run_impute(cfg: dict, out_dir: Path, model: core.AlternatorModel) -> int:
    icfg = cfg["impute"]
    rates = icfg["rates"]
    ds = _task_dataset(cfg, model)
    _write_config(cfg, out_dir)
    # One row per (rate, series), rate-major; each row keeps its own mask and rollout seeds.
    keys = [(r, i) for r in range(len(rates)) for i in range(ds.n_series)]
    pairs = [tasks.apply_mar_mask(ds.data[i], rates[r], core.spawn_seed(icfg["mask_seed"], r, i),
                                  per_channel=icfg["per_channel"]) for r, i in keys]
    masked = np.stack([m for m, _ in pairs])
    masks = [mask for _, mask in pairs]
    filled = tasks.impute(
        model, masked, tasks.MARMask.stack(masks),
        [core.spawn_seed(cfg["seed"], r, i) for r, i in keys],
        n_samples=icfg["n_samples"], mean_propagation=icfg["mean_propagation"],
    )
    stats: list[dict[str, list[float]]] = [{k: [] for k in (
        "model_mae", "model_mse", "model_cc", "baseline_mae", "baseline_mse", "baseline_cc",
    )} for _ in rates]
    for j, (r, i) in enumerate(keys):
        baseline = tasks.mean_fill(masked[j], masks[j])
        for prefix, est in (("model", filled[j]), ("baseline", baseline)):
            pm = metrics.pointwise_metrics(ds.data[i], est)
            stats[r][f"{prefix}_mae"].append(pm.mae)
            stats[r][f"{prefix}_mse"].append(pm.mse)
            if pm.cc is not None:
                stats[r][f"{prefix}_cc"].append(pm.cc)
    writer = MetricWriter(out_dir / "impute_metrics.jsonl", "impute", cfg["seed"])
    for rate, rate_stats in zip(rates, stats):
        for name, vals in rate_stats.items():
            if vals:
                writer.add_mean(name, vals, rate=rate)
    writer.flush()
    data.save_csv(
        data.SeriesDataset(filled), out_dir / "imputed.csv",
        series_ids=[f"rate{rates[r]:g}_s{i}" for r, i in keys],
    )
    print(f"imputation sweep over {len(icfg['rates'])} rates written to {out_dir}")
    return EXIT_OK


def run_forecast(cfg: dict, out_dir: Path, model: core.AlternatorModel) -> int:
    fcfg = cfg["forecast"]
    M = fcfg["members"]
    ds = _task_dataset(cfg, model)
    H = fcfg["horizon"]
    S, T = ds.n_series, ds.n_steps
    T_c = fcfg["context_length"] or T - H
    if H < 1 or H >= T or T_c < 1 or T_c + H > T:
        raise ConfigError(
            f"horizon {H} incompatible with series length {T} (context {T_c})"
        )
    _write_config(cfg, out_dir)
    ens = tasks.forecast_ensemble(model, ds.data[:, :T_c], H, members=M,
                                  seed=[core.spawn_seed(cfg["seed"], i) for i in range(S)])
    truth = ds.data[:, T_c:T_c + H]
    climatology = tasks.climatology_forecast(ds.data, T_c, H)
    per_h: dict[str, np.ndarray] = {
        "crps": np.array([[metrics.crps_ensemble(ens.members[i, :, h], truth[i, h])
                           for h in range(H)] for i in range(S)]),
        "mse": ((ens.members.mean(axis=-3) - truth) ** 2).mean(axis=-1),
        "baseline_crps": np.array([[metrics.crps_ensemble(climatology[None, h], truth[i, h])
                                    for h in range(H)] for i in range(S)]),
        "baseline_mse": ((climatology - truth) ** 2).mean(axis=-1),
    }
    writer = MetricWriter(out_dir / "forecast_metrics.jsonl", "forecast", cfg["seed"])
    for name, values in per_h.items():
        for h in range(H):
            writer.add_mean(name, values[:, h], h=h + 1)
        writer.add(f"{name}_avg", float(values.mean()), n=values.size)
    writer.flush()
    data.save_csv(
        data.SeriesDataset(ens.members.reshape(S * M, H, model.d_x)),
        out_dir / "ensemble.csv", series_ids=[f"s{i}_m{m}" for i in range(S) for m in range(M)],
    )
    print(f"forecast metrics over horizon {H} written to {out_dir}")
    return EXIT_OK


def run_eval_density(cfg: dict, out_dir: Path, model: core.AlternatorModel,
                     baseline: "core.AlternatorModel | None") -> int:
    ecfg = cfg["eval_density"]
    mmd_fn = getattr(metrics, f"{ecfg['variant']}_mmd")
    ds = _task_dataset(cfg, model, baseline)
    _write_config(cfg, out_dir)
    n = ecfg["n_samples"]
    T = ds.n_steps
    samples = core.generate_batch(model, n, T, core.spawn_seed(cfg["seed"], 0))
    writer = MetricWriter(out_dir / "density_metrics.jsonl", "eval-density", cfg["seed"])
    value = mmd_fn(samples, ds.data)
    writer.add("mmd", value, n=n)
    if baseline is not None:
        base_samples = core.generate_batch(baseline, n, T, core.spawn_seed(cfg["seed"], 0))
        base_value = mmd_fn(base_samples, ds.data)
        writer.add("mmd_baseline", base_value, n=n)
        writer.add("mmd_ratio", value / base_value if base_value > 0 else None, n=n)
    writer.flush()
    print(f"density evaluation written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alternator",
        description="Train and evaluate alternating latent sequence models.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                       help="hyperparameter bundle applied under the config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--deterministic", action="store_true",
                       help="accepted for compatibility; every run is deterministic")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set model.d_z=8")
        if name != "train":
            p.add_argument("--checkpoint", help="model checkpoint file")
        if name == "eval-density":
            p.add_argument("--baseline-checkpoint", default=None,
                           help="untrained/reference checkpoint for relative MMD")
    return parser


def _keep_freed_pages() -> None:
    """Have glibc's malloc keep freed memory for reuse instead of returning it.

    A training step frees its graph while backward runs. By default glibc
    then trims that memory off the top of the heap, and the next step's
    forward faults each page back in, at 1-2.4 us of system time a fault
    on a 2-CPU x86 VM: over 4 density-regime epochs that is 69,438 minor
    faults, and 30 with the pages kept. Every block up to 32 MiB (glibc's 64-bit maximum) is served
    from the heap, and the heap is trimmed only once 1 GiB at its top is
    free; setting either also turns off glibc's dynamic thresholds. Where
    the C library has no ``mallopt``, nothing changes. Called from
    :func:`main`, so importing the package leaves the allocator alone.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 * 2**20)       # M_MMAP_THRESHOLD
        mallopt(-1, 2**30)            # M_TRIM_THRESHOLD


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_pages()
    try:
        cfg = resolve_config(args)
        out_dir = Path(cfg["out"])
        if args.task == "train":
            return run_train(cfg, out_dir)
        model = _load_checkpoint(args)
        if args.task == "generate":
            return run_generate(cfg, out_dir, model)
        if args.task == "encode":
            return run_encode(cfg, out_dir, model)
        if args.task == "impute":
            return run_impute(cfg, out_dir, model)
        if args.task == "forecast":
            return run_forecast(cfg, out_dir, model)
        baseline = None
        if getattr(args, "baseline_checkpoint", None):
            baseline = core.load_model(args.baseline_checkpoint)
        return run_eval_density(cfg, out_dir, model, baseline)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, DataError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
