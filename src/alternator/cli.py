"""Experiment runner: reproducible train/generate/encode/impute/forecast/eval runs.

Every run resolves its configuration (flags > config file > preset >
defaults), writes the resolved tree verbatim next to its outputs, and emits
machine-readable artifacts only: JSONL metric/loss records and long-format
CSV dumps. Exit codes are stable: 0 success, 2 config error, 3 numeric
abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import core, data, metrics, tasks, training
from .errors import CheckpointError, ConfigError, DataError, NumericError

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
        "kind": "mlp",
        "activation": "tanh",
        "sigma_x": 0.3,
        "sigma_z": 0.15,
        "beta_span": [0.1, 1.0],
        "alpha_span": [0.1, 1.0],
        "dynamics": "noise_models",
        "init_seed": 0,
    },
    "train": {
        "epochs": 1000,
        "batch_size": 100,
        "noise_weight": 0.1,
        "lr_max": 1e-3,
        "lr_min": 1e-5,
        "adam_beta1": 0.9,
        "adam_beta2": 0.999,
        "adam_eps": 1e-8,
        "noise_target_mode": "trajectory",
        "free_running": False,
    },
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
    except json.JSONDecodeError:
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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}: invalid JSON ({exc})") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        file_cfg.pop("task", None)  # the subcommand owns the task
        if isinstance(file_cfg.get("model"), dict):
            file_cfg["model"].pop("d_x", None)  # train records it; the dataset sets it
        cfg = _deep_merge(cfg, file_cfg)
    cfg["task"] = args.task
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if args.deterministic:
        cfg["deterministic"] = True
    for expr in args.set or []:
        path, value = _parse_set(expr)
        _apply_set(cfg, path, value)
    _check_types(cfg, DEFAULTS)
    return cfg


def _check_types(cfg: dict, defaults: dict, prefix: str = "") -> None:
    """Reject keys missing from DEFAULTS and leaves unlike their default.

    None means unset: a null leaf takes its DEFAULTS value. bool stays bool,
    an int field takes only int, a float field also takes int but not NaN or
    infinity, list elements follow the default's elements, seeds are
    non-negative, and a field whose default is None is not checked.
    """
    for key, value in cfg.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        if isinstance(default, dict) and isinstance(value, dict):
            _check_types(value, default, name + ".")
        elif default is None:
            continue
        elif value is None and not isinstance(default, dict):
            cfg[key] = copy.deepcopy(default)
        elif not _like(value, default):
            elem = default[0] if isinstance(default, list) else default
            kind = "finite float" if type(elem) is float else type(elem).__name__
            if isinstance(default, list):
                kind = f"list of {kind}"
            raise ConfigError(f"config key {name!r} must be {kind}, got {value!r}")
        elif (key == "seed" or key.endswith("_seed")) and value < 0:
            raise ConfigError(f"config key {name!r} must be a non-negative seed, got {value}")


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
        if d["norm_min"] is not None and d["norm_max"] is not None:
            ds = data.apply_norm(ds, (np.asarray(d["norm_min"]), np.asarray(d["norm_max"])))
        else:
            ds = data.normalize_minmax(ds)
            d["norm_min"] = [float(v) for v in ds.norm[0]]
            d["norm_max"] = [float(v) for v in ds.norm[1]]
    return ds


def build_model_from_config(cfg: dict, d_x: int, T: int) -> core.AlternatorModel:
    m = cfg["model"]
    schedule = core.default_schedule(
        T, m["sigma_x"], m["sigma_z"],
        beta_span=tuple(m["beta_span"]), alpha_span=tuple(m["alpha_span"]),
    )
    return core.build_model(
        d_x=d_x, d_z=m["d_z"], schedule=schedule, hidden_dim=m["hidden_dim"],
        depth=m["depth"], kind=m["kind"], activation=m["activation"],
        seed=m["init_seed"], dynamics=m["dynamics"],
    )


def _write_config(cfg: dict, out_dir: Path) -> None:
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


class MetricWriter:
    """Newline-delimited metric records with a fixed field core."""

    def __init__(self, path: Path, task: str, seed: int):
        self.path = path
        self.task = task
        self.seed = seed
        self.records: list[dict] = []

    def add(self, metric: str, value: float, std_error: "float | None" = None,
            n: int = 1, **extra) -> None:
        rec = {"task": self.task, "metric": metric, "value": float(value),
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
        with open(self.path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def run_train(cfg: dict, out_dir: Path) -> int:
    ds = resolve_dataset(cfg)
    cfg["model"]["d_x"] = ds.n_channels
    _write_config(cfg, out_dir)
    model = build_model_from_config(cfg, ds.n_channels, ds.n_steps)
    train_cfg = training.TrainConfig(seed=cfg["seed"], **cfg["train"])
    log_path = out_dir / "loss_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as log:
        def log_fn(stats: training.EpochStats) -> None:
            rec = {"epoch": stats.epoch, "lr": stats.lr}
            rec.update(stats.loss.as_dict())
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
    if g["n_samples"] < 1:
        raise ConfigError(f"config key 'generate.n_samples' must be >= 1, got {g['n_samples']}")
    T = g["horizon"] or model.schedule.T
    if T > model.schedule.T:  # before generate_batch draws noise for every step
        raise ConfigError(f"config key 'generate.horizon' must not exceed the checkpoint's "
                          f"schedule length {model.schedule.T}, got {T}")
    _write_config(cfg, out_dir)
    batch = core.generate_batch(model, g["n_samples"], T, cfg["seed"])
    data.save_csv(data.SeriesDataset(batch.xs, name="samples"), out_dir / "samples.csv")
    print(f"generated {g['n_samples']} sequences of length {T} into {out_dir}")
    return EXIT_OK


def run_encode(cfg: dict, out_dir: Path, model: core.AlternatorModel) -> int:
    ds = resolve_dataset(cfg)
    _write_config(cfg, out_dir)
    mean_prop = cfg["encode"]["mean_propagation"]
    latents = np.stack([
        core.encode(model, ds.data[i], core.spawn_seed(cfg["seed"], i),
                    mean_propagation=mean_prop)
        for i in range(ds.n_series)
    ])
    data.save_csv(data.SeriesDataset(latents, name="latents"), out_dir / "latents.csv")
    print(f"encoded {ds.n_series} sequences into {out_dir}")
    return EXIT_OK


def run_impute(cfg: dict, out_dir: Path, model: core.AlternatorModel) -> int:
    icfg = cfg["impute"]
    if not icfg["rates"]:
        raise ConfigError("config key 'impute.rates' must list at least one rate")
    ds = resolve_dataset(cfg)
    _write_config(cfg, out_dir)
    writer = MetricWriter(out_dir / "impute_metrics.jsonl", "impute", cfg["seed"])
    completed_all = []
    completed_ids = []
    for r_idx, rate in enumerate(icfg["rates"]):
        stats: dict[str, list[float]] = {k: [] for k in (
            "model_mae", "model_mse", "model_cc", "baseline_mae", "baseline_mse", "baseline_cc",
        )}
        for i in range(ds.n_series):
            truth = ds.data[i]
            mask_seed = core.spawn_seed(icfg["mask_seed"], r_idx, i)
            masked, mask = tasks.apply_mar_mask(
                truth, rate, mask_seed, per_channel=icfg["per_channel"]
            )
            filled = tasks.impute(
                model, masked, mask, core.spawn_seed(cfg["seed"], r_idx, i),
                n_samples=icfg["n_samples"], mean_propagation=icfg["mean_propagation"],
            )
            baseline = tasks.mean_fill(masked, mask)
            for prefix, est in (("model", filled), ("baseline", baseline)):
                pm = metrics.pointwise_metrics(truth, est)
                stats[f"{prefix}_mae"].append(pm.mae)
                stats[f"{prefix}_mse"].append(pm.mse)
                if pm.cc is not None:
                    stats[f"{prefix}_cc"].append(pm.cc)
            completed_all.append(filled)
            completed_ids.append(f"rate{rate:g}_s{i}")
        for name, vals in stats.items():
            if vals:
                writer.add_mean(name, vals, rate=rate)
    writer.flush()
    data.save_csv(
        data.SeriesDataset(np.stack(completed_all), name="imputed"),
        out_dir / "imputed.csv", series_ids=completed_ids,
    )
    print(f"imputation sweep over {len(icfg['rates'])} rates written to {out_dir}")
    return EXIT_OK


def run_forecast(cfg: dict, out_dir: Path, model: core.AlternatorModel) -> int:
    ds = resolve_dataset(cfg)
    _write_config(cfg, out_dir)
    fcfg = cfg["forecast"]
    H = fcfg["horizon"]
    T = ds.n_steps
    T_c = fcfg["context_length"] or T - H
    if H < 1 or H >= T or T_c < 1 or T_c + H > T:
        raise ConfigError(
            f"horizon {H} incompatible with series length {T} (context {T_c})"
        )
    climatology = tasks.climatology_forecast(ds.data, T_c, H)
    writer = MetricWriter(out_dir / "forecast_metrics.jsonl", "forecast", cfg["seed"])
    per_h: dict[str, np.ndarray] = {
        k: np.zeros((ds.n_series, H)) for k in
        ("crps", "mse", "baseline_crps", "baseline_mse")
    }
    member_rows = []
    member_ids = []
    for i in range(ds.n_series):
        context = ds.data[i, :T_c]
        truth = ds.data[i, T_c:T_c + H]
        ens = tasks.forecast_ensemble(
            model, context, H, members=fcfg["members"], seed=core.spawn_seed(cfg["seed"], i)
        )
        mean_fc = ens.mean
        for h in range(H):
            per_h["crps"][i, h] = metrics.crps_ensemble(ens.members[:, h], truth[h])
            per_h["mse"][i, h] = float(((mean_fc[h] - truth[h]) ** 2).mean())
            per_h["baseline_crps"][i, h] = metrics.crps_ensemble(
                climatology[None, h], truth[h]
            )
            per_h["baseline_mse"][i, h] = float(((climatology[h] - truth[h]) ** 2).mean())
        for m in range(ens.members.shape[0]):
            member_rows.append(ens.members[m])
            member_ids.append(f"s{i}_m{m}")
    for name, values in per_h.items():
        for h in range(H):
            writer.add_mean(name, values[:, h], h=h + 1)
        writer.add(f"{name}_avg", float(values.mean()), n=values.size)
    writer.flush()
    data.save_csv(
        data.SeriesDataset(np.stack(member_rows), name="ensemble"),
        out_dir / "ensemble.csv", series_ids=member_ids,
    )
    print(f"forecast metrics over horizon {H} written to {out_dir}")
    return EXIT_OK


def run_eval_density(cfg: dict, out_dir: Path, model: core.AlternatorModel,
                     baseline: "core.AlternatorModel | None") -> int:
    ecfg = cfg["eval_density"]
    mmd_fns = {"sequence": metrics.sequence_mmd, "marginal": metrics.marginal_mmd}
    if ecfg["variant"] not in mmd_fns:
        raise ConfigError(f"config key 'eval_density.variant' must be one of "
                          f"{sorted(mmd_fns)}, got {ecfg['variant']!r}")
    mmd_fn = mmd_fns[ecfg["variant"]]
    if ecfg["n_samples"] < 1:
        raise ConfigError(f"config key 'eval_density.n_samples' must be >= 1, "
                          f"got {ecfg['n_samples']}")
    ds = resolve_dataset(cfg)
    _write_config(cfg, out_dir)
    n = ecfg["n_samples"]
    T = ds.n_steps
    samples = core.generate_batch(model, n, T, core.spawn_seed(cfg["seed"], 0)).xs
    writer = MetricWriter(out_dir / "density_metrics.jsonl", "eval-density", cfg["seed"])
    value = mmd_fn(samples, ds.data)
    writer.add("mmd", value, n=n)
    if baseline is not None:
        base_samples = core.generate_batch(baseline, n, T, core.spawn_seed(cfg["seed"], 0)).xs
        base_value = mmd_fn(base_samples, ds.data)
        writer.add("mmd_baseline", base_value, n=n)
        writer.add("mmd_ratio", value / base_value if base_value > 0 else float("inf"), n=n)
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


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        out_dir = Path(cfg["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
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
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, DataError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
