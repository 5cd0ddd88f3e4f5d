"""Benchmark of the alternator CLI: one workload per run, closed loop, one process.

    python3 bench/run.py --workload train-density --seed 3 --seconds 12 --trace 0

Each run sets up the workload (imports, input generation, checkpoints and
one warm-up command) several times, then calls ``alternator.cli.main``
in-process, one command after another, for ``--seconds`` seconds, checking
every command's outputs. ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-module ones; see bench/README.md. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats

# workloads and tracing import numpy, so they are imported only after
# import_program() has set the BLAS thread count and timed the first import.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"
SETUP_REPEATS = 3
INPUT_SEEDS = 32          # references are recorded for seeds 0..31; --seed maps onto them
RTOL, ATOL = 1e-6, 1e-9   # reference tolerance: allows BLAS rounding, not a changed result
# One BLAS thread (at most nproc): on a shared 2-CPU host, two threads
# spread train-imputation's run-to-run times wider (10-11% against 5-9%).
BLAS_THREADS = 1

END_TO_END = {"setup_s": "s", "round_rel": "cal", "peak_rss_mb": "MB"}
# Per-layer metrics in the JSON line. They exist on every workload; the
# full per-module report is printed and written to the results file.
PER_LAYER = {
    "cli.self_s": "s",
    "networks.network_forward.s": "s",
    "trace.overhead_s": "s",
    "training.steps": "count",
    "autodiff.tape_nodes": "count",
    "autodiff.op_calls": "count",
    "autodiff.out_elems": "count",
    "networks.forward_calls": "count",
    "networks.rows_per_call": "rows",
    "core.mean_x_components.calls": "count",
    "core.mean_z_components.calls": "count",
    "tasks.forecast_ensemble.member_steps": "count",
    "metrics.pairwise_bytes": "B",
    "data.save_csv.rows": "count",
}


def unit_of(name: str) -> str:
    """Unit of a per-module metric, read from its name."""
    if name.endswith((".n", ".calls")):
        return "count"
    if name.endswith(("_s", ".s")) or ".s.p" in name:
        return "s"
    for suffix, unit in (("_mb", "MB"), ("_bytes", "B"), ("_ratio", "1"), ("_per_call", "rows")):
        if name.endswith(suffix):
            return unit
    return "count"


class Tally:
    """Commands and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _environment(seed: int, input_seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": _nproc(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit, "src_sha1": digest.hexdigest(),
        "seed": seed, "input_seed": input_seed,
    }


def _cli(argv: list[str], tally: Tally, what: str) -> float:
    """Run one CLI command in-process; returns its wall time."""
    from alternator import cli

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the loop keeps going; the run is marked incorrect
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    tally.check(code == 0, f"{what}: exit code {code}")
    return wall


def set_up(workload, input_seed: int, work: Path, tally: Tally):
    """Inputs, checkpoints and one warm-up command per step.

    Returns (seconds, [(step, measured argv, its output directory)]).
    """
    t0 = time.perf_counter()
    plan = []
    for step in workload.steps:
        warm, main = work / step.command / "warm", work / step.command / "main"
        warm.mkdir(parents=True)
        main.mkdir()
        _cli(step.prepare(warm, input_seed, step.warmup_size), tally, f"{step.command} warm-up")
        plan.append((step, step.prepare(main, input_seed, step.size), main / "out"))
    return time.perf_counter() - t0, plan


def run_rounds(plan, seconds: float, tally: Tally, reference: dict,
               rounds: "int | None" = None, wrap=lambda step: contextlib.nullcontext()):
    """Closed loop: each command starts when the previous one and its checks end.

    A round runs every step's command ``step.repeat`` times. Rounds run for
    ``seconds`` (at least one), or exactly ``rounds`` when given. The
    calibration loop runs after each command. Returns the wall time of each
    round, of each command (per command), and of each calibration call.
    """
    from calibration import calibrate
    from workloads import CheckError

    cal_walls: list[float] = []
    round_walls: list[float] = []
    walls: dict[str, list[float]] = {step.command: [] for step, _, _ in plan}
    deadline = time.perf_counter() + seconds
    while not round_walls or (
            len(round_walls) < rounds if rounds else time.perf_counter() < deadline):
        total = 0.0
        for step, argv, out in plan:
            for _ in range(step.repeat):
                shutil.rmtree(out, ignore_errors=True)
                with wrap(step):
                    wall = _cli(argv, tally, step.command)
                walls[step.command].append(wall)
                total += wall
                cal_walls.extend(calibrate())
                try:
                    summary = step.summarize(out, step.size)
                    tally.check(True, "outputs")
                except CheckError as exc:
                    tally.check(False, f"{step.command} outputs: {exc}")
                    continue
                bad = stats.compare(summary, reference[step.command], RTOL, ATOL)
                tally.check(not bad, f"{step.command} reference: {'; '.join(bad)}")
        round_walls.append(total)
    return round_walls, walls, cal_walls


def _module_report(spans, selfs, indices, per: int, counter, overhead_s: float) -> dict:
    """Per-module metrics over the spans at ``indices``, which cover ``per`` units.

    ``counter`` holds the exact counts of one unit (a command or a round).
    Times are per unit unless stated.
    """
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for i in indices:
        name = spans.names[spans.name_ids[i]]
        d = spans.ends[i] - spans.starts[i]
        total[name] = total.get(name, 0.0) + d
        self_total[name] = self_total.get(name, 0.0) + selfs[i]
        durations.setdefault(name, []).append(d)

    calls, counts = counter.calls, counter.counts
    steps = calls["training.adam_step"]
    rep: dict[str, float] = {"training.steps": steps}
    if steps:  # per optimizer step
        for fn in ("draw_rollout_noise", "rollout", "alternator_loss",
                   "noise_matching_loss", "adam_step"):
            rep[f"training.{fn}.s"] = total.get(f"training.{fn}", 0.0) / (steps * per)
        rep["autodiff.backward.s"] = total.get("autodiff.backward", 0.0) / (steps * per)
    rep["autodiff.tape_nodes"] = counts["autodiff.tape_nodes"] / steps if steps else 0
    rep["autodiff.op_calls"] = sum(v for k, v in calls.items()
                                   if k.startswith("autodiff.") and k != "autodiff.backward")
    rep["autodiff.out_elems"] = counts["autodiff.out_elems"]
    fwd = calls["networks.network_forward"]
    rep["networks.forward_calls"] = fwd
    rep["networks.rows_per_call"] = counts["networks.rows"] / fwd if fwd else 0.0
    rep["networks.network_forward.s"] = self_total.get("networks.network_forward", 0.0) / per
    for fn in ("mean_x_components", "mean_z_components"):
        rep[f"core.{fn}.calls"] = calls[f"core.{fn}"]
    for fn in ("encode_states", "generate_batch", "load_model", "save_model"):
        if calls[f"core.{fn}"]:
            rep[f"core.{fn}.s"] = total.get(f"core.{fn}", 0.0) / per
    for fn, tail in (("impute", True), ("forecast_ensemble", False)):
        d = durations.get(f"tasks.{fn}")
        if not d:
            continue
        rep[f"tasks.{fn}.s.p50"] = stats.percentile(d, 50.0)
        p = stats.tail_percentile(len(d)) if tail else None
        if p is not None:
            rep[f"tasks.{fn}.s.p{p:g}"] = stats.percentile(d, p)
        rep[f"tasks.{fn}.s.n"] = len(d)
    if counts["tasks.impute.mean_x_calls"]:
        rep["tasks.impute.obs_mean_useful_ratio"] = (
            counts["tasks.impute.masked_steps"] / counts["tasks.impute.mean_x_calls"])
    rep["tasks.forecast_ensemble.member_steps"] = counts["tasks.forecast_ensemble.member_steps"]
    for fn in ("median_bandwidth", "mmd_rbf", "crps_ensemble", "pointwise_metrics"):
        if calls[f"metrics.{fn}"]:
            rep[f"metrics.{fn}.s"] = total.get(f"metrics.{fn}", 0.0) / per
    rep["metrics.pairwise_bytes"] = counts["metrics.pairwise_bytes"]
    if calls["metrics.sequence_mmd"]:
        rep["metrics.sequence_mmd.peak_alloc_mb"] = counter.peak_alloc_mb
    for fn in ("load_csv", "save_csv"):
        if calls[f"data.{fn}"]:
            rep[f"data.{fn}.s"] = total.get(f"data.{fn}", 0.0) / per
    rep["data.save_csv.rows"] = counts["data.save_csv.rows"]
    rep["cli.self_s"] = self_total.get("cli.main", 0.0) / per
    rep["trace.overhead_s"] = overhead_s
    return rep


def measure_traced(plan, seconds, tally, reference, result) -> tuple[dict, dict]:
    """Untraced rounds, as many span-traced rounds, then two counting passes.

    The per-layer metrics of the JSON line are per round. A workload of
    several commands also reports each command's metrics, suffixed with
    the command name.
    """
    from tracing import SpanTracer, WorkCounter, merge

    plain_rounds, plain, _ = run_rounds(plan, seconds / 2, tally, reference)
    spans = SpanTracer()
    indices: dict[str, list[int]] = {step.command: [] for step, _, _ in plan}

    @contextlib.contextmanager
    def traced(step):
        first = len(spans.starts)
        with spans.active():
            yield
        indices[step.command].extend(range(first, len(spans.starts)))

    traced_rounds, traced_walls, _ = run_rounds(plan, 0, tally, reference,
                                                rounds=len(plain_rounds), wrap=traced)
    spans.save(result.with_suffix(".spans.npz"))
    passes = []
    for _ in range(2):
        counters = {step.command: WorkCounter() for step, _, _ in plan}
        run_rounds(plan, 0, tally, reference, rounds=1,
                   wrap=lambda step: counters[step.command].active())
        passes.append(counters)
    first, second = ({k: c.exact() for k, c in p.items()} for p in passes)
    tally.check(first == second, "counting passes disagree: " + ", ".join(
        f"{cmd}.{k}" for cmd in first for k in sorted(set(first[cmd]) | set(second[cmd]))
        if first[cmd].get(k) != second[cmd].get(k)))

    selfs = stats.self_times(spans.parents, spans.starts, spans.ends)
    counters = passes[0]
    per_round = merge([(counters[step.command], 1) for step, _, _ in plan])
    report = _module_report(spans, selfs, range(len(spans.starts)), len(traced_rounds),
                            per_round, stats.median(traced_rounds) - stats.median(plain_rounds))
    if len(plan) > 1:
        for step, _, _ in plan:
            cmd = step.command
            sub = _module_report(
                spans, selfs, indices[cmd], len(traced_walls[cmd]),
                merge([(counters[cmd], 1.0 / step.repeat)]),
                stats.median(traced_walls[cmd]) - stats.median(plain[cmd]))
            report.update({f"{k}.{cmd}": v for k, v in sub.items()})
    extra = {"exact_counts": first, "rounds": len(traced_rounds),
             "unwrapped": sorted({m for c in counters.values() for m in c.missing}
                                 | set(spans.missing))}
    return report, extra


def import_program() -> "float | None":
    """Import numpy and the package from this checkout's src/; returns seconds taken.

    Returns None, after saying why on stderr, when the checkout has no
    program or the import resolves to a copy elsewhere.
    """
    if not (SRC / "alternator" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'alternator'} is missing", file=sys.stderr)
        return None
    # Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, _nproc()))
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import alternator.cli
    import_s = time.perf_counter() - t0
    if Path(alternator.cli.__file__).resolve().parents[1] != SRC:
        print(f"alternator imported from {alternator.cli.__file__}, not {SRC}", file=sys.stderr)
        return None
    return import_s


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    if import_s is None:
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    input_seed = args.seed % INPUT_SEEDS
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    reference = refs["workloads"][workload.name][str(input_seed)]
    env = _environment(args.seed, input_seed)
    OUT.mkdir(exist_ok=True)
    result = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    tally = Tally()
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            seconds, plan = set_up(workload, input_seed, work / f"setup{k}", tally)
            setups.append(seconds)
        if args.trace:
            metrics, extra = measure_traced(plan, args.seconds, tally, reference, result)
        else:
            round_walls, walls, cal_walls = run_rounds(plan, args.seconds, tally, reference)
            metrics = {
                "setup_s": import_s + stats.median(setups),
                "round_rel": stats.median(round_walls) / stats.median(cal_walls),
                "round_s": stats.median(round_walls),
                "calibration_s": stats.median(cal_walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            for step, _, _ in plan:
                w = walls[step.command]
                metrics[step.named_metric] = (stats.median(w) if step.named_unit == "s"
                                              else step.items * len(w) / sum(w))
            extra = {"round_walls_s": round_walls, "cmd_walls_s": walls, "setups_s": setups,
                     "import_s": import_s}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failures)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {workload.name} ({workload.why}); a round runs " + ", ".join(
        f"{s.repeat} x {s.command} ({s.items} x {s.item})" for s in workload.steps))
    units = {**END_TO_END, "round_s": "s", "calibration_s": "s",
             **{s.named_metric: s.named_unit for s in workload.steps}}
    suffixes = tuple(f".{s.command}" for s in workload.steps)
    for name, value in metrics.items():
        base = name.rsplit(".", 1)[0] if name.endswith(suffixes) else name
        print(f"{name} = {value:.6g} {units.get(name) or unit_of(base)}")
    print(f"failed_ratio = {failed / tally.attempted:.6g} "
          f"({failed} failed of {tally.attempted} commands and checks)")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "workload": workload.name, "metrics": metrics, **extra,
         "attempted": tally.attempted, "failures": tally.failures}, indent=2, default=float),
        encoding="utf-8")
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
