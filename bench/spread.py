"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 bench/spread.py --runs 10 [--first-seed 100] [workload ...]

Runs ``run.py`` once per seed and workload, one run at a time, with the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints the
median and the spread (Q3 - Q1) / median of the runs, next to a third of
the metric's bound, the steadiness the benchmark aims for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, {result}\n{proc.stderr}")
                return 1
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            spread = stats.quartile_spread(v)
            aim = m["bound"] / 3
            ok = m["name"] == "setup_s" or spread < aim
            steady &= ok
            print(f"{name:18s} {m['name']:12s} median {stats.median(v):10.5g} {m['unit']:3s} "
                  f"spread {spread:7.4f} (aim < {aim:.4f}) {'ok' if ok else 'NOT STEADY'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
