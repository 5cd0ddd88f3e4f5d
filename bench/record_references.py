"""Record the reference output values of every workload for every input seed.

    python3 bench/record_references.py [workload ...]

Each measured command is run once per input seed and the values its output
checks return are written to bench/references.json, which run.py compares
every command against. Record at a commit whose outputs are trusted, and
again whenever a workload's inputs or config change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    if run.import_program() is None:
        return 2
    refs = (json.loads(run.REFERENCES.read_text(encoding="utf-8"))
            if run.REFERENCES.exists() else {"workloads": {}})
    refs["tolerance"] = {"rtol": run.RTOL, "atol": run.ATOL}
    refs["input_seeds"] = run.INPUT_SEEDS
    work = run.OUT / "record"
    for name in names or sorted(WORKLOADS):
        table = {}
        for seed in range(run.INPUT_SEEDS):
            table[str(seed)] = {}
            for step in WORKLOADS[name].steps:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                tally = run.Tally()
                run._cli(step.prepare(work, seed, step.size), tally, step.command)
                if tally.failures:
                    print(f"{name} seed {seed}: {tally.failures}", file=sys.stderr)
                    return 1
                table[str(seed)][step.command] = step.summarize(work / "out", step.size)
            print(f"{name} seed {seed}: {table[str(seed)]}", flush=True)
        refs["workloads"][name] = table
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
