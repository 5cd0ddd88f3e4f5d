"""How fast the host runs right now, from a fixed pure-Python loop.

A shared host can change speed by up to 2x in phases that last longer than
a run. The benchmark times this loop after every command and reports round
times in units of the loop's median over the run, which divides such
phases out. The loop never calls the program, so no change to the program
can move it.
"""

from __future__ import annotations

import time

CALLS = 30          # loop calls after each command, about 1 ms each


def _loop() -> int:
    return sum(i * i % 7 for i in range(10000))


def calibrate() -> list[float]:
    """Wall times of CALLS calls of the loop."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return times
