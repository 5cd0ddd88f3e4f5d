"""Arithmetic the benchmark reports with: percentiles, self time, reference checks.

Kept free of any import of the program so that it can be tested on its own.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Mapping, Sequence

# Tail percentiles tried from the highest down; one is reported only when at
# least MIN_BEYOND samples lie beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(round(p / 100.0 * len(ordered), 9))
    return float(ordered[max(rank, 1) - 1])


def tail_percentile(n: int) -> "float | None":
    """Highest candidate percentile with at least MIN_BEYOND of n samples above it."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root. Child
    intervals are clipped to the parent's and merged where they overlap, so
    time covered twice is subtracted once.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def close(measured: float, reference: float, rtol: float, atol: float) -> bool:
    return math.isfinite(measured) and abs(measured - reference) <= atol + rtol * abs(reference)


def compare(
    measured: Mapping[str, object], reference: Mapping[str, object], rtol: float, atol: float
) -> list[str]:
    """Names of the reference values that ``measured`` misses or does not match.

    Values are floats or equal-length lists of floats; each element must lie
    within ``atol + rtol * |reference|`` of its reference.
    """
    bad = []
    for key, ref in reference.items():
        got = measured.get(key)
        refs = ref if isinstance(ref, list) else [ref]
        gots = got if isinstance(got, list) else [got]
        if got is None or len(gots) != len(refs) or not all(
            isinstance(g, (int, float)) and close(float(g), float(r), rtol, atol)
            for g, r in zip(gots, refs)
        ):
            bad.append(f"{key}: got {got!r}, reference {ref!r}")
    return bad
