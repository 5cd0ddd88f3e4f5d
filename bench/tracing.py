"""Spans and counts gathered from outside the program.

Both passes replace a function at the module attribute its caller looks up
(``alternator.tasks.mean_x``, ``alternator.training.backward``, ...) with a
wrapper, and put the original back afterwards. The program itself is not
changed, and untraced runs install no wrapper.

* The span pass times the calls into each module's public functions and
  keeps every span (name, start, end, parent) in memory.
* The counting pass wraps the same functions plus every autodiff op and
  counts work exactly. It runs apart from the span pass so that the per-op
  wrappers do not distort self times.

A function missing from the program (renamed or removed by a later change)
is skipped and listed in ``missing``; its metrics then read zero.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute) pairs timed in the span pass. Where a function is
# imported into another module by name, the importing module is listed,
# because that is the attribute its caller looks up.
SPAN_TARGETS = (
    ("cli", "main"),
    ("data", "load_csv"),
    ("data", "save_csv"),
    ("core", "load_model"),
    ("core", "save_model"),
    ("core", "generate_batch"),
    ("training", "train"),
    ("training", "draw_rollout_noise"),
    ("training", "total_loss"),
    ("training", "rollout"),
    ("training", "alternator_loss"),
    ("training", "noise_matching_loss"),
    ("training", "backward"),
    ("training", "adam_step"),
    ("networks", "network_forward"),
    ("tasks", "impute"),
    ("tasks", "forecast_ensemble"),
    ("tasks", "encode_states"),
    ("metrics", "sequence_mmd"),
    ("metrics", "median_bandwidth"),
    ("metrics", "mmd_rbf"),
    ("metrics", "crps_ensemble"),
    ("metrics", "pointwise_metrics"),
)

# Only counted: wrapping these in the span pass would put a wrapper on every
# step of every recursion.
COUNT_TARGETS = SPAN_TARGETS + (
    ("core", "mean_x_components"),
    ("core", "mean_z_components"),
    ("training", "mean_x_components"),
    ("training", "mean_z_components"),
    ("tasks", "mean_x"),
    ("tasks", "mean_z"),
)

# autodiff names that are not ops.
_NOT_OPS = {"Tensor", "Tape", "backward", "finite_difference_check"}


def _module(short: str):
    return importlib.import_module(f"alternator.{short}")


def span_name(fn) -> str:
    """``<module>.<function>`` of the module that defines ``fn``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextmanager
def _patched(targets, make_wrapper, missing: list):
    saved = []
    try:
        for short, attr in targets:
            mod = _module(short)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                missing.append(f"{short}.{attr}")
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, make_wrapper(fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


class SpanTracer:
    """In-memory spans of the wrapped calls; single-threaded by contract."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.missing: list[str] = []

    def _wrap(self, fn):
        name = span_name(fn)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def active(self):
        return _patched(SPAN_TARGETS, self._wrap, self.missing)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_ids=np.asarray(self.name_ids),
            parents=np.asarray(self.parents), starts=np.asarray(self.starts),
            ends=np.asarray(self.ends),
        )


class WorkCounter:
    """Exact work counts of one counting pass."""

    # Functions whose arguments or result are counted, not only their calls.
    _HOOKED = {
        "autodiff.backward", "networks.network_forward", "tasks.forecast_ensemble",
        "metrics.median_bandwidth", "metrics.mmd_rbf", "tasks.impute", "data.save_csv",
    }

    def __init__(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_alloc_mb = 0.0
        self.missing: list[str] = []
        self._impute_depth = 0

    def _hook(self, name, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        c = self.counts
        if name == "autodiff.backward":
            c["autodiff.tape_nodes"] += len(a["tape"].nodes)
        elif name == "networks.network_forward":
            c["networks.rows"] += a["x"].data.shape[0] if a["x"].data.ndim == 2 else 1
        elif name == "tasks.forecast_ensemble":
            c["tasks.forecast_ensemble.member_steps"] += (
                result.members.shape[0] * result.members.shape[1])
        elif name == "metrics.median_bandwidth":
            p = np.atleast_2d(a["points"])
            c["metrics.pairwise_bytes"] += p.shape[0] ** 2 * p.shape[1] * 8
        elif name == "metrics.mmd_rbf":
            n, d = np.atleast_2d(a["X"]).shape
            m = np.atleast_2d(a["Y"]).shape[0]
            c["metrics.pairwise_bytes"] += (n * n + m * m + n * m) * d * 8
        elif name == "tasks.impute":
            obs = np.asarray(a["mask"].observed)
            masked_steps = int((~obs.reshape(obs.shape[0], -1).all(axis=1)).sum())
            c["tasks.impute.masked_steps"] += masked_steps * a["n_samples"]
        elif name == "data.save_csv":
            c["data.save_csv.rows"] += a["ds"].n_series * a["ds"].n_steps

    def _wrap(self, fn):
        name = span_name(fn)
        calls = self.calls
        if name.startswith("autodiff.") and name != "autodiff.backward":
            counts = self.counts

            def op(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name] += 1
                counts["autodiff.out_elems"] += out.data.size
                return out

            return op

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "tasks.impute":
                self._impute_depth += 1
            try:
                if name == "metrics.sequence_mmd":
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                        peak = tracemalloc.get_traced_memory()[1] / 2**20
                    finally:
                        tracemalloc.stop()
                    self.peak_alloc_mb = max(self.peak_alloc_mb, peak)
                else:
                    result = fn(*args, **kwargs)
            finally:
                if name == "tasks.impute":
                    self._impute_depth -= 1
            if name in self._HOOKED:
                self._hook(name, fn, args, kwargs, result)
            elif name == "core.mean_x" and self._impute_depth:
                self.counts["tasks.impute.mean_x_calls"] += 1
            return result

        return counted

    def active(self):
        ad = _module("autodiff")
        ops = tuple(("autodiff", n) for n in ad.__all__ if n not in _NOT_OPS)
        return _patched(COUNT_TARGETS + ops, self._wrap, self.missing)

    def exact(self) -> dict[str, int]:
        """Every count this pass makes, for comparing two passes."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))


def merge(parts) -> WorkCounter:
    """Sum of ``(counter, weight)`` pairs, e.g. the commands of one round."""
    out = WorkCounter()
    for counter, weight in parts:
        for mine, theirs in ((out.calls, counter.calls), (out.counts, counter.counts)):
            for key, value in theirs.items():
                mine[key] += value * weight
        out.peak_alloc_mb = max(out.peak_alloc_mb, counter.peak_alloc_mb)
    return out
