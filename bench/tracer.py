"""Spans around the public functions of xustat, for the traced run only.

``Tracer.install`` replaces every module-level binding of a public xustat
function, in every xustat module, by a wrapper that records a span (name,
start, end, parent).  Callers inside the package look functions up in their
own module's globals (``harness`` calls its imported ``parametric_bootstrap``,
``asymptotics`` its imported ``pickands_ustat_batch``), so wrapping each
binding where it is looked up catches those calls.  ``uninstall`` restores
the original objects; untraced runs never install anything.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

PACKAGE_MODULES = ("core", "dist", "ustat", "estimators", "asymptotics", "harness", "cli")


def _spacing_logs(j_hi: int) -> int:
    """Logs in s_2..s_j_hi: sum_{j=2}^{j_hi} (j - 1)."""
    return j_hi * (j_hi - 1) // 2


def _count_log_spacing_sums(args, kwargs, result) -> Dict[str, float]:
    return {"logs": _spacing_logs(int(args[1] if len(args) > 1 else kwargs["j_hi"]))}


def _count_batch(args, kwargs, result) -> Dict[str, float]:
    rows, n = args[0].shape
    m = int(args[1] if len(args) > 1 else kwargs["m"])
    return {"logs": rows * _spacing_logs(n - m + 3)}


def _count_gp_ml_fit(args, kwargs, result) -> Dict[str, float]:
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _count_bootstrap(args, kwargs, result) -> Dict[str, float]:
    return {"boot_reps": result.boot_reps, "kept": result.boot_reps - result.dropped}


def _count_run_experiment(args, kwargs, result) -> Dict[str, str]:
    return {"experiment": (args[0] if args else kwargs["config"]).experiment}


def _count_write_csv(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# Counts recorded at the boundary where the work happens, keyed by span name.
COUNTERS: Dict[str, Callable] = {
    "ustat.log_spacing_sums": _count_log_spacing_sums,
    "ustat.pickands_ustat_batch": _count_batch,
    "estimators.gp_ml_fit": _count_gp_ml_fit,
    "asymptotics.parametric_bootstrap": _count_bootstrap,
    "harness.run_experiment": _count_run_experiment,
    "harness.write_csv": _count_write_csv,
}


class Tracer:
    """Keeps spans in memory; ``dump`` writes them out as JSON lines."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.op: Optional[str] = None  # id of the operation being traced

    def span_start(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def span_end(self, span: dict, counts: Optional[dict] = None) -> None:
        span["end"] = time.perf_counter()
        if counts:
            span.update(counts)
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.span_start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.span_end(span, {"raised": 1})
                raise
            tracer.span_end(span, counter(args, kwargs, result) if counter else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in PACKAGE_MODULES]
        wrappers: Dict[int, Callable] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__[len(package.__name__) + 1 :]
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Duration of each span minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Time one wrapper adds to a call: a wrapped no-op against the bare
    no-op, per call, median of ``repeats`` batches of ``calls`` calls."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("trace.noop", noop)

    def per_call(fn) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t) / calls

    costs = []
    for _ in range(repeats):
        costs.append(per_call(wrapped) - per_call(noop))
        tracer.spans.clear()
    return statistics.median(costs)
