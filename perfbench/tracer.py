"""Span tracing from outside the package, for the per-layer metrics.

Every public function of the traced modules is replaced by a wrapper, in the
defining module and in every ``takagi`` module that imported it, so calls
between modules and within one module both pass through it.  A wrapper
records one span (name, start, end, parent) in memory; spans are written out
when the run ends.  A span's self time is its duration minus the durations
of its child spans.  The package is single-threaded and has no queues, so
no layer has a wait time.

A few helpers run once per state or per digit and cost about as much as the
wrapper itself; they stay unwrapped and their time counts towards their
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator

TRACED_MODULES = ("rationals", "curve", "humps", "machine", "signed", "stats", "cli")
UNTRACED = frozenset(
    {"machine.step", "machine.is_feasible", "machine.envelope_max", "machine.envelope_min"}
)

# Spans whose self time or call count, and counters, that become per-layer
# metrics.  Every value is divided by the operations of the run, so runs
# that complete different numbers of operations compare directly.
SELF_TIMES = (
    "machine.close_graph",
    "machine.analyze",
    "machine.group_by_profile",
    "stats.grid_experiment",
    "cli.main",
    "rationals.to_binary",
    "curve.eval_rational",
    "signed.eval_signed_rational",
    "signed.truncated_local_count",
    "humps.truncated_hits",
)
CALLS = ("machine.close_graph", "machine.leftmost_preimage", "rationals.to_binary")
COUNTS = (
    "machine.states",
    "machine.preimages",
    "machine.budget_exits.slope",
    "machine.budget_exits.states",
)


def _observe_close_graph(counts: Counter, graph: Any) -> None:
    counts["machine.states"] += len(graph.nodes)
    if graph.budget_reason:
        counts[f"machine.budget_exits.{graph.budget_reason}"] += 1


def _observe_analyze(counts: Counter, report: Any) -> None:
    diagnostics = report.diagnostics
    if "live_states" in diagnostics:
        counts["machine.live_states"] += diagnostics["live_states"]
        counts["machine.analyzed_states"] += diagnostics["states"]
    counts["machine.preimages"] += len(report.preimages or ())


OBSERVERS: dict[str, Callable[[Counter, Any], None]] = {
    "machine.close_graph": _observe_close_graph,
    "machine.analyze": _observe_analyze,
}


class Tracer:
    """Records spans for every call into a traced public function."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active = True

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the traced modules' public functions; return how many."""
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"takagi.{short}"]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for name, module in list(sys.modules.items()):
            if name != "takagi" and not name.startswith("takagi."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        return len(wrappers)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside this block pass through unrecorded."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self seconds and call count per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_ns):
            self_s[name] = self_s.get(name, 0.0) + (end - start - children) / 1e9
            calls[name] += 1
        return self_s, calls

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, normalised per operation of the workload."""
        self_s, calls = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s/op")
        for name in CALLS:
            out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        for name in COUNTS:
            out[name] = (self.counts[name] / ops, "1/op")
        analyzed = self.counts["machine.analyzed_states"]
        ratio = self.counts["machine.live_states"] / analyzed if analyzed else 0.0
        out["machine.live_state_ratio"] = (ratio, "ratio")
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\n")
