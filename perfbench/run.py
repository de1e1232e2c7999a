"""Run one benchmark workload against the package in ``src/`` and report it.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Set-up (importing ``takagi`` afresh and building the seeded inputs) is
repeated a few times and its median reported.  Then operations run one after
another in this single process until ``--seconds`` of wall time have passed.
Each result is checked outside the timed region.  Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones taken from
span tracing (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MODULES = ("cli", "curve", "humps", "machine", "rationals", "signed", "stats")


def fresh_import() -> SimpleNamespace:
    """Import ``takagi`` from ``src/`` as if for the first time."""
    for name in [n for n in sys.modules if n == "takagi" or n.startswith("takagi.")]:
        del sys.modules[name]
    package = importlib.import_module("takagi")
    mods = {name: importlib.import_module(f"takagi.{name}") for name in MODULES}
    if Path(package.__file__).resolve().parent != SRC / "takagi":
        raise ImportError(f"takagi was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload: Any, seed: int, repeats: int = SETUP_REPEATS) -> tuple[Any, list, float]:
    """Import and build inputs ``repeats`` times; keep the last, time the median."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        mods = fresh_import()
        pool = workload.build(mods, seed)
        times.append(time.perf_counter() - start)
    return mods, pool, statistics.median(times)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def measure(
    workload: Any,
    mods: Any,
    pool: list,
    seconds: float,
    tracer: Optional[tracing.Tracer] = None,
) -> dict:
    """Run operations for ``seconds`` of wall time; check each outside the clock.

    No operation starts once the previous one, started now, would end past
    the deadline; the pool ends the run early if it runs out.
    """
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    items = itertools.cycle(pool) if workload.repeats else iter(pool)
    attempted = wrong = raised = undecided = passed = 0
    timed = 0.0
    latencies: list[float] = []
    items_done: list[tuple[float, int]] = []  # (timed seconds, operations passed)
    errors: Counter = Counter()
    start = time.perf_counter()
    last = 0.0
    for item in items:
        begun = time.perf_counter()
        if attempted and begun - start + last > seconds:
            break
        ops = workload.size(item)
        attempted += ops
        t0 = time.perf_counter()
        try:
            result, op_latencies = workload.run(mods, item)
        except Exception as exc:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - t0
            timed += elapsed
            items_done.append((elapsed, 0))
            raised += ops
            if not errors[type(exc).__name__]:
                traceback.print_exc(limit=3, file=sys.stderr)
            errors[type(exc).__name__] += ops
            last = time.perf_counter() - begun
            continue
        elapsed = time.perf_counter() - t0
        timed += elapsed
        with paused():
            outcome = workload.check(mods, item, result)
        passed += outcome.passed
        wrong += outcome.wrong
        undecided += outcome.undecided
        items_done.append((elapsed, outcome.passed))
        if outcome.passed:
            latencies.extend(op_latencies if op_latencies is not None else [elapsed])
        last = time.perf_counter() - begun
    latencies.sort()
    return {
        "attempted": attempted,
        "passed": passed,
        "wrong": wrong,
        "raised": raised,
        "errors": dict(errors),
        "undecided": undecided,
        "timed_s": timed,
        "wall_s": time.perf_counter() - start,
        "latencies": latencies,
        "items": items_done,
    }


def throughput(workload: Any, run: dict) -> float:
    """Passed operations per timed second, as the median over blocks of items.

    A block is ``workload.block_items`` consecutive pool items: one sweep of
    the lattice, one stratified block of deep ordinates, a run of curve
    records.  The median block is barely moved by a rare input that costs
    seconds (deep level sets can have thousands of preimages) or by a short
    burst of load from elsewhere on the host.
    """
    k = workload.block_items
    items = run["items"]
    blocks = [items[i : i + k] for i in range(0, len(items) - k + 1, k)] or [items]
    return statistics.median(sum(p for _, p in b) / sum(t for t, _ in b) for b in blocks)


def end_to_end(workload: Any, run: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    attempted = run["attempted"]
    failed = run["wrong"] + run["raised"]
    lat = run["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (throughput(workload, run), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * percentile(lat, workload.tail_percentile), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "decided_rate": ((attempted - run["undecided"]) / attempted, "ratio"),
    }


def source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "takagi").glob("*.py"))
    )


def environment(seed: int, workload: Any) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload.name,
        "src_takagi_lines": source_lines(),
        "lattice_sha256_expected": workloads.LATTICE_SHA256[5],
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "takagi" / "__init__.py").is_file():
        print(f"error: no takagi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    mods, pool, setup_s = set_up(workload, args.seed)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        print(f"tracing {tracer.install()} public functions")
    run = measure(workload, mods, pool, args.seconds, tracer)
    failed = run["wrong"] + run["raised"]
    attempted = run["attempted"]
    if not run["passed"]:
        print(f"error: none of {attempted} operations passed", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = end_to_end(workload, run, setup_s)
    else:
        metrics = tracer.metrics(attempted)
        metrics["trace.throughput_ops_s"] = (throughput(workload, run), "1/s")
        spans_path = ROOT / "perfbench" / "out" / f"spans-{workload.name}-{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    print("env " + json.dumps(environment(args.seed, workload), sort_keys=True))
    if workload.name == "lattice":
        rows = workload.size(pool[0])
        print(
            f"lattice_sha256 {workloads.LATTICE_SHA256[workload.depth]} matched by "
            f"{run['passed'] // rows} of {attempted // rows} sweeps"
        )
    print(
        f"operations attempted={attempted} passed={run['passed']} wrong={run['wrong']} "
        f"raised={run['raised']} {run['errors'] or ''} undecided={run['undecided']} "
        f"timed={run['timed_s']:.3f}s wall={run['wall_s']:.3f}s"
    )
    print(f"fail_rate = {failed / attempted:.6g} ratio")
    print(f"undecided_rate = {run['undecided'] / attempted:.6g} ratio")
    samples = len(run["latencies"])
    beyond = samples - math.ceil(workload.tail_percentile / 100 * samples)
    print(
        f"latency_tail_ms is p{workload.tail_percentile:g} of {samples} samples "
        f"({beyond} beyond it); throughput_ops_s is the median of "
        f"{max(1, len(run['items']) // workload.block_items)} blocks of "
        f"{workload.block_items} items"
    )
    if workload.name == "deep":
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            tally = workloads.probe_deep(mods, args.seed)
        print("probe n~512 (not in the measured operations) " + json.dumps(tally))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {
        "correct": run["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
