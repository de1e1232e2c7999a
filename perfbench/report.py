"""Run every workload untraced and traced, and print all their metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each run is ``run.py`` in its own process, one after another.  The report
prints every line those runs print: the environment record, the correctness
gate's counts, every end-to-end and per-layer metric with its unit, and for
``deep`` the n~512 probe.  It then prints the tracing overhead of each
workload, the difference between its untraced and traced throughput.  The
exit code is 1 if any run failed or produced a wrong result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lattice", "deep", "curve")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=HERE.parent, capture_output=True, text=True, timeout=600
    )
    lines = done.stdout.splitlines()
    print(f"== {workload} (trace {trace}), exit {done.returncode}")
    for line in lines[:-1]:
        print(f"   {line}")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stderr)
        return {}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    ok = True
    overhead = {}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        ok = ok and bool(plain) and bool(traced) and plain["correct"] and traced["correct"]
        if plain and traced:
            untraced_tp = plain["metrics"]["throughput_ops_s"]["value"]
            traced_tp = traced["metrics"]["trace.throughput_ops_s"]["value"]
            overhead[workload] = (untraced_tp, traced_tp)
    print("== tracing overhead (untraced minus traced throughput_ops_s)")
    for workload, (untraced_tp, traced_tp) in overhead.items():
        diff = untraced_tp - traced_tp
        print(
            f"   {workload}: {untraced_tp:.4g} - {traced_tp:.4g} = {diff:.4g} 1/s "
            f"({100 * diff / untraced_tp:+.2f}% of untraced)"
        )
    print("== correctness gate: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
