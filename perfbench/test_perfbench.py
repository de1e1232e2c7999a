"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import run as bench
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TINY = {
    "lattice": workloads.Lattice(depth=2),
    "deep": workloads.Deep(strata=((4, 3), (8, 2)), blocks=2),
    "curve": workloads.Curve(records=20),
}


@pytest.fixture
def mods():
    """A fresh import, so wrappers a test installs never reach the next test."""
    if str(bench.SRC) not in sys.path:
        sys.path.insert(0, str(bench.SRC))
    return bench.fresh_import()


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_runs_at_tiny_size(mods, name, trace):
    workload = TINY[name]
    mods, pool, setup_s = bench.set_up(workload, seed=3, repeats=2)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    result = bench.measure(workload, mods, pool, 0.3, tracer)
    assert result["wrong"] == result["raised"] == 0
    assert result["passed"] == result["attempted"] > 0
    if trace:
        metrics = tracer.metrics(result["attempted"])
        metrics["trace.throughput_ops_s"] = (1.0, "1/s")
        assert {k: unit for k, (_, unit) in metrics.items()} == PER_LAYER
        assert tracer.spans
    else:
        metrics = bench.end_to_end(workload, result, setup_s)
        assert {k: unit for k, (_, unit) in metrics.items()} == END_TO_END
        assert all(value > 0 for value, _ in metrics.values())


def test_tracer_self_time_excludes_children(mods):
    tracer = tracing.Tracer()
    tracer.install()
    mods.machine.classify(Fraction(7, 12))
    self_s, calls = tracer.self_times()
    assert calls["machine.classify"] == calls["machine.close_graph"] == 1
    (span,) = [s for s in tracer.spans if s[0] == "machine.classify"]
    total = (span[2] - span[1]) / 1e9
    assert 0 < self_s["machine.classify"] < total
    assert self_s["machine.close_graph"] + self_s["machine.analyze"] < total


class FlippedLattice(workloads.Lattice):
    def run(self, mods, argv):
        (code, text), latencies = super().run(mods, argv)
        i = len(text) // 2
        return (code, text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]), latencies


class WrongPreimageDeep(workloads.Deep):
    def run(self, mods, y):
        report, _ = super().run(mods, y)
        if report.preimages:
            bad = (report.preimages[0] + Fraction(1, 3**7),) + report.preimages[1:]
            report = replace(report, preimages=bad)
        elif report.witness_preimage is not None:
            report = replace(report, witness_preimage=report.witness_preimage / 3)
        else:
            report = replace(report, verdict=mods.machine.Verdict.FINITE, preimages=())
        return report, None


class WrongSignedCurve(workloads.Curve):
    def run(self, mods, record):
        result, _ = super().run(mods, record)
        return result[:3] + (result[3] + 1,) + result[4:], None


@pytest.mark.parametrize(
    "workload",
    [
        FlippedLattice(depth=2),
        WrongPreimageDeep(strata=((4, 3), (8, 2)), blocks=2),
        WrongSignedCurve(records=5),
    ],
    ids=["lattice-flipped-byte", "deep-wrong-preimage", "curve-wrong-value"],
)
def test_corrupted_results_count_as_failures(mods, workload):
    mods, pool, _ = bench.set_up(workload, seed=3, repeats=1)
    result = bench.measure(workload, mods, pool, 0.3)
    assert result["attempted"] > 0
    assert result["wrong"] == result["attempted"]
    assert result["passed"] == 0


def test_deep_check_catches_each_broken_property(mods):
    deep = workloads.Deep()
    y = Fraction(7, 12)
    report = mods.machine.classify(y)
    assert deep.check(mods, y, report) == workloads.Outcome(passed=1)
    x = report.preimages
    broken = [
        replace(report, preimages=(Fraction(1, 5),) + x[1:-1] + (Fraction(4, 5),)),
        replace(report, preimages=x[:-1]),
        replace(report, preimages=x[:-1] + (x[-1] + Fraction(1, 48),)),
    ]
    for bad in broken:
        assert deep.check(mods, y, bad).wrong == 1
    countable = mods.machine.classify(Fraction(1, 2))
    assert countable.verdict.value == "countably-infinite"
    assert deep.check(mods, Fraction(1, 2), countable).passed == 1
    unwitnessed = replace(countable, witness_preimage=Fraction(1, 7))
    assert deep.check(mods, Fraction(1, 2), unwitnessed).wrong == 1


def test_deep_operation_over_budget_counts_as_undecided(mods):
    deep = workloads.Deep(strata=((128, 2),), blocks=1)
    deep.budget_s = 1e-4
    mods, pool, _ = bench.set_up(deep, seed=3, repeats=1)
    result = bench.measure(deep, mods, pool, 0.3)
    assert result["undecided"] == result["passed"] == result["attempted"] == 2
    assert result["wrong"] == result["raised"] == 0


@pytest.mark.parametrize("name", ["deep", "curve"])
def test_same_seed_gives_same_inputs(mods, name):
    workload = workloads.WORKLOADS[name]()
    first = workload.build(mods, 11)
    assert first == workload.build(mods, 11)
    assert first != workload.build(mods, 12)


def test_command_prints_contract_result():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
