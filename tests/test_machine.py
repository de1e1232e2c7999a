"""State machine: feasibility envelope, graph closure, verdicts, preimages."""

import ast
import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import _oracles as oracles
from takagi import machine
from takagi.curve import eval_rational
from takagi.machine import (
    MAX_RAY,
    ONES_RAY,
    ZERO_RAY,
    BudgetExceededError,
    LevelSetReport,
    StateGraph,
    Verdict,
    analyze,
    classify,
    close_graph,
    envelope_max,
    envelope_min,
    is_feasible,
    leftmost_preimage,
    step,
)
from takagi.rationals import split_denominator, to_binary
from takagi.stats import grid_experiment


def test_envelope_pins():
    assert envelope_max(0) == Fraction(2, 3)
    assert envelope_max(1) == Fraction(4, 3)
    assert envelope_max(-1) == Fraction(1, 3)
    assert envelope_max(2) == Fraction(13, 6)
    assert envelope_min(0) == 0
    assert envelope_min(3) == 0
    assert envelope_min(-2) == -2


def test_envelope_recursion_and_symmetry():
    # max(T + Dt) splits over the two half-intervals, giving an exact
    # self-consistency the closed form must satisfy; the x -> 1-x symmetry
    # of the curve gives the reflection law.
    for d in range(-32, 33):
        g = envelope_max(d)
        assert g == max(envelope_max(d + 1) / 2, (d + 1 + envelope_max(d - 1)) / 2)
        assert envelope_max(-d) == g - d
        assert envelope_min(d) == min(0, d)


def test_step_and_feasibility():
    y = Fraction(5, 8)
    assert step((0, y), 0) == (1, Fraction(5, 4))
    assert step((0, y), 1) == (-1, Fraction(1, 4))
    assert is_feasible((0, Fraction(2, 3)))
    assert not is_feasible((0, Fraction(2, 3) + Fraction(1, 10**9)))
    assert is_feasible((-1, Fraction(-1)))
    assert not is_feasible((-1, Fraction(-2)))


GOLD_STATES = {
    Fraction(0): 1,
    Fraction(1, 8): 11,
    Fraction(3, 128): 19,
    Fraction(1, 256): 23,
    Fraction(1, 2): 8,
    Fraction(2, 3): 3,
    Fraction(1, 3): 7,
    Fraction(7, 12): 10,
    Fraction(9, 16): 21,
    Fraction(37, 96): 28,
}


def test_graph_sizes_frozen():
    for y, states in GOLD_STATES.items():
        report = classify(y)
        assert report.diagnostics["states"] == states, y


def test_gold_verdicts():
    assert classify(Fraction(0)).verdict is Verdict.FINITE
    assert classify(Fraction(1, 8)).verdict is Verdict.FINITE
    assert classify(Fraction(1, 2)).verdict is Verdict.COUNTABLY_INFINITE
    assert classify(Fraction(9, 16)).verdict is Verdict.COUNTABLY_INFINITE
    assert classify(Fraction(2, 3)).verdict is Verdict.UNCOUNTABLE
    assert classify(Fraction(37, 96)).verdict is Verdict.UNCOUNTABLE


def test_verdict_wire_values():
    assert Verdict.FINITE.value == "finite"
    assert Verdict.COUNTABLY_INFINITE.value == "countably-infinite"
    assert Verdict.UNCOUNTABLE.value == "uncountable"
    assert Verdict.INDETERMINATE.value == "indeterminate"


def test_zero_is_special():
    report = classify(Fraction(0))
    assert report.verdict is Verdict.FINITE
    assert report.preimages == (Fraction(0), Fraction(1))
    assert report.cardinality == 2
    assert report.n_local == 1


def test_finite_reports_carry_exact_preimages():
    report = classify(Fraction(7, 12))
    assert report.cardinality == 4
    assert report.preimages == (
        Fraction(13, 48),
        Fraction(23, 48),
        Fraction(25, 48),
        Fraction(35, 48),
    )
    assert report.n_local == 1
    for x in report.preimages:
        assert eval_rational(x) == Fraction(7, 12)
    # paths and points line up one-to-one
    assert tuple(p.value() for p in report.paths) == report.preimages


def test_deep_ordinates_enumerate_without_recursion():
    """Preimage prefixes run to 2n = 2000 digits at n = 1000, past the
    interpreter's default recursion limit; path enumeration must not care.
    The draws j / (3 * 4^n) with 3 not dividing j are never values of T at
    dyadic points, and each of them closes within the slope budget."""
    n = 1000
    rng = random.Random(20000)
    for _ in range(3):
        j = rng.randrange(2 * 4**n + 1)
        while j % 3 == 0:
            j = rng.randrange(2 * 4**n + 1)
        y = Fraction(j, 3 * 4**n)
        report = classify(y)
        assert report.verdict is Verdict.FINITE
        assert report.cardinality == len(report.preimages) > 0
        for x in report.preimages:
            assert eval_rational(x) == y


def test_countable_witness_attains_the_level():
    for y in [Fraction(1, 2), Fraction(9, 16), Fraction(1, 4)]:
        report = classify(y)
        assert report.verdict is Verdict.COUNTABLY_INFINITE
        assert report.witness_preimage is not None
        assert eval_rational(report.witness_preimage) == y
        assert report.cardinality is None


def test_uncountable_reports():
    report = classify(Fraction(2, 3))
    assert report.verdict is Verdict.UNCOUNTABLE
    assert report.preimages is None
    assert report.witness  # a state label describing the certificate


def _hand_graph(y, edges):
    """A closed graph from (D, R) states: ``edges`` maps each state to its
    {digit: child} edges, the first state is the root and ids follow the
    order of ``edges``; the ray flags are the ones close_graph would set."""
    graph = StateGraph(y, 0)
    ids = {state: v for v, state in enumerate(edges)}
    for v, ((slope, residue), out) in enumerate(edges.items()):
        graph.nodes[slope, residue * y.denominator] = v
        graph.slope.append(slope)
        graph.num.append(int(residue * y.denominator))
        graph.flags.append(
            (ZERO_RAY if residue == 0 and slope >= 0 else 0)
            | (ONES_RAY if residue == slope and slope <= -1 else 0)
            | (MAX_RAY if residue == envelope_max(slope) else 0)
        )
        graph.child0.append(ids[out[0]] if 0 in out else -1)
        graph.child1.append(ids[out[1]] if 1 in out else -1)
    return graph


def test_cycle_exit_is_countable():
    """A cycle {a, b} that can be left towards the exit-free cycle {c, d}:
    no sampled ordinate reaches this branch, so the graph is built by hand."""
    a, b = (0, Fraction(1, 3)), (1, Fraction(2, 3))
    c, d = (2, Fraction(4, 3)), (1, Fraction(1))
    graph = _hand_graph(Fraction(1, 3), {a: {0: b}, b: {0: c, 1: a}, c: {1: d}, d: {0: c}})
    report = analyze(graph)
    assert report.verdict is Verdict.COUNTABLY_INFINITE
    assert report.witness == "cycle through (D=1, R=2/3) can be left towards (D=2, R=4/3)"
    assert report.witness_preimage == Fraction(1, 6)  # leftmost walk 0.00(10)
    assert report.diagnostics["cycles"] == 2
    assert report.diagnostics["live_states"] == 4


def test_branching_cycle_cluster_is_uncountable():
    """Both digits lead from a to b and b returns to a: three edges inside a
    two-state cycle cluster pump a Cantor set of suffixes."""
    a, b = (0, Fraction(1, 3)), (1, Fraction(2, 3))
    graph = _hand_graph(Fraction(1, 3), {a: {0: b, 1: b}, b: {1: a}})
    report = analyze(graph)
    assert report.verdict is Verdict.UNCOUNTABLE
    assert report.witness == "branching cycle cluster {(D=0, R=1/3), (D=1, R=2/3)}"
    assert report.preimages is None


def test_out_of_range_is_empty():
    for y in [Fraction(3, 4), Fraction(-1, 8), Fraction(17, 24)]:
        report = classify(y)
        assert report.verdict is Verdict.FINITE
        assert report.cardinality == 0
        assert report.preimages == ()


def test_int_and_edge_ordinates_pinned():
    """Ordinates given as int, the ends of [0, 2/3], a point outside it and
    1/2, under both ``listing`` values: the verdict, the cardinality and
    the state count are pinned, and the report equals the one for the
    Fraction of the same value."""
    cases = {
        0: (Verdict.FINITE, 2, 1),
        1: (Verdict.FINITE, 0, 0),
        Fraction(-1, 3): (Verdict.FINITE, 0, 0),
        Fraction(2, 3): (Verdict.UNCOUNTABLE, None, 3),
        Fraction(1, 2): (Verdict.COUNTABLY_INFINITE, None, 8),
    }
    for y, pinned in cases.items():
        for listing in (True, False):
            report = classify(y, listing=listing)
            got = (report.verdict, report.cardinality, report.diagnostics["states"])
            assert got == pinned, (y, listing)
            assert report == classify(Fraction(y), listing=listing), (y, listing)


def test_reports_keep_the_dataclass_contract():
    """classify's reports, of every verdict, listed and count-only, are
    the frozen dataclass its constructor builds: equal to the report
    ``LevelSetReport(**fields)`` makes from the same fields, with the same
    repr and attributes, raising FrozenInstanceError on assignment, and
    ``dataclasses.replace`` copies and edits them."""
    ordinates = (0, Fraction(1, 8), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 49))
    verdicts = set()
    for y in ordinates:
        for listing in (True, False):
            report = classify(y, listing=listing)
            verdicts.add(report.verdict)
            fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
            built = LevelSetReport(**fields)
            assert report == built and repr(report) == repr(built), (y, listing)
            assert vars(report) == vars(built), (y, listing)
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.cardinality = 7
            assert dataclasses.replace(report) == report
            edited = dataclasses.replace(report, witness="edited")
            assert edited.witness == "edited" != report.witness
    assert verdicts == set(Verdict)


def test_unsupported_denominator_raises():
    # Denominators other than 2^k and 3 * 2^k were once refused; 1/5 now
    # gets the verdict of any other ordinate.
    report = classify(Fraction(1, 5))
    assert (report.verdict, report.cardinality) == (Verdict.FINITE, 2)
    assert [eval_rational(x) for x in report.preimages] == [Fraction(1, 5)] * 2


def test_budget_exhaustion_is_indeterminate():
    report = classify(Fraction(1, 2), max_states=3)
    assert report.verdict is Verdict.INDETERMINATE
    assert report.diagnostics["closed"] is False
    report = classify(Fraction(1, 49))  # the suffix (001)^inf drifts
    assert report.verdict is Verdict.INDETERMINATE
    assert report.diagnostics["budget_reason"] == "slope"


def test_preimage_budget_is_indeterminate(monkeypatch):
    """L(2/3 - 1/(3 * 2^k)) has 2^(k/2 + 1) points; at k = 68 that is 2^35,
    known from the root count of a 109-state graph before any is listed."""
    start = time.perf_counter()
    report = classify(Fraction(2**69 - 1, 3 * 2**68))
    assert time.perf_counter() - start < 1.0
    assert report.verdict is Verdict.INDETERMINATE
    assert report.witness == "budget exceeded (preimages)"
    assert report.diagnostics["budget_reason"] == "preimages"
    assert report.diagnostics["closed"] is True
    y = Fraction(2**7 - 1, 3 * 2**6)  # k = 6: 16 points
    monkeypatch.setattr(machine, "MAX_PREIMAGES", 16)
    assert classify(y).cardinality == 16
    monkeypatch.setattr(machine, "MAX_PREIMAGES", 15)
    assert classify(y).verdict is Verdict.INDETERMINATE


def test_count_only_has_no_preimage_budget():
    """A count-only report lists no point, so ``MAX_PREIMAGES`` does not
    bound it: L(2/3 - 1/(3 * 2^68)) is Finite, with 2^35 points in one local
    level set, read off the root of its 109-state graph."""
    start = time.perf_counter()
    report = classify(Fraction(2**69 - 1, 3 * 2**68), listing=False)
    assert time.perf_counter() - start < 1.0
    assert (report.verdict, report.cardinality, report.n_local) == (Verdict.FINITE, 2**35, 1)
    assert report.preimages is None and report.paths is None
    assert report.diagnostics["states"] == 109 and "budget_reason" not in report.diagnostics


def test_leftmost_pins():
    assert leftmost_preimage(Fraction(1, 2)) == Fraction(1, 6)
    assert leftmost_preimage(Fraction(2, 3)) == Fraction(1, 3)
    assert leftmost_preimage(Fraction(0)) == Fraction(0)
    assert leftmost_preimage(Fraction(1, 8)) == Fraction(1, 48)
    with pytest.raises(ValueError):
        leftmost_preimage(Fraction(7, 10) + Fraction(1, 10))  # 4/5 > 2/3
    with pytest.raises(ValueError):
        leftmost_preimage(Fraction(3, 4))  # above the range


def test_leftmost_agrees_with_finite_reports():
    rng = random.Random(11)
    for _ in range(40):
        j = rng.randrange(2 * 4**4 + 1)
        y = Fraction(j, 3 * 4**4)
        report = classify(y)
        if report.verdict is Verdict.FINITE and report.cardinality:
            assert leftmost_preimage(y) == report.preimages[0]
        elif report.verdict is not Verdict.FINITE:
            x = leftmost_preimage(y)
            assert eval_rational(x) == y


def _word(digits):
    return "".join(map(str, digits))


# y: ((preperiod, period) of each path of the Finite report, leftmost preimage)
WALKER_PINS = {
    "3/128": ([("00000000", "10"), ("11111111", "01")], "1/384"),
    "7/96": ([("000000", "10"), ("111111", "01")], "1/96"),
    "29/384": ([("00000010", "1100"), ("11111101", "0011")], "7/640"),
    "11/128": ([("00000011", "01"), ("11111100", "10")], "5/384"),
}


def test_walker_paths_and_leftmost_pins():
    """A path ends at the first revisit of one of its states, so a cycle
    entered mid-period keeps the rotation it was entered at."""
    for y, (paths, leftmost) in WALKER_PINS.items():
        report = classify(Fraction(y))
        assert [(_word(p.preperiod), _word(p.period)) for p in report.paths] == paths
        assert leftmost_preimage(Fraction(y)) == report.preimages[0] == Fraction(leftmost)
    canonical = to_binary(Fraction(7, 640))
    assert (_word(canonical.preperiod), _word(canonical.period)) == ("0000001", "0110")


def test_residuals_recompute_along_graph():
    """Spot-check the graph's bookkeeping: R at a node reached by a digit
    word w must equal (y - value(w)) * 2^len(w), and every node must obey
    the feasibility window [min(0, D), g(D)]."""
    rng = random.Random(23)
    count = 0
    for _ in range(25):
        j = rng.randrange(2 * 4**3 + 1)
        y = Fraction(j, 3 * 4**3)
        graph = close_graph(y)
        assert graph.closed
        # walk 40 random digit strings through the graph
        for _ in range(40):
            if not graph.nodes:
                break
            v = 0  # the root
            slope, residue, value, depth = 0, y, Fraction(0), 0
            while True:
                assert graph.slope[v] == slope
                assert Fraction(graph.num[v], y.denominator) == residue
                assert envelope_min(slope) <= residue <= envelope_max(slope)
                assert residue == (y - value) * (1 << depth)
                count += 1
                children = (graph.child0[v], graph.child1[v])
                nxt = [b for b in (0, 1) if children[b] >= 0]
                if not nxt or depth > 30:
                    break
                bit = rng.choice(nxt)
                if bit:
                    value += Fraction(slope + 1, 1 << (depth + 1))
                slope, residue = step((slope, residue), bit)
                depth += 1
                v = children[bit]
    assert count > 1000


def test_integer_closure_matches_fraction_reference():
    """Every edge of the integer closure, present or omitted, against the
    Fraction rules: a present child is step() of its parent and feasible, an
    omitted one is infeasible, and each state's flag, 0 or a single ray,
    matches the rays' (D, R) definitions.  Ids number the states in
    breadth-first order, so each state but the root has an edge in from a
    smaller id.  The graph is closed under the fold, which the profile count
    relies on.  The deep draws push |D| past 40, where 2^|D| is big."""
    rng = random.Random(1102)
    ordinates = [Fraction(2, 3), Fraction(1, 2), Fraction(37, 96)]
    for n in (4, 16, 64, 128):
        for den in (4**n, 3 * 4**n):
            ordinates += [Fraction(rng.randrange(2 * den // 3 + 1), den) for _ in range(4)]
    widest = 0
    for y in ordinates:
        graph = close_graph(y)
        assert graph.closed, y
        keys = list(graph.nodes)
        assert list(graph.nodes.values()) == list(range(len(keys)))
        assert set(graph.flags) <= {0, ZERO_RAY, ONES_RAY, MAX_RAY}
        first_source = {}  # the smallest id with an edge into each id
        for u, children in enumerate(zip(graph.child0, graph.child1)):
            for c in children:
                first_source.setdefault(c, u)

        def fold(key):  # (D, N) -> (-D, N - D S): the complemented suffix
            *depth, slope, num = key
            return (*depth, -slope, num - slope * y.denominator)

        def edges(v):  # {digit: child key}
            children = (graph.child0[v], graph.child1[v])
            return {bit: keys[c] for bit, c in enumerate(children) if c >= 0}

        for key, v in graph.nodes.items():
            slope, residue = graph.slope[v], Fraction(graph.num[v], y.denominator)
            zero_ray, ones_ray, max_ray = (
                bool(graph.flags[v] & ray) for ray in (ZERO_RAY, ONES_RAY, MAX_RAY)
            )
            if v:
                assert first_source[v] < v
            # the fold of every state is a state, at the same depth before the lattice
            mirror = graph.nodes[fold(key)]
            if zero_ray and slope >= 1:
                assert graph.flags[mirror] & ONES_RAY
            elif not (zero_ray or ones_ray):
                assert edges(mirror) == {1 - bit: fold(c) for bit, c in edges(v).items()}
            if slope == 0 and edges(v):
                assert edges(v)[1] == fold(edges(v)[0])
            state = (slope, residue)
            assert is_feasible(state)
            assert zero_ray == (residue == 0 and slope >= 0)
            assert ones_ray == (residue == slope and slope <= -1)
            assert max_ray == (residue == envelope_max(slope))
            widest = max(widest, abs(slope))
            if zero_ray or ones_ray:
                assert not edges(v)
                continue
            for bit in (0, 1):
                ref = step(state, bit)
                if bit in edges(v):
                    child = graph.nodes[edges(v)[bit]]
                    assert (graph.slope[child], Fraction(graph.num[child], y.denominator)) == ref
                else:
                    assert not is_feasible(ref), (y, state, bit)
    assert widest > 40


def test_profile_grouping():
    """n_local, the root's profile count, against the |D| profile classes of
    the preimage list: pins, the depth-4 lattice and deep seeded draws."""
    for y, n_local in ((Fraction(7, 12), 1), (Fraction(1, 8), 1), (Fraction(193, 768), 2)):
        report = classify(y)
        assert report.n_local == oracles.profile_classes(report.paths) == n_local
    rng = random.Random(1009)
    ordinates = [Fraction(j, 3 * 4**4) for j in range(2 * 4**4 + 1)]
    for n in (32, 64):
        ordinates += [Fraction(rng.randrange(2 * 4**n + 1), 3 * 4**n) for _ in range(100)]
    finite = 0
    for y in ordinates:
        report = classify(y)
        if report.verdict is Verdict.FINITE:
            finite += 1
            assert report.n_local == oracles.profile_classes(report.paths), y
    assert finite > 300


def test_sign_change_oracle_small_sample():
    total = oracles.int_grid(16)
    rng = random.Random(5)
    for _ in range(15):
        j = rng.randrange(2 * 4**3 + 1)
        y = Fraction(j, 3 * 4**3)
        report = classify(y)
        if report.verdict is Verdict.FINITE and report.cardinality:
            assert oracles.sign_change_count(total, 16, y) == report.cardinality


def test_open_denominators_against_oracles():
    # y = j / (m 2^k) with odd m >= 5: every finite preimage and countable
    # witness attains y, and the cardinality matches the sign changes on the
    # 2^-20 grid wherever consecutive preimages are more than 2^-19 apart
    # (closer ones the grid cannot separate: 26/61 has 22 preimages within
    # 5e-10 of one another).
    total = oracles.int_grid(20)
    rng = random.Random(12)
    verdicts, compared = [], 0
    for _ in range(80):
        den = rng.randrange(5, 64, 2) << rng.randint(0, 5)
        y = Fraction(rng.randrange(1, 2 * den // 3 + 1), den)
        report = classify(y)
        verdicts.append(report.verdict)
        if report.witness_preimage is not None:
            assert eval_rational(report.witness_preimage) == y, y
        if report.verdict is not Verdict.FINITE:
            continue
        xs = report.preimages
        assert all(eval_rational(x) == y for x in xs), y
        if all(b - a > Fraction(1, 2**19) for a, b in zip(xs, xs[1:])):
            assert oracles.sign_change_count(total, 20, y) == report.cardinality, y
            compared += 1
    assert compared > 60 and Verdict.UNCOUNTABLE in verdicts
    for y in (Fraction(2, 13), Fraction(8, 51)):
        assert classify(y).verdict is Verdict.UNCOUNTABLE


def test_open_denominator_sample_is_decided():
    """Seeded j / (m * 2^k) with odd m in [3, 2000) and k in [0, 20), j in
    [1, 2 den / 3]: the count-only report is the listed one without its
    points, every listed point attains y, and the only Indeterminate
    reports are slope exits (drifts, or odd parts too wide for the
    margin).  The tally is pinned; under a fixed slope budget of 64, 58 of
    these 160 draws were refused."""
    rng = random.Random(20261020)
    points = dict(preimages=None, paths=None, witness_preimage=None)
    verdicts = dict.fromkeys(Verdict, 0)
    for _ in range(160):
        den = rng.randrange(3, 2000, 2) << rng.randrange(20)
        y = Fraction(rng.randrange(1, 2 * den // 3 + 1), den)
        counted, listed = classify(y, listing=False), classify(y)
        assert counted == dataclasses.replace(listed, **points), y
        assert all(eval_rational(x) == y for x in listed.preimages or ()), y
        if listed.verdict is Verdict.INDETERMINATE:
            assert listed.witness == "budget exceeded (slope)", y
        verdicts[listed.verdict] += 1
    assert verdicts == {Verdict.FINITE: 154, Verdict.COUNTABLY_INFINITE: 0,
                        Verdict.UNCOUNTABLE: 3, Verdict.INDETERMINATE: 3}, verdicts


def test_near_dyadic_and_drift_pins():
    """1 / (3 * 2^k) closes at largest |D| a little past k, within the slope
    budget k + SLOPE_MARGIN, and has two preimages in one local level set;
    the drift ordinates, whose suffixes such as (001)^inf under 1/49 move
    D by one per period, stay slope exits."""
    for k in (100, 300, 1000, 2000):
        y = Fraction(1, 3 << k)
        report = classify(y)
        assert (report.verdict, report.cardinality, report.n_local) == (Verdict.FINITE, 2, 1), k
        assert all(eval_rational(x) == y for x in report.preimages), k
    for y in (Fraction(1, 49), Fraction(29, 98), Fraction(1, 225)):
        report = classify(y)
        assert report.verdict is Verdict.INDETERMINATE, y
        assert report.diagnostics["budget_reason"] == "slope", y


def _report_line(y, report):
    paths = "" if report.paths is None else " ".join(p.render() for p in report.paths)
    preimages = "" if report.preimages is None else " ".join(map(str, report.preimages))
    diagnostics = ",".join(f"{k}={v}" for k, v in sorted(report.diagnostics.items()))
    fields = (y, report.verdict.value, report.cardinality, preimages, paths, report.n_local,
              report.witness, report.witness_preimage, diagnostics)
    return "|".join(map(str, fields))


def test_deep_report_fingerprint():
    """SHA-256 of every field of 180 reports on the graphs the `deep`
    benchmark measures: 50 seeded j / (3 * 4^n) at each of n = 32, 64, 128
    and 30 seeded open-denominator ordinates.  The grid fingerprints stop at
    depth 6, whose graphs are a few dozen states."""
    rng = random.Random(1411)
    ordinates = [
        Fraction(rng.randrange(2 * 4**n + 1), 3 * 4**n) for n in (32, 64, 128) for _ in range(50)
    ]
    for _ in range(30):
        den = rng.randrange(5, 64, 2) << rng.randint(0, 5)
        ordinates.append(Fraction(rng.randrange(1, 2 * den // 3 + 1), den))
    text = "\n".join(_report_line(y, classify(y)) for y in ordinates)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "674e64afa53359fbed544bb2806f3d77a53b1a7bffea3722039d9c009e4fdda9"
    )


def _seeded_ordinates(seed, depths, per_depth, odd):
    """Seeded j / (3 * 4^n) for each n in ``depths``, then ``odd`` seeded
    j / (m * 2^k) with odd m from 5 to 63 and k <= 5."""
    rng = random.Random(seed)
    ordinates = [
        Fraction(rng.randrange(2 * 4**n + 1), 3 * 4**n) for n in depths for _ in range(per_depth)
    ]
    for _ in range(odd):
        den = rng.randrange(5, 64, 2) << rng.randint(0, 5)
        ordinates.append(Fraction(rng.randrange(1, 2 * den // 3 + 1), den))
    return ordinates


def _slope_budget(monkeypatch, y, cap):
    """Make the slope budget of ``y`` ``cap``: SLOPE_MARGIN = cap - k for
    den(y) = 2^k m.  The setting lasts until the next call or the test's
    end."""
    monkeypatch.setattr(machine, "SLOPE_MARGIN", cap - split_denominator(y)[0])


def test_prefix_is_a_layered_dag(monkeypatch):
    """The tagged states are the ids below ``prefix``; their edges lead one
    depth down, to a larger id, and no core edge leads back into them."""
    ordinates = [Fraction(j, 3 * 4**5) for j in range(2 * 4**5 + 1)]
    ordinates += _seeded_ordinates(1717, (32, 64, 128), 20, 40)
    for y in ordinates:
        graph = close_graph(y)
        assert graph.closed, y
        prefix, keys = graph.prefix, list(graph.nodes)
        assert prefix == sum(len(key) == 3 for key in keys), y
        for v, children in enumerate(zip(graph.child0, graph.child1)):
            for child in children:
                if child < 0:
                    continue
                if v < prefix:  # keys (depth, D, N) until the lattice depth
                    assert child > v, (y, v, child)
                    depth = keys[v][0] + 1
                    assert keys[child][0] == depth if depth < graph.lattice_depth else child >= prefix
                else:
                    assert child >= prefix, (y, v, child)
    for y in (Fraction(2, 3), Fraction(1, 5)):
        graph = close_graph(y)
        assert graph.lattice_depth == graph.prefix == 0 < len(graph.slope)
    # closures stopped by a budget above the lattice depth: every state is tagged
    stopped = [close_graph(Fraction(1, 2**20), max_states=3)]
    _slope_budget(monkeypatch, Fraction(37, 96), 1)
    stopped.append(close_graph(Fraction(37, 96)))
    for graph in stopped:
        assert not graph.closed and graph.lattice_depth > 0
        assert graph.prefix == len(graph.slope)


def test_core_tarjan_matches_whole_graph():
    """The cold pass, one Tarjan on the core that counts each component as
    it emits it, then the prefix sweep, against Tarjan from every id and
    one count pass over its components (the reference in _oracles): the
    same counts, profiles and liveness everywhere, and, over the reference's
    cycle clusters once the prefix ids are filtered out, in its order, the
    same number of clusters, the same first branching cluster (more edges
    inside it than members), members in emission order, and the same first
    cycle exit, the first edge of a cluster, in member order, 0-digit first,
    to a live state outside it.  Every depth-6 row, seeded deep and
    open-denominator draws and the hand-built graphs, which give the
    branching cluster and the exit."""
    graphs = [close_graph(y) for y in [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]]
    graphs += [close_graph(y) for y in _seeded_ordinates(1718, (32, 64, 128), 40, 80)]
    graphs += _hand_graphs()
    found = dict.fromkeys(("cycles", "branching", "exits"), 0)
    for graph in graphs:
        if not graph.closed:
            continue
        y = graph.ordinate
        counts, profiles, clusters, branching, exit_edge = machine._live_states(graph)
        ref_comps, ref_counts, ref_profiles, ref_live = oracles.whole_graph_live_states(graph)
        live = [n > 0 for n in counts]
        assert (counts, profiles, live) == (ref_counts, ref_profiles, ref_live), y
        cores = [c for c in ref_comps if len(c) > 1 and c[0] >= graph.prefix]
        edges = [[(v, w) for v in c for w in (graph.child0[v], graph.child1[v])] for c in cores]
        ref_branching = next(
            (c for c, out in zip(cores, edges) if sum(w in c for _, w in out) > len(c)), []
        )
        ref_exit = next(
            ((v, w) for c, out in zip(cores, edges) for v, w in out if w not in c and ref_live[w]),
            (-1, -1),
        )
        assert (clusters, branching, exit_edge) == (len(cores), ref_branching, ref_exit), y
        found["cycles"] += clusters
        found["branching"] += bool(branching)
        found["exits"] += exit_edge[0] >= 0
    assert found["cycles"] > 10_000 and found["branching"] > 100 and found["exits"] > 1000, found


def test_leftmost_matches_first_preimage_deep():
    """The 0-digit-first walk from the root through the prefix into the
    core: its first path is the first listed preimage, or the witness of
    an exit edge leaving a cycle (no sampled ordinate has one; see
    test_cycle_exit_is_countable).  A dyadic witness is some point of L(y),
    so the leftmost preimage attains y and lies at or below it."""
    finite = 0
    for y in _seeded_ordinates(1719, (32, 64, 128), 20, 0):
        report = classify(y)
        if report.verdict is Verdict.FINITE:
            assert leftmost_preimage(y) == report.preimages[0], y
            finite += 1
        elif report.verdict is Verdict.COUNTABLY_INFINITE:
            x = leftmost_preimage(y)
            if report.witness.startswith("cycle"):
                assert x == report.witness_preimage, y
            assert eval_rational(x) == y and x <= report.witness_preimage, y
    assert finite > 40


def test_dyadic_witness_is_first_breadth_first_word():
    """The dyadic witness, rebuilt from the child lists, against a
    breadth-first, 0-digit-first search over the Fraction rules (_oracles):
    the value of the first word that ends on a zero ray.  Every countable
    row of the depth-6 lattice and seeded deep and open-denominator draws;
    a SHA-256 of (y, witness) over the depth-6 rows pins the witnesses."""

    def witness(y):  # the checked witness of a countable L(y), else None
        report = classify(y)
        if report.verdict is not Verdict.COUNTABLY_INFINITE:
            return None
        assert report.witness == "attained at a dyadic point", y
        assert report.witness_preimage == oracles.first_dyadic_preimage(y), y
        return report.witness_preimage

    lattice = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    lines = [f"{y}|{x}" for y in lattice if (x := witness(y)) is not None]
    assert len(lines) == 2002
    assert (
        hashlib.sha256("\n".join(lines).encode()).hexdigest()
        == "c87ecdbbb4a0a248f5ee097eaa6b218daae28a8482e56fff2883a71c34c0772e"
    )
    drawn = [witness(y) for y in _seeded_ordinates(1720, (32, 64, 128), 60, 120)]
    assert sum(x is not None for x in drawn) > 30


def _graph_fields(graph):
    return (list(graph.nodes.items()), graph.slope, graph.num, graph.flags, graph.child0,
            graph.child1, graph.prefix, graph.budget_reason)


def _cap_boundary_children(graph):
    """The children whose |D| grows to some a and whose excess
    N - max(0, D) S is (2S // 3) >> a, the largest that fits: how many are
    max rays and how many are not."""
    scale = graph.ordinate.denominator
    cap = 2 * scale // 3
    found = {"max_ray": 0, "not_max_ray": 0}
    for v, children in enumerate(zip(graph.child0, graph.child1)):
        for child in children:
            if child < 0:
                continue
            slope = graph.slope[child]
            grows = abs(slope) > abs(graph.slope[v])
            if grows and graph.num[child] - max(0, slope) * scale == cap >> abs(slope):
                found["max_ray" if graph.flags[child] & MAX_RAY else "not_max_ray"] += 1
    return found


def test_closure_kernel_matches_reference(monkeypatch):
    """The level-by-level closure against the state-at-a-time reference in
    _oracles: the same keys and ids, lists, ``prefix`` and budget reason on
    every depth-6 row, on every reduced j / (m * 2^k) in (0, 2/3] with odd
    m < 32 and k <= 3, on seeded deep and open-denominator draws, and under
    every slope budget 0-11 (set through SLOPE_MARGIN, which the reference
    reads too) and every state budget up to the size of the closure under
    slope budget 64, + 1.  The corpus holds hundreds of growing children at
    the fit test's boundary, an excess equal to its cap, both max rays and
    not.
    The sweep includes exits while the last tagged level is expanded, where
    the untagged children already made count in ``prefix``."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += sorted(
        {Fraction(j, m << k) for m in range(1, 32, 2) for k in range(4)
         for j in range(1, 2 * (m << k) // 3 + 1)}
    )
    ordinates += _seeded_ordinates(1721, (32, 48, 64, 128), 25, 80)
    boundary = dict.fromkeys(("max_ray", "not_max_ray"), 0)
    for y in ordinates:
        graph = close_graph(y)
        assert _graph_fields(graph) == _graph_fields(oracles.reference_close_graph(y)), y
        for kind, count in _cap_boundary_children(graph).items():
            boundary[kind] += count
    assert boundary["max_ray"] > 500 and boundary["not_max_ray"] > 300, boundary
    exits = last_level_exits = 0
    for y in (Fraction(2, 3), Fraction(1, 5), Fraction(37, 96), Fraction(1, 49), Fraction(2, 13),
              Fraction(1, 2**20)):
        _slope_budget(monkeypatch, y, 64)
        for max_states in range(1, len(close_graph(y).slope) + 2):
            for cap in range(12):
                _slope_budget(monkeypatch, y, cap)
                graph = close_graph(y, max_states=max_states)
                reference = oracles.reference_close_graph(y, max_states=max_states)
                assert _graph_fields(graph) == _graph_fields(reference), (y, max_states, cap)
                if reference.closed:
                    continue
                exits += 1
                # stopped past the tagged levels: untagged keys, below ``prefix`` only
                # while the last tagged level was being expanded
                if reference.lattice_depth and any(len(key) == 2 for key in reference.nodes):
                    last_level_exits += reference.prefix == len(reference.slope)
    assert exits > 5000 and last_level_exits > 20


def _replayed_revisit(graph, path):
    """Walk a listed path from the root along the graph's edges, once round
    its period, asserting that every edge exists.  Returns the end state and
    the first revisit, (digits read, digits read at that state's first
    visit), or None when no state repeats."""
    v, seen = 0, {0: 0}  # each state visited -> the digits read on reaching it
    for read, bit in enumerate(path.preperiod + path.period, 1):
        v = (graph.child1 if bit else graph.child0)[v]
        assert v >= 0, "no such edge"
        if v in seen:
            return v, (read, seen[v])
        seen[v] = read
    return v, None


def test_mirrored_listing_matches_full_walk():
    """A Finite listing is the walk of the root's 0-subtree followed by the
    complements of its paths in reverse order.  Each listed path is replayed
    on the rules reference (_oracles) from the root: every edge exists, a
    terminating path ends on a zero ray, and a periodic path first revisits
    a state exactly where its period closes, at the state where the period
    starts.  The preimages are the paths' values, strictly increasing, and
    there are ``cardinality`` of them.  Every Finite depth-6 row, seeded deep
    draws, odd denominators, whose lattice depth is 0, so the root is a
    core state, and 2/3 - 1/(3 * 2^k) for even k = 8..20, with 2^(k/2 + 1)
    points on graphs of a few dozen states, so every forced run of the
    tagged prefix is replayed many times."""
    many = {Fraction(2, 3) - Fraction(1, 3 << k): k for k in range(8, 21, 2)}
    ordinates = [Fraction(j, 3 * 4**6) for j in range(1, 2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1722, (32, 64, 128), 40, 80)
    ordinates += sorted({Fraction(j, m) for m in range(5, 64, 2) for j in range(1, 2 * m // 3 + 1)})
    ordinates += many
    finite = core_root = 0
    for y in ordinates:
        graph = close_graph(y)
        report = analyze(graph)
        if y in many:
            assert report.cardinality == 2 ** (many[y] // 2 + 1) and report.n_local == 1, y
        if report.verdict is not Verdict.FINITE:
            continue
        reference = oracles.reference_close_graph(y)
        for path in report.paths:
            end, revisit = _replayed_revisit(reference, path)
            split = len(path.preperiod)
            if path.period:
                assert revisit == (split + len(path.period), split), (y, path)
            else:
                assert revisit is None and reference.flags[end] & ZERO_RAY, (y, path)
        values = tuple(p.value() for p in report.paths)
        assert report.preimages == values and len(values) == report.cardinality, y
        assert all(a < b for a, b in zip(values, values[1:])), y
        finite += 1
        core_root += graph.lattice_depth == 0
    assert finite > 4000 and core_root > 300


def test_oracles_import_only_the_rules():
    """The oracles take from takagi only the rules, so that no reference
    leans on a kernel it checks: from machine, step, is_feasible, the
    envelopes, the graph type, its flags, the default budgets and
    SLOPE_MARGIN, the one name read off the module itself (at call time, so
    that a test may patch it); from rationals, BinaryExpansion and
    ordinate_depth."""
    allowed = {
        "takagi": {"machine"},
        "takagi.machine": {"step", "is_feasible", "StateGraph", "ZERO_RAY", "ONES_RAY", "MAX_RAY"},
        "takagi.rationals": {"BinaryExpansion", "ordinate_depth"},
    }
    tree = ast.parse(Path(oracles.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "machine"}
    assert read == {"SLOPE_MARGIN"}, read
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            assert all(name.split(".")[0] != "takagi" for name in names), names
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "takagi":
            for alias in node.names:
                name = alias.name
                assert name in allowed.get(node.module, ()) or (
                    node.module == "takagi.machine" and name.startswith(("envelope_", "DEFAULT_"))
                ), (node.module, name)
                imported += 1
    assert imported > 0


def _live_by_pruning(graph):
    """How many states have an infinite continuation, from the rules alone:
    from the set of all states, drop each state that is not a zero ray and
    has no child left in the set (a ones ray has no children), until none
    is dropped."""
    flags, child0, child1 = graph.flags, graph.child0, graph.child1
    live = [True] * len(flags)
    dropped = True
    while dropped:
        dropped = False
        for v in reversed(range(len(flags))):
            zero, one = child0[v], child1[v]
            if (live[v] and not flags[v] & ZERO_RAY
                    and not (zero >= 0 and live[zero] or one >= 0 and live[one])):
                live[v], dropped = False, True
    return sum(live)


_COLD: dict = {}


def _cold(y, *listings, graph=None):
    """The cold analyze(close_graph(y), listing=...) under each of
    ``listings``, which never reads the memo, built once per session and
    shared by the warm-versus-cold tests; ``graph`` is close_graph(y), when
    the caller has closed it.  y is closed at most once per call."""
    missing = [listing for listing in listings if (y, listing) not in _COLD]
    if missing and graph is None:
        graph = close_graph(y)
    for listing in missing:
        _COLD[y, listing] = analyze(graph, listing=listing)
    return tuple(_COLD[y, listing] for listing in listings)


def test_count_only_matches_listing(monkeypatch):
    """``listing=False`` gives the listed report without its points: every
    field equal except ``preimages``, ``paths`` and ``witness_preimage``,
    which are None.  Every depth-6 row, seeded deep and open-denominator
    draws, and state and slope budget exits.  The listing checks the count
    pass both read: a Finite cardinality is the number of points listed and
    n_local the number of their |D| profile classes, and the live-state
    diagnostic is the number of states left by pruning (above)."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1723, (32, 64, 128), 40, 80)
    margin = machine.SLOPE_MARGIN
    cases = [(y, {}, margin) for y in ordinates]  # (y, state budget, SLOPE_MARGIN)
    for y in (Fraction(1, 2), Fraction(2, 13), Fraction(37, 96), Fraction(1, 49), Fraction(7, 12)):
        k = split_denominator(y)[0]
        cases += [(y, {"max_states": n}, margin) for n in (1, 3, 10, 30)]
        cases += [(y, {}, n - k) for n in (0, 1, 2, 4)]  # slope budgets 0, 1, 2 and 4
    points = dict(preimages=None, paths=None, witness_preimage=None)
    verdicts = dict.fromkeys(Verdict, 0)
    for y, budget, slope_margin in cases:
        monkeypatch.setattr(machine, "SLOPE_MARGIN", slope_margin)
        graph = close_graph(y, **budget)
        cold = not budget and slope_margin == margin
        listed = _cold(y, True, graph=graph)[0] if cold else analyze(graph)
        counted = classify(y, listing=False, **budget)
        assert counted == dataclasses.replace(listed, **points), (y, budget, slope_margin)
        verdicts[listed.verdict] += 1
        if listed.verdict is Verdict.FINITE:
            assert len(listed.preimages) == len(listed.paths) == listed.cardinality, y
            assert listed.n_local == oracles.profile_classes(listed.paths), y
        if "live_states" in listed.diagnostics:
            assert listed.diagnostics["live_states"] == _live_by_pruning(graph), y
    assert verdicts[Verdict.FINITE] > 6000 and min(verdicts.values()) > 20


def test_core_memo_matches_cold_analysis(monkeypatch):
    """classify from one warm memo, ordinates taken in shuffled order, each
    count-only, then under both ``listing`` values in shuffled order,
    against the cold analysis of the same closed graph, which never reads
    the memo: the same reports.  Every depth-6 row, seeded deep draws,
    every reduced j/m with odd m <= 63 (22 of them branching clusters) and
    two budget exits.  The first count-only call writes the entry or finds
    it; every later count-only call on a closed graph reads it and runs no
    Tarjan, the 22 branching rows among them, and so do most first calls:
    Tarjan runs under fewer than a quarter of the count-only calls, and
    hundreds of the calls that run none are on odd m."""
    rng = random.Random(1724)
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += [
        Fraction(rng.randrange(2 * 4**n + 1), 3 * 4**n) for n in (32, 64, 128) for _ in range(80)
    ]
    ordinates += sorted({Fraction(j, m) for m in range(5, 64, 2) for j in range(1, 2 * m // 3 + 1)})
    ordinates += [Fraction(1, 49), Fraction(37, 96)]
    cold = {}
    for y in ordinates:
        cold[y, True], cold[y, False] = _cold(y, True, False)
    assert sum(str(r.witness).startswith("branching") for r in cold.values()) == 2 * 22

    tarjan = _tarjan_runs(monkeypatch)
    rng.shuffle(ordinates)
    _clear_memo()
    counted = runs = recalled_odd = recalled_branching = 0
    for y in ordinates:
        for call, listing in enumerate((False, *rng.sample((True, False), 2))):
            ran = len(tarjan)
            assert classify(y, listing=listing) == cold[y, listing], (y, listing)
            if listing:
                continue
            counted += 1
            runs += len(tarjan) - ran
            recalled_odd += len(tarjan) == ran and y.denominator % 2
            if call and "cycles" in cold[y, False].diagnostics:  # the first call wrote or found it
                assert len(tarjan) == ran, y
                recalled_branching += str(cold[y, False].witness).startswith("branching")
    assert runs < counted // 4 and recalled_odd > 500 and recalled_branching == 22


def _memo_held():
    """The states the memo holds: the counts kept, over all its entries."""
    return sum(len(entry.counts) for entry in machine._CORE_MEMO.values())


def _clear_memo():
    """Empty the memo and its running count, as a fresh process has them."""
    with machine._CORE_MEMO_LOCK:
        machine._CORE_MEMO.clear()
        machine._core_memo_held = 0


def _tarjan_runs(monkeypatch):
    """The graphs _live_states runs Tarjan on from here on, in order."""
    runs = []
    live_states = machine._live_states
    monkeypatch.setattr(machine, "_live_states", lambda graph: runs.append(graph) or
                        live_states(graph))
    return runs


def _close_to(monkeypatch, graph):
    """Make classify's closure, under either ``listing`` value, give back
    ``graph`` as its only stage, whole, whatever the ordinate."""
    monkeypatch.setattr(machine, "_closure", lambda y, max_states: iter([graph]))


def _hand_graphs():
    """The hand-built graphs of the cycle-exit and branching-cluster tests."""
    a, b = (0, Fraction(1, 3)), (1, Fraction(2, 3))
    c, d = (2, Fraction(4, 3)), (1, Fraction(1))
    return [_hand_graph(Fraction(1, 3), {a: {0: b}, b: {0: c, 1: a}, c: {1: d}, d: {0: c}}),
            _hand_graph(Fraction(1, 3), {a: {0: b, 1: b}, b: {1: a}})]


def test_analyze_leaves_the_core_memo_alone():
    """analyze on a caller's graph neither writes nor reads the memo.  The
    hand-built graphs give the same reports with the memo empty and warm; a
    copy of close_graph(1/5) with one edge removed fails the fold check
    either way (read from the memo, its counts would pass it); and the memo
    is left as it was.  Listing classify and leftmost_preimage leave it as
    it was too, empty or warm: only count-only classify writes it, one
    entry of one state each for 1/5 and 1/3, whose keyed level is the root.
    classify(1/5) and classify(1/3) then give their cold reports."""
    graph = close_graph(Fraction(1, 5))
    edited = dataclasses.replace(graph, child1=list(graph.child1))
    edited.child1[next(v for v, child in enumerate(graph.child1) if child >= 0)] = -1

    def analyze_all():
        for listing in (True, False):
            with pytest.raises(AssertionError, match="differ|disagrees"):
                analyze(edited, listing=listing)
        return [analyze(g, listing=listing) for g in _hand_graphs() for listing in (True, False)]

    def list_all():
        for y in (Fraction(1, 5), Fraction(1, 3)):
            classify(y)
            leftmost_preimage(y)

    _clear_memo()
    empty = analyze_all()
    list_all()
    assert not machine._CORE_MEMO and machine._core_memo_held == 0
    for y in (Fraction(1, 5), Fraction(1, 3)):
        classify(y, listing=False)
    warm = dict(machine._CORE_MEMO)
    assert len(warm) == _memo_held() == machine._core_memo_held == 2
    assert analyze_all() == empty
    list_all()
    assert machine._CORE_MEMO == warm and machine._core_memo_held == 2
    for y in (Fraction(1, 5), Fraction(1, 3)):
        for listing in (True, False):
            assert classify(y, listing=listing) == analyze(close_graph(y), listing=listing), y


def test_nested_classify_keeps_the_outer_report(monkeypatch):
    """classify run from inside analyze, as a wrapper on ``machine.analyze``
    (the name perfbench's tracer wraps) may run it: with 59/512's keyed
    level remembered, its count-only classify hands analyze a graph closed
    only down to that level, and a nested classify(1/5) run first leaves
    the outer report the cold one, Finite(2) with 23 live states."""
    y = Fraction(59, 512)
    cold = analyze(close_graph(y), listing=False)
    assert (cold.cardinality, cold.diagnostics["live_states"]) == (2, 23)
    classify(y, listing=False)
    handed, real = [], machine.analyze

    def nesting(graph, **kwargs):
        handed.append(graph)
        if len(handed) == 1:  # the outer call: nest once, and only once
            classify(Fraction(1, 5), listing=False)
        return real(graph, **kwargs)

    monkeypatch.setattr(machine, "analyze", nesting)
    assert classify(y, listing=False) == cold
    assert len(handed) == 2 and len(handed[0].slope) < cold.diagnostics["states"]


def _run_optimized(script):
    """The lines ``script`` prints under ``python -O``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, env=env, check=True, timeout=60
    )
    return result.stdout.decode().splitlines()


def test_graph_checks_survive_optimize():
    """The checks analyze makes of a caller's graph are raised, not
    asserted, so ``python -O`` keeps them: the edited copy of
    close_graph(1/5) above still fails under both ``listing`` values."""
    script = """
import dataclasses
from fractions import Fraction
from takagi.machine import analyze, close_graph

graph = close_graph(Fraction(1, 5))
edited = dataclasses.replace(graph, child1=list(graph.child1))
edited.child1[next(v for v, child in enumerate(graph.child1) if child >= 0)] = -1
for listing in (True, False):
    try:
        analyze(edited, listing=listing)
    except AssertionError as error:
        print(listing, error)
    else:
        print(listing, "passed")
"""
    assert _run_optimized(script) == [
        "True path enumeration disagrees with path count",
        "False root's subtrees differ in count",
    ]


def test_cycle_exit_check_survives_optimize():
    """A hand-built graph whose root is a dead end, with an unreachable
    cluster that can be left towards an exit-free cycle: the cycle-exit
    branch has no root path to list, and says so under ``python -O`` too,
    under both ``listing`` values, rather than walking from a missing
    child."""
    p, q = (1, Fraction(2, 3)), (2, Fraction(4, 3))
    u, w = (3, Fraction(1, 5)), (2, Fraction(1, 7))
    root = (0, Fraction(1, 105))
    graph = _hand_graph(root[1], {root: {}, p: {0: q}, q: {0: u, 1: p}, u: {1: w}, w: {0: u}})
    script = f"""
from fractions import Fraction
from takagi.machine import StateGraph, analyze

graph = StateGraph(**{dataclasses.asdict(graph)!r})
for listing in (True, False):
    try:
        analyze(graph, listing=listing)
    except AssertionError as error:
        print(listing, error)
    else:
        print(listing, "passed")
"""
    assert _run_optimized(script) == [
        "True a cycle can be left but the root is dead",
        "False a cycle can be left but the root is dead",
    ]


def test_analyze_has_no_bare_assert():
    """No function in the package checks anything with an ``assert``
    statement, which ``python -O`` strips: analyze checks a caller's graph,
    and leftmost_preimage its root's count.  Every function of every
    module under src/takagi is parsed."""
    found, functions = [], 0
    for path in sorted(Path(machine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions += 1
                found += [(path.name, node.name, inner.lineno)
                          for inner in ast.walk(node) if isinstance(inner, ast.Assert)]
    assert found == [] and functions > 50


def test_memo_keeps_tarjan_for_cluster_witnesses(monkeypatch):
    """A branching cluster and a cycle exit are named in Tarjan's order,
    which a remembered entry gives back.  Each hand-built graph, handed to
    classify as its own closure, gives the report analyze gives on each
    call: the first count-only call runs Tarjan and writes the entry, of
    the root alone, the graph's keyed level; the listing call runs its own
    and writes nothing; and the second count-only call reads the witness
    off the entry and runs none."""
    tarjan = _tarjan_runs(monkeypatch)
    try:
        for graph in _hand_graphs():
            _close_to(monkeypatch, graph)
            _clear_memo()
            runs = []
            for listing in (False, True, False):
                cold = analyze(graph, listing=listing)
                ran = len(tarjan)
                assert classify(graph.ordinate, listing=listing) == cold
                runs.append(len(tarjan) - ran)
            assert runs == [1, 1, 0] and _memo_held() == 1
    finally:
        _clear_memo()  # the hand-built facts are not the closure's


def test_memo_shifts_witnesses_behind_a_prefix(monkeypatch):
    """The cycle-exit graph behind two tagged states, with den(y) = 4 * 3:
    its entry level is the bare graph's root a alone (``level`` is set as
    the closure would set it), so its key is the bare graph's, and after
    count-only classify(1/3) on the bare graph, count-only classify on this
    one reads the entry written at prefix 0 and must name the same cycle
    and exit at ids two higher.  Both orders give the reports analyze gives
    under both ``listing`` values; of the count-only calls only the first
    runs Tarjan, and the memo holds one entry."""
    y = Fraction(1, 12)
    a, b = (0, Fraction(1, 3)), (1, Fraction(2, 3))
    c, d = (2, Fraction(4, 3)), (1, Fraction(1))
    root, tagged = (0, y), (1, Fraction(1, 6))
    edges = {root: {0: tagged}, tagged: {0: a}}
    edges.update({a: {0: b}, b: {0: c, 1: a}, c: {1: d}, d: {0: c}})
    graphs = {"bare": _hand_graphs()[0]}
    graphs["behind"] = dataclasses.replace(
        _hand_graph(y, edges), prefix=2, lattice_depth=2, level=(2, 2, 3)
    )
    cold = {
        (name, listing): analyze(graph, listing=listing)
        for name, graph in graphs.items()
        for listing in (True, False)
    }
    assert cold["behind", False].witness == cold["bare", False].witness == (
        "cycle through (D=1, R=2/3) can be left towards (D=2, R=4/3)"
    )
    tarjan = _tarjan_runs(monkeypatch)
    try:
        for order in (("bare", "behind"), ("behind", "bare")):
            _clear_memo()
            counted = []
            for name in order:
                graph = graphs[name]
                _close_to(monkeypatch, graph)
                for listing in (False, True):
                    ran = len(tarjan)
                    assert classify(graph.ordinate, listing=listing) == cold[name, listing], name
                    counted += [] if listing else tarjan[ran:]
            assert counted == [graphs[order[0]]] and len(machine._CORE_MEMO) == 1
    finally:
        _clear_memo()  # the hand-built facts are not the closure's


def test_core_key_keeps_m_and_n_apart(monkeypatch):
    """Cores whose keys differ only in N, or only in m, are separate
    entries.  The cycle-exit graph over den(y) = 3, then two branching
    graphs with its slopes, one with its N over den(y) = 5 and one with
    other N over den(y) = 5, handed to classify in turn as their own
    closures: each gives analyze's reports, though it follows a core with
    the rest of its key.  Each graph's entry level is its root (0, y), so
    the keys differ in m, then in N."""
    exits = _hand_graphs()[0]
    branching = []
    for y, residues in ((Fraction(1, 5), (1, 2, 4, 3)), (Fraction(2, 5), (2, 4, 3, 1))):
        states = zip(exits.slope, residues)
        a, b, c, d = ((slope, Fraction(n, y.denominator)) for slope, n in states)
        branching.append(_hand_graph(y, {a: {0: b, 1: b}, b: {0: c, 1: a}, c: {1: d}, d: {0: c}}))
    assert [g.slope for g in branching] == [exits.slope] * 2
    assert branching[0].num == exits.num != branching[1].num
    try:
        _clear_memo()
        for graph in (exits, *branching):
            cold = analyze(graph, listing=False)
            _close_to(monkeypatch, graph)
            assert classify(graph.ordinate, listing=False) == cold, graph.ordinate
        assert cold.verdict is Verdict.UNCOUNTABLE and len(machine._CORE_MEMO) == 3
    finally:
        _clear_memo()  # the hand-built facts are not the closure's


def test_equal_core_keys_give_equal_cores():
    """The memo's premise, checked without the memo: over the closed graphs
    of every depth-6 row and seeded j / (3 * 4^n) and j / (m * 2^k), every
    core N is a multiple of 2^k for den(y) = 2^k m, and graphs whose cores
    have the same key (m, slopes, N >> k) have the same core edges, less
    ``prefix``, and the same ray flags."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(1, 2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1725, (16, 32, 64), 60, 600)
    cores = {}
    shared = 0
    for y in ordinates:
        graph = close_graph(y)
        if not graph.closed:
            continue
        prefix, den = graph.prefix, y.denominator
        shift = (den & -den).bit_length() - 1
        assert all(n % (1 << shift) == 0 for n in graph.num[prefix:]), y
        core_nums = tuple(n >> shift for n in graph.num[prefix:])
        key = (den >> shift, tuple(graph.slope[prefix:]), core_nums)
        core = tuple(
            tuple(-1 if child < 0 else child - prefix for child in children[prefix:])
            for children in (graph.child0, graph.child1)
        ) + (tuple(graph.flags[prefix:]),)
        shared += key in cores
        assert cores.setdefault(key, core) == core, y
    assert shared > 5000 and len(cores) > 500


def _level(graph, depth):
    """The ids at ``depth``: read off the depth tags of the keys above the
    lattice depth, and at that depth, the children of the last tagged level
    (the root alone when there is none)."""
    if depth < graph.lattice_depth:
        return [v for key, v in graph.nodes.items() if len(key) == 3 and key[0] == depth]
    prefix = graph.prefix
    return list(range(prefix, 1 + max(graph.child0[:prefix] + graph.child1[:prefix], default=0)))


def test_equal_keyed_level_keys_give_equal_subgraphs():
    """The premise of count-only classify's key, checked without the memo,
    over the closed graphs of every depth-6 row and seeded j / (3 * 4^n) and
    j / (m * 2^k), for den(y) = 2^k m and lattice depth L.  Every N at a
    tagged depth d <= k is a multiple of 2^d.  Graphs whose keyed levels, at
    d = L - 3 when L > 3 and at d = L otherwise, have the same key (L - d,
    k - s, m and the (D, N >> s) of the level's states in id order, for
    s = min(d, k)) have the same subgraph from the level's first id on: the
    edges less that id, the slopes, the ray flags and N >> s.  Shared keys
    come from rows with L > 3, with L <= 3 and with odd k (L = k + 1).  The
    memo's key of the graph where count-only classify's closure first stops
    is this key."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(1, 2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1727, (16, 32, 64), 60, 600)
    subgraphs = {}
    shared = {"above": 0, "entry": 0, "odd k": 0}
    for y in ordinates:
        graph = close_graph(y)
        if not graph.closed:
            continue
        k, odd = split_denominator(y)
        for key, v in graph.nodes.items():
            if len(key) == 3 and key[0] <= k:
                assert graph.num[v] % (1 << key[0]) == 0, (y, key)
        lattice = graph.lattice_depth
        depth = lattice - 3 if lattice > 3 else lattice
        shift = min(depth, k)
        ids = _level(graph, depth)
        start = ids[0]
        assert ids == list(range(start, start + len(ids))) and start == _keyed_start(graph), y
        assert all(n % (1 << shift) == 0 for n in graph.num[start:]), y
        key = (lattice - depth, k - shift, odd, tuple(graph.slope[v] for v in ids),
               tuple(graph.num[v] >> shift for v in ids))
        stop = next(machine._closure(y, machine.DEFAULT_MAX_STATES))
        assert machine._entry_key(stop, k, odd) == key, y
        subgraph = tuple(
            tuple(-1 if child < 0 else child - start for child in children[start:])
            for children in (graph.child0, graph.child1)
        ) + (tuple(graph.slope[start:]), tuple(graph.flags[start:]),
             tuple(n >> shift for n in graph.num[start:]))
        if key in subgraphs:
            shared["above" if depth < lattice else "entry"] += 1
            shared["odd k"] += k % 2
        assert subgraphs.setdefault(key, subgraph) == subgraph, y
    assert shared["above"] > 6000 and shared["entry"] > 80 and shared["odd k"] > 2000, shared


def test_warm_witnesses_behind_a_prefix_match_cold(monkeypatch):
    """classify, warm, against analyze, cold, on every reduced j / (m * 2^k)
    with odd m <= 63 and k = 1..3, each count-only, listing, then count-only
    again: the same reports.  All 104 branching rows have a tagged prefix,
    and each one's last call reads its cluster off the entry the first
    wrote or found, and runs no Tarjan.  classify is handed close_graph(y),
    which the cold reports are read from when they are not built yet, so
    each ordinate is closed once."""
    ordinates = sorted({
        y for m in range(1, 64, 2) for k in (1, 2, 3) for j in range(1, 2 * (m << k) // 3 + 1)
        if (y := Fraction(j, m << k)).denominator == m << k
    })
    graphs = [close_graph(y) for y in ordinates]  # before close_graph's closure is patched
    tarjan = _tarjan_runs(monkeypatch)
    _clear_memo()
    branching = 0
    for y, graph in zip(ordinates, graphs):
        _close_to(monkeypatch, graph)
        for listing in (False, True, False):
            cold = _cold(y, listing, graph=graph)[0]
            ran = len(tarjan)
            assert classify(y, listing=listing) == cold, (y, listing)
        if str(cold.witness).startswith("branching") and graph.prefix > 0:
            assert len(tarjan) == ran, y
            branching += 1
    assert branching == 104


def test_core_memo_stays_within_its_bound(monkeypatch):
    """Every depth-6 row, then every reduced j/m with odd m <= 53, under a
    bound of 2,048 states, which the 4,271 states of their entries
    overflow.  Entries keyed three levels above the lattice depth and
    entries at the entry level count against the bound alike: the memo's
    running count is the states its entries hold, it never holds more than
    its bound, and entries are evicted on the way, keyed-level entries
    among them, oldest first and no more than the new entry needs, while
    the entry just written survives each overflow; every report equals the
    one analyze gives without the memo.  Under a bound of 1 an entry of
    two states is not written at all."""
    bound = 2048
    monkeypatch.setattr(machine, "_CORE_MEMO_STATES", bound)
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += sorted({Fraction(j, m) for m in range(5, 54, 2) for j in range(1, 2 * m // 3 + 1)})
    _clear_memo()
    overflows = evicted_above = 0
    for y in ordinates:
        sizes = {key: len(entry.counts) for key, entry in machine._CORE_MEMO.items()}
        before = list(sizes)
        assert classify(y, listing=False) == _cold(y, False)[0], y
        held = _memo_held()
        assert held == machine._core_memo_held <= bound, y
        after = list(machine._CORE_MEMO)
        if before and before[0] not in after:  # an overflow: the oldest went first
            overflows += 1
            written = [key for key in after if key not in sizes]
            evicted = len(before) - len(after) + len(written)
            assert len(written) == 1 and after == before[evicted:] + written
            evicted_above += sum(key[0] == 3 for key in before[:evicted])
            # and no more went than had to: with the last of them back it would not fit
            assert held + sizes[before[evicted - 1]] > bound
    assert overflows > 100 and evicted_above > 500
    monkeypatch.setattr(machine, "_CORE_MEMO_STATES", 1)
    _clear_memo()
    large, small = Fraction(1, 12), Fraction(2, 3)
    levels = [next(machine._closure(y, machine.DEFAULT_MAX_STATES)).level for y in (large, small)]
    assert levels == [(2, 3, 5), (0, 0, 1)]
    for y in (small, large):
        assert classify(y, listing=False) == analyze(close_graph(y), listing=False), y
    assert _memo_held() == 1 and len(machine._CORE_MEMO) == 1


def test_memo_holds_each_state_once():
    """After a cold ``grid_experiment(6)`` every entry, whether keyed three
    levels above the entry level or at it, keeps the counts and profiles of
    its own level's states, as many as its key lists.  The memo's running
    count is the sum over all entries, and it is less than 4,000 states
    (3,889 when measured), under half of what the entries would hold if
    each kept the graph from its level on."""
    _clear_memo()
    grid_experiment(6)
    entries = machine._CORE_MEMO
    for key, entry in entries.items():
        assert len(entry.counts) == len(entry.profiles) == len(key[3]), key
    above = sum(key[0] > 0 for key in entries)
    assert above > 1000 and len(entries) - above > 5
    held = _memo_held()
    assert held == machine._core_memo_held < 4_000
    assert 2 * held < sum(entry.size for entry in entries.values())


def _handed_to_analyze(monkeypatch):
    """The graphs classify hands to analyze from here on, in order."""
    graphs = []
    real = machine.analyze
    monkeypatch.setattr(machine, "analyze", lambda graph, **kw: graphs.append(graph) or
                        real(graph, **kw))
    return graphs


def _keyed_start(graph):
    """The first id at count-only classify's keyed depth, read off the
    depth tags of the graph's keys: three levels above the lattice depth L
    when L > 3, else at L, where the keys lose their tag."""
    depth = graph.lattice_depth - 3 if graph.lattice_depth > 3 else graph.lattice_depth
    deep = (v for key, v in graph.nodes.items() if len(key) == 2 or key[0] >= depth)
    return min(deep, default=len(graph.slope))


def _skipped(graph, states):
    """Whether analyze was handed a graph, closed through its keyed level,
    of fewer than the whole graph's ``states``, in which no state at or
    below the keyed level has a child: no state from there on was
    expanded."""
    start = _keyed_start(graph)
    unexpanded = all(c < 0 for c in graph.child0[start:] + graph.child1[start:])
    return graph.closed and unexpanded and len(graph.slope) < states


def _assert_same_report(warm, cold, case):
    assert warm == cold, case
    assert list(warm.diagnostics) == list(cold.diagnostics), case


def test_remembered_core_closes_no_core_state(monkeypatch):
    """Count-only classify, called twice in a row on each ordinate, against
    the cold analyze(close_graph(y), listing=False), which never reads the
    memo: the same reports, diagnostics key order included.  Every depth-5
    and depth-6 row, seeded j / (3 * 4^n) and every reduced j / (m * 2^k)
    with odd m <= 63 and k <= 1, shuffled, so most first calls already find
    their core.  The second call finds it every time the graph closes
    (y = 0 writes no entry), and then the graph analyze is handed ends at
    its keyed level, three levels above the lattice depth when that depth
    is larger, else the core's entry level: no state from there on is
    expanded."""
    rng = random.Random(1726)
    ordinates = sorted({Fraction(j, 3 * 4**n) for n in (5, 6) for j in range(2 * 4**n + 1)})
    ordinates += _seeded_ordinates(1726, (16, 32, 64, 128), 40, 0)
    ordinates += sorted({
        y for m in range(1, 64, 2) for k in (0, 1) for j in range(1, 2 * (m << k) // 3 + 1)
        if (y := Fraction(j, m << k)).denominator == m << k
    })
    cold = {y: _cold(y, False)[0] for y in ordinates}
    rng.shuffle(ordinates)
    handed = _handed_to_analyze(monkeypatch)
    skipped_first = 0
    for y in ordinates:
        for call in range(2):
            _assert_same_report(classify(y, listing=False), cold[y], (y, call))
            skipped = _skipped(handed[-1], cold[y].diagnostics["states"])
            if call == 0:
                skipped_first += skipped
            elif cold[y].diagnostics["closed"] and y:
                assert skipped, y
    assert skipped_first > len(ordinates) // 2


def test_threads_share_the_memo(monkeypatch):
    """Four threads classify, count-only, a seeded split of every depth-5
    row and every reduced j/m with odd m <= 53, with the interpreter's
    switch interval lowered so they interleave often: once from a cleared
    memo, under a bound of 1,024 states, which their 1,755 overflow, and
    once warm.  Every report is the cold one, and after the threads are
    joined the memo's running count is the states its entries hold, within
    the bound."""
    ordinates = [Fraction(j, 3 * 4**5) for j in range(2 * 4**5 + 1)]
    ordinates += sorted({Fraction(j, m) for m in range(5, 54, 2) for j in range(1, 2 * m // 3 + 1)})
    random.Random(1728).shuffle(ordinates)
    parts = [ordinates[i::4] for i in range(4)]
    cold = {y: _cold(y, False)[0] for y in ordinates}
    monkeypatch.setattr(machine, "_CORE_MEMO_STATES", 1024)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _clear_memo()
        for _ in ("cleared", "warm"):
            with ThreadPoolExecutor(4) as pool:
                reports = pool.map(lambda part: [classify(y, listing=False) for y in part], parts)
                for part, warm in zip(parts, reports):
                    assert warm == [cold[y] for y in part]
            assert machine._core_memo_held == _memo_held() <= machine._CORE_MEMO_STATES
    finally:
        sys.setswitchinterval(interval)


def test_remembered_core_keeps_every_budget(monkeypatch):
    """With the memo warm from the default budgets, count-only classify
    under every state budget from 1 to the size of the closure under slope
    budget 64, + 1, and every slope budget from 0 to 11 (set through
    SLOPE_MARGIN) gives the cold report of close_graph under the same
    budgets, diagnostics key order included, budget exits and their reasons
    with it.  The closure from the keyed level on (three levels above the
    lattice depth for 37/96 and 1/2^20, the entry level for the others) is
    skipped exactly when it fits both budgets: the whole graph's size at
    most ``max_states`` and the largest |D| from the keyed level on at most
    the slope budget (a closed graph has no feasible child past its largest
    |D|, so that slope budget cannot stop it)."""
    handed = _handed_to_analyze(monkeypatch)
    fitted = resumed = 0
    margin = machine.SLOPE_MARGIN
    for y in (Fraction(2, 3), Fraction(1, 5), Fraction(37, 96), Fraction(1, 49),
              Fraction(2, 13), Fraction(1, 2**20)):
        monkeypatch.setattr(machine, "SLOPE_MARGIN", margin)
        classify(y, listing=False)
        _slope_budget(monkeypatch, y, 64)
        whole = close_graph(y)
        top = max(map(abs, whole.slope[_keyed_start(whole) :]))
        for max_states in range(1, len(whole.slope) + 2):
            for cap in range(12):
                _slope_budget(monkeypatch, y, cap)
                cold = analyze(close_graph(y, max_states=max_states), listing=False)
                warm = classify(y, listing=False, max_states=max_states)
                _assert_same_report(warm, cold, (y, max_states, cap))
                fits = whole.closed and max_states >= len(whole.slope) and cap >= top
                assert _skipped(handed[-1], len(whole.slope)) == fits, (y, max_states, cap)
                fitted += fits
                resumed += not fits and handed[-1].prefix == whole.prefix
    assert fitted > 40 and resumed > 1000
