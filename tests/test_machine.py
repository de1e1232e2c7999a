"""State machine: feasibility envelope, graph closure, verdicts, preimages."""

import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import pytest

import _oracles as oracles
from takagi import machine
from takagi.curve import eval_rational
from takagi.machine import (
    MAX_RAY,
    ONES_RAY,
    ZERO_RAY,
    BudgetExceededError,
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
from takagi.rationals import to_binary


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
    dyadic points, and a slope budget of 2n lets each of them close."""
    n = 1000
    rng = random.Random(20000)
    for _ in range(3):
        j = rng.randrange(2 * 4**n + 1)
        while j % 3 == 0:
            j = rng.randrange(2 * 4**n + 1)
        y = Fraction(j, 3 * 4**n)
        report = classify(y, max_slope=2 * n)
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
    report = classify(Fraction(37, 96), max_slope=1)
    assert report.verdict is Verdict.INDETERMINATE


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
        graph = close_graph(y, max_slope=256)
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
        report = classify(y, max_slope=256)
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


def test_prefix_is_a_layered_dag():
    """The tagged states are the ids below ``prefix``; their edges lead one
    depth down, to a larger id, and no core edge leads back into them."""
    ordinates = [Fraction(j, 3 * 4**5) for j in range(2 * 4**5 + 1)]
    ordinates += _seeded_ordinates(1717, (32, 64, 128), 20, 40)
    for y in ordinates:
        graph = close_graph(y, max_slope=256)
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
    for graph in (close_graph(Fraction(1, 2**20), max_states=3),
                  close_graph(Fraction(37, 96), max_slope=1)):
        assert not graph.closed and graph.lattice_depth > 0
        assert graph.prefix == len(graph.slope)


def test_core_tarjan_matches_whole_graph():
    """Tarjan on the core and the prefix sweep against Tarjan from every id
    and one count pass over its components (the reference in _oracles):
    the same components in the same order, once the prefix ids are
    filtered out, and the same counts, profiles and liveness everywhere."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1718, (32, 64, 128), 40, 80)
    cycles = 0
    for y in ordinates:
        graph = close_graph(y, max_slope=256)
        if not graph.closed:
            continue
        comps, counts, profiles = machine._live_states(graph)
        ref_comps, ref_counts, ref_profiles, ref_live = oracles.whole_graph_live_states(graph)
        assert comps == [c for c in ref_comps if c[0] >= graph.prefix], y
        live = [n > 0 for n in counts]
        assert (counts, profiles, live) == (ref_counts, ref_profiles, ref_live), y
        cycles += sum(len(c) > 1 for c in comps)
    assert cycles > 10_000


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


def test_closure_kernel_matches_reference():
    """The level-by-level closure against the state-at-a-time reference in
    _oracles: the same keys and ids, lists, ``prefix`` and budget reason on
    every depth-6 row, on seeded deep and open-denominator draws, and under
    every state budget up to the closed size and every slope budget 0-11.
    The sweep includes exits while the last tagged level is expanded, where
    the untagged children already made count in ``prefix``."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1721, (32, 48, 64, 128), 25, 80)
    for y in ordinates:
        assert _graph_fields(close_graph(y)) == _graph_fields(oracles.reference_close_graph(y)), y
    exits = last_level_exits = 0
    for y in (Fraction(2, 3), Fraction(1, 5), Fraction(37, 96), Fraction(1, 49), Fraction(2, 13),
              Fraction(1, 2**20)):
        for max_states in range(1, len(close_graph(y).slope) + 2):
            for max_slope in range(12):
                graph = close_graph(y, max_states=max_states, max_slope=max_slope)
                reference = oracles.reference_close_graph(
                    y, max_states=max_states, max_slope=max_slope
                )
                assert _graph_fields(graph) == _graph_fields(reference), (y, max_states, max_slope)
                if reference.closed:
                    continue
                exits += 1
                # stopped past the tagged levels: untagged keys, below ``prefix`` only
                # while the last tagged level was being expanded
                if reference.lattice_depth and any(len(key) == 2 for key in reference.nodes):
                    last_level_exits += reference.prefix == len(reference.slope)
    assert exits > 5000 and last_level_exits > 20


def test_mirrored_listing_matches_full_walk():
    """A Finite listing is the walk of the root's 0-subtree followed by the
    complements of its paths in reverse order.  Against the walk over both
    root branches (_oracles): the same paths and preimages in the same order,
    on every Finite depth-6 row, on seeded deep draws and on odd
    denominators, whose lattice depth is 0, so the root is a core state."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(1, 2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1722, (32, 64, 128), 40, 80)
    ordinates += sorted({Fraction(j, m) for m in range(5, 64, 2) for j in range(1, 2 * m // 3 + 1)})
    finite = core_root = 0
    for y in ordinates:
        graph = close_graph(y)
        report = analyze(graph)
        if report.verdict is not Verdict.FINITE:
            continue
        counts = machine._live_states(graph)[1]
        paths = tuple(oracles.full_walk_paths(graph, counts))
        assert report.paths == paths, y
        assert report.preimages == tuple(p.value() for p in paths), y
        finite += 1
        core_root += graph.lattice_depth == 0
    assert finite > 4000 and core_root > 300


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


def test_count_only_matches_listing():
    """``listing=False`` gives the listed report without its points: every
    field equal except ``preimages``, ``paths`` and ``witness_preimage``,
    which are None.  Every depth-6 row, seeded deep and open-denominator
    draws, and state and slope budget exits.  The listing checks the count
    pass both read: a Finite cardinality is the number of points listed and
    n_local the number of their |D| profile classes, and the live-state
    diagnostic is the number of states left by pruning (above)."""
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += _seeded_ordinates(1723, (32, 64, 128), 40, 80)
    cases = [(y, {}) for y in ordinates]
    for y in (Fraction(1, 2), Fraction(2, 13), Fraction(37, 96), Fraction(1, 49), Fraction(7, 12)):
        cases += [(y, {"max_states": n}) for n in (1, 3, 10, 30)]
        cases += [(y, {"max_slope": n}) for n in (0, 1, 2, 4)]
    points = dict(preimages=None, paths=None, witness_preimage=None)
    verdicts = dict.fromkeys(Verdict, 0)
    for y, budget in cases:
        graph = close_graph(y, **budget)
        listed = analyze(graph)
        counted = classify(y, listing=False, **budget)
        assert counted == dataclasses.replace(listed, **points), (y, budget)
        verdicts[listed.verdict] += 1
        if listed.verdict is Verdict.FINITE:
            assert len(listed.preimages) == len(listed.paths) == listed.cardinality, y
            assert listed.n_local == oracles.profile_classes(listed.paths), y
        if "live_states" in listed.diagnostics:
            assert listed.diagnostics["live_states"] == _live_by_pruning(graph), y
    assert verdicts[Verdict.FINITE] > 6000 and min(verdicts.values()) > 20


def test_core_memo_matches_cold_analysis(monkeypatch):
    """classify from one warm core memo, ordinates taken in shuffled order,
    each under both ``listing`` values in turn, against the cold analysis of
    the same closed graph, which never reads the memo: the same reports.
    Every depth-6 row, seeded deep draws, every reduced j/m with odd m <= 63
    (22 of them branching clusters, whose second call finds every core
    state remembered) and two budget exits.  Most warm calls run no Tarjan,
    and hundreds of those are on odd m."""
    rng = random.Random(1724)
    ordinates = [Fraction(j, 3 * 4**6) for j in range(2 * 4**6 + 1)]
    ordinates += [
        Fraction(rng.randrange(2 * 4**n + 1), 3 * 4**n) for n in (32, 64, 128) for _ in range(80)
    ]
    ordinates += sorted({Fraction(j, m) for m in range(5, 64, 2) for j in range(1, 2 * m // 3 + 1)})
    ordinates += [Fraction(1, 49), Fraction(37, 96)]
    cold = {}
    for y in ordinates:
        graph = close_graph(y)
        for listing in (True, False):
            cold[y, listing] = analyze(graph, listing=listing)
    assert sum(str(r.witness).startswith("branching") for r in cold.values()) == 2 * 22

    tarjan = []
    live_states = machine._live_states
    monkeypatch.setattr(machine, "_live_states", lambda graph: tarjan.append(graph) or
                        live_states(graph))
    rng.shuffle(ordinates)
    machine._CORE_MEMO.clear()
    recalled_odd = 0
    for y in ordinates:
        for listing in rng.sample((True, False), 2):  # the second call reads what the first wrote
            ran = len(tarjan)
            assert classify(y, listing=listing) == cold[y, listing], (y, listing)
            recalled_odd += len(tarjan) == ran and y.denominator % 2
    assert len(tarjan) < len(cold) // 4 and recalled_odd > 500


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
    is left as it was.  classify(1/5) and classify(1/3) then give their
    cold reports."""
    graph = close_graph(Fraction(1, 5))
    edited = dataclasses.replace(graph, child1=list(graph.child1))
    edited.child1[next(v for v, child in enumerate(graph.child1) if child >= 0)] = -1

    def analyze_all():
        for listing in (True, False):
            with pytest.raises(AssertionError, match="differ|disagrees"):
                analyze(edited, listing=listing)
        return [analyze(g, listing=listing) for g in _hand_graphs() for listing in (True, False)]

    machine._CORE_MEMO.clear()
    empty = analyze_all()
    assert not machine._CORE_MEMO
    classify(Fraction(1, 5))
    classify(Fraction(1, 3))
    warm = dict(machine._CORE_MEMO)
    assert len(warm) == len(graph.slope) + len(close_graph(Fraction(1, 3)).slope)
    assert analyze_all() == empty
    assert machine._CORE_MEMO == warm
    for y in (Fraction(1, 5), Fraction(1, 3)):
        for listing in (True, False):
            assert classify(y, listing=listing) == analyze(close_graph(y), listing=listing), y


def test_memo_keeps_tarjan_for_cluster_witnesses(monkeypatch):
    """A branching cluster and a cycle exit are named in Tarjan's order, so
    classify runs Tarjan for them even when every core state is remembered.
    Each hand-built graph, handed to classify as its own closure, gives the
    report analyze gives on the first call and on the warm calls after it.
    No sampled ordinate has either graph's shape without the other."""
    try:
        for graph in _hand_graphs():
            monkeypatch.setattr(machine, "close_graph", lambda y, **budgets: graph)
            machine._CORE_MEMO.clear()
            for listing in (True, False, True):
                assert classify(graph.ordinate, listing=listing) == analyze(graph, listing=listing)
            assert len(machine._CORE_MEMO) == len(graph.slope)
    finally:
        machine._CORE_MEMO.clear()  # the hand-built facts are not the closure's


def test_core_memo_stays_within_its_bound(monkeypatch):
    """Every reduced j/m with odd m <= 45 has more distinct core states than
    the memo holds: it never holds more than its bound, it is emptied on
    the way, and every report equals the one analyze gives without it.
    Under a bound of 20 a larger core is not written at all."""
    bound = machine._CORE_MEMO_STATES
    ordinates = sorted({Fraction(j, m) for m in range(5, 46, 2) for j in range(1, 2 * m // 3 + 1)})
    machine._CORE_MEMO.clear()
    emptied = 0
    for y in ordinates:
        size = len(machine._CORE_MEMO)
        assert classify(y, listing=False) == analyze(close_graph(y), listing=False), y
        assert len(machine._CORE_MEMO) <= bound
        emptied += len(machine._CORE_MEMO) < size
    assert emptied > 0
    monkeypatch.setattr(machine, "_CORE_MEMO_STATES", 20)
    machine._CORE_MEMO.clear()
    large, small = Fraction(1, 5), Fraction(2, 3)
    assert len(close_graph(large).slope) > 20 >= len(close_graph(small).slope)
    for y in (small, large):
        assert classify(y) == analyze(close_graph(y)), y
    assert len(machine._CORE_MEMO) == len(close_graph(small).slope)
