"""Brute-force reference computations shared across the test suite.

Everything here goes back to the defining series or to first principles and
shares as little machinery as possible with the package under test, so an
agreement between the two is meaningful evidence rather than a tautology.
From ``takagi`` it takes only the rules: ``machine.step``,
``machine.is_feasible``, the envelopes, the graph type, its flags, the
default state budget and ``machine.SLOPE_MARGIN``, read at call time so
that a test may patch it, and ``rationals.BinaryExpansion`` and
``ordinate_depth`` (``test_machine`` checks the imports).

``reference_close_graph`` is the one closure of the feasible states here,
the rules in integer form, and the oracles that need the state graph share
it: the hump hits are walks over it, and ``test_machine`` replays the
listed paths of a Finite verdict on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, cycle, islice, product
from math import floor, lcm

import numpy as np

from takagi import machine
from takagi.machine import (
    DEFAULT_MAX_STATES,
    MAX_RAY,
    ONES_RAY,
    ZERO_RAY,
    StateGraph,
    is_feasible,
    step,
)
from takagi.rationals import ordinate_depth

HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)


# ---------------------------------------------------------------------------
# The series itself


def sawtooth(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, exactly."""
    frac = x - floor(x)
    return min(frac, 1 - frac)


def series_value(x: Fraction, terms: int) -> Fraction:
    """Plain partial sum of the defining series, one term at a time."""
    total = Fraction(0)
    for n in range(terms):
        total += sawtooth((1 << n) * x) / (1 << n)
    return total


def series_value_dyadic(x: Fraction) -> Fraction:
    """Exact value at a dyadic rational: terms at or past the bit length vanish."""
    den = x.denominator
    assert den & (den - 1) == 0, f"{x} is not dyadic"
    return series_value(x, den.bit_length() - 1)


def signed_series_value(x: Fraction, term_signs, terms: int) -> Fraction:
    """Partial sum with per-term signs (term_signs[n] multiplies term n)."""
    total = Fraction(0)
    for n in range(terms):
        total += term_signs[n] * sawtooth((1 << n) * x) / (1 << n)
    return total


def periodic_series_value(x: Fraction, signs=None) -> Fraction:
    """Exact value of sum_n r_n 2^-n dist(2^n x, Z) at a rational x, from the
    series alone (``signs=None`` means all plus, i.e. T itself).

    With x = p/q, term n is r_n min(k_n, q - k_n) / (q 2^n), k_n = p 2^n mod q.
    Both k_n and r_n are eventually periodic, so past the first index Q where
    both have settled the terms repeat every P = lcm of the two periods,
    scaled by 2^-P: the value is the Q head terms plus one block of P terms
    divided by 1 - 2^-P.
    """
    p, q = x.numerator, x.denominator
    seen, k = {}, p % q
    while k not in seen:
        seen[k] = len(seen)
        k = 2 * k % q
    start, period = seen[k], len(seen) - seen[k]
    if signs is not None:
        start, period = max(start, signs.transient), lcm(period, signs.period_length)

    def scaled_sum(count: int) -> int:
        """q 2^count times the sum of the first ``count`` terms."""
        total = 0
        for n in range(count):
            k = p * pow(2, n, q) % q
            r = 1 if signs is None else signs.term(n)
            total += r * min(k, q - k) << (count - n)
        return total

    head = Fraction(scaled_sum(start), q << start)
    block = Fraction(scaled_sum(start + period), q << (start + period)) - head
    return head + block / (1 - Fraction(1, 1 << period))


def walk_of(digits) -> tuple[int, ...]:
    """Slope walk D_1..D_k of a word: D_j sums +1 for each 0 and -1 for each 1."""
    return tuple(accumulate(1 - 2 * b for b in digits))


def balanced_words(order: int):
    """Every word of length 2 order whose slope walk ends at zero, by brute
    force over all 4^order words, in lexicographic order."""
    for bits in product((0, 1), repeat=2 * order):
        if sum(bits) == order:
            yield bits


class DigitWord:
    """A binary word walked one digit at a time under signs r (``None`` for
    all plus): D moves by +r_{i-1} on a 0 and by -r_{i-1} on a 1, and the
    scaled value w_i = 2^i v_i obeys w_i = 2 w_{i-1} + eps_i (D_{i-1} + r_{i-1}),
    so ``value`` is the function at the dyadic point 0.eps_1...eps_k."""

    def __init__(self, digits=(), signs=None):
        self.digits = tuple(digits)
        self.slope = self.scaled_value = 0
        for i, bit in enumerate(self.digits):
            r = 1 if signs is None else signs.term(i)
            if bit:
                self.scaled_value = 2 * self.scaled_value + self.slope + r
                self.slope -= r
            else:
                self.scaled_value *= 2
                self.slope += r

    @property
    def value(self) -> Fraction:
        return Fraction(self.scaled_value, 1 << len(self.digits))


def long_division(x: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) of x in [0, 1) by schoolbook long division.

    The tail after digit i is r_i / den, so the digits repeat from the first
    remainder seen twice: that index is the shortest preperiod and the gap
    the shortest period.  A zero remainder ends the expansion (empty period).
    """
    den = x.denominator
    digits, seen, r = [], {}, x.numerator
    while r and r not in seen:
        seen[r] = len(digits)
        bit, r = divmod(2 * r, den)
        digits.append(bit)
    start = seen[r] if r else len(digits)
    return tuple(digits[:start]), tuple(digits[start:])


def word_numerator(word) -> int:
    """The integer whose binary digits are ``word``, one digit at a time."""
    n = 0
    for b in word:
        n = (n << 1) | b
    return n


def expansion_value(preperiod, period) -> Fraction:
    """0.u(c)^inf as u / 2^q plus c / (2^p - 1) shifted past the preperiod."""
    q, p = len(preperiod), len(period)
    total = Fraction(word_numerator(preperiod), 1 << q) if q else Fraction(0)
    if p:
        total += Fraction(word_numerator(period), (1 << p) - 1) / (1 << q)
    return total


# ---------------------------------------------------------------------------
# reference_close_graph, the rules reference the oracles share: one queue,
# a digit loop per state, every check on both children


def reference_close_graph(y: Fraction, *, max_states: int = DEFAULT_MAX_STATES) -> StateGraph:
    """``machine.close_graph`` one state at a time: the queue is the id range
    from ``v`` on, the depth advances when ``v`` reaches the end of a level,
    and each child is tested on both feasibility bounds and the slope budget,
    k + ``machine.SLOPE_MARGIN`` for den(y) = 2^k m with m odd, whichever way
    its |D| moves.  These are the ``step`` and ``is_feasible`` rules with
    R = N / S; ``test_integer_closure_matches_fraction_reference``
    checks the integer closure edge by edge against them."""
    if not 0 <= y <= TWO_THIRDS:
        return StateGraph(y, 0)
    lattice_depth = 2 * ordinate_depth(y)
    scale, root_num = y.denominator, y.numerator
    max_slope = (scale & -scale).bit_length() - 1 + machine.SLOPE_MARGIN
    root_key = (0, 0, root_num) if lattice_depth > 0 else (0, root_num)
    root_ray = ZERO_RAY if root_num == 0 else MAX_RAY if 3 * root_num == 2 * scale else 0
    graph = StateGraph(y, lattice_depth, {root_key: 0}, [0], [root_num], [root_ray], [-1], [-1])
    nodes, slopes, nums, flags = graph.nodes, graph.slope, graph.num, graph.flags
    child0, child1 = graph.child0, graph.child1
    reason = None
    depth, level_end = 0, 1  # state v is this deep while v < level_end
    tagged = lattice_depth - 1  # children of states at least this deep carry no tag
    v = 0  # the queue is the id range v, v + 1, ..., len(slopes) - 1
    while v < len(slopes) and reason is None:
        if v == level_end:
            depth, level_end = depth + 1, len(slopes)
            if depth == lattice_depth:
                graph.prefix = v
        slope, num = slopes[v], nums[v]
        if flags[v] & (ZERO_RAY | ONES_RAY):
            v += 1
            continue
        for bit, child_slope, child_num in (
            (0, slope + 1, 2 * num),
            (1, slope - 1, 2 * num - (slope + 1) * scale),
        ):
            if child_slope >= 0:
                if child_num < 0:
                    continue
                headroom = 2 * scale - (3 * (child_num - child_slope * scale) << child_slope)
                ray = ZERO_RAY if child_num == 0 else 0
            else:
                if child_num < child_slope * scale:
                    continue
                headroom = 2 * scale - (3 * child_num << -child_slope)
                ray = ONES_RAY if child_num == child_slope * scale else 0
            if headroom < 0:
                continue
            if abs(child_slope) > max_slope:
                reason = "slope"
                break
            key = (
                (child_slope, child_num) if depth >= tagged else (depth + 1, child_slope, child_num)
            )
            child = nodes.get(key)
            if child is None:
                child = len(slopes)
                if child >= max_states:
                    reason = "states"
                    break
                nodes[key] = child
                slopes.append(child_slope)
                nums.append(child_num)
                flags.append(MAX_RAY if headroom == 0 else ray)
                child0.append(-1)
                child1.append(-1)
            (child1 if bit else child0)[v] = child
        v += 1
    if depth < lattice_depth:
        graph.prefix = len(slopes)
    graph.budget_reason = reason
    return graph


# ---------------------------------------------------------------------------
# The whole state graph: Tarjan from every id, then the children-first count


def whole_graph_live_states(graph):
    """(components, continuations, profiles, live) of a closed
    ``machine.StateGraph``, with Tarjan started at every id from the root on
    and the count pass run over its components alone, prefix states
    included; the rules are those of the machine module docstring.

    This is the only reference for Tarjan's component order, and that order
    is observable: a branching-cluster or cycle-exit witness names the
    first such cluster or edge in it."""
    flags = graph.flags
    size = len(flags)
    # children that are not all-ones dead ends, in digit order
    live_children = [
        [c if c >= 0 and not flags[c] & ONES_RAY else -1 for c in children]
        for children in (graph.child0, graph.child1)
    ]
    index = [-1] * size
    low = [0] * size
    on_stack = bytearray(size)
    next_bit = bytearray(size)  # the next child to try, per state on ``work``
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for start in range(size):
        if index[start] >= 0 or flags[start] & ONES_RAY:
            continue
        work = [start]
        while work:
            v = work[-1]
            if index[v] < 0:  # first visit
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            bit = next_bit[v]
            if bit < 2:
                next_bit[v] = bit + 1
                w = live_children[bit][v]
                if w < 0:
                    continue
                if index[w] < 0:
                    work.append(w)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1]]:
                low[work[-1]] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    counts, profiles = [0] * (size + 1), [0] * (size + 1)
    for comp in comps:
        if len(comp) > 1:
            for v in comp:
                counts[v] = profiles[v] = 1
            continue
        v = comp[0]
        if flags[v] & ZERO_RAY:
            counts[v] = profiles[v] = 1
            continue
        zero, one = graph.child0[v], graph.child1[v]
        counts[v] = counts[zero] + counts[one]
        if graph.slope[v]:
            profiles[v] = profiles[zero] + profiles[one]
        else:
            profiles[v] = max(profiles[zero], profiles[one])
    return comps, counts, profiles, [n > 0 for n in counts]


# ---------------------------------------------------------------------------
# The dyadic witness: breadth-first over digit words


def first_dyadic_preimage(y: Fraction, max_digits: int = 4096) -> Fraction:
    """The value of the first digit word, breadth-first and 0-digit first,
    whose state from the root (0, y) under the Fraction ``machine.step`` and
    ``machine.is_feasible`` rules ends on R == 0, D >= 0.  Words of one
    length that reach the same state have the same continuations, so each
    level keeps the first word per state; the levels stay in word order."""
    level = {(0, y): ()}
    for _ in range(max_digits + 1):
        for (slope, residue), word in level.items():
            if residue == 0 and slope >= 0:
                return Fraction(word_numerator(word), 1 << len(word))
        following: dict = {}
        for state, word in level.items():
            for bit in (0, 1):
                child = step(state, bit)
                if is_feasible(child) and child not in following:
                    following[child] = word + (bit,)
        level = following
    raise ValueError(f"no word of at most {max_digits} digits reaches a zero ray from {y}")


# ---------------------------------------------------------------------------
# Integer grids: T(k/2^N) * 2^N is an integer, computed by column sums


def int_grid(N: int, term_signs=None) -> np.ndarray:
    """total[k] = f(k/2^N) * 2^N for k = 0..2^N, as int64, where f has
    term_signs[n] on term n (``None`` means all plus, i.e. T itself)."""
    k = np.arange((1 << N) + 1, dtype=np.int64)
    total = np.zeros_like(k)
    for n in range(N):
        P = np.int64(1 << (N - n))
        r = k % P
        np.minimum(r, P - r, out=r)
        total += r if term_signs is None else int(term_signs[n]) * r
    return total


def sign_change_count(total: np.ndarray, N: int, y: Fraction) -> int:
    """|{x : T(x) = y}| counted as exact hits plus strict sign changes of
    T - y along the grid x = k/2^N.  Correct whenever the level set is
    finite and the grid is fine enough to separate its points.
    """
    # T(k/2^N) - y has the sign of total[k] * den - num * 2^N (exact ints).
    den, num = y.denominator, y.numerator
    assert int(total.max()) * den < (1 << 62), "denominator too large for int64"
    diff = total * np.int64(den) - np.int64(num * (1 << N))
    s = np.sign(diff)
    hits = int(np.count_nonzero(s == 0))
    left, right = s[:-1], s[1:]
    crossings = int(
        np.count_nonzero((left > 0) & (right < 0))
        + np.count_nonzero((left < 0) & (right > 0))
    )
    return hits + crossings


def envelope_brute_max(slope: int, total: np.ndarray, N: int) -> Fraction:
    """max over the grid of T(t) + slope * t, t = k/2^N, exactly."""
    k = np.arange((1 << N) + 1, dtype=np.int64)
    return Fraction(int((total + np.int64(slope) * k).max()), 1 << N)


# ---------------------------------------------------------------------------
# Truncated hits: the humps whose truncated band holds y
#
# A hit of order m is a balanced word w (length 2m, slope walk back at zero)
# whose truncated band [v(w), v(w) + (1/2) 4^-m] holds y.  Short orders are
# listed word by word; every order at once is a walk count over
# reference_close_graph.


@dataclass(frozen=True)
class HitCount:
    total: int
    leading: int


def _direct_hits(y: Fraction, max_order: int) -> HitCount:
    """Enumerate balanced words of order <= max_order hit by y, by pruned DFS
    over Fraction values.  It is ``test_humps``' word-by-word reference for
    ``humps.truncated_hits`` and for :func:`complete_hits`."""
    total = leading = 0
    # stack entries: (digits-so-far as tuple, slope, value, stayed-nonnegative)
    stack = [((), 0, Fraction(0), True)]
    while stack:
        word, slope, value, nonneg = stack.pop()
        depth = len(word)
        if depth % 2 == 0 and slope == 0:
            m = depth // 2
            if value <= y <= value + HALF / (1 << (2 * m)):
                total += 1
                if nonneg:
                    leading += 1
        if depth == 2 * max_order:
            continue
        scale = Fraction(1, 1 << depth)
        # Every curve value below this prefix lies in
        # [value + min(0, slope) * scale, value + (max(0, slope) + 2/3) * scale];
        # a hit elsewhere is impossible, so prune.
        if not (value + min(0, slope) * scale <= y <= value + (max(0, slope) + TWO_THIRDS) * scale):
            continue
        for bit in (0, 1):
            if bit:
                child = (slope - 1, value + (slope + 1) * scale / 2)
            else:
                child = (slope + 1, value)
            stack.append((word + (bit,), child[0], child[1], nonneg and child[0] >= 0))
    return HitCount(total, leading)


def complete_hits(y: Fraction) -> HitCount:
    """Exact number of truncated humps, of every order, whose band holds y,
    with the leading subcount: the root walks of ``reference_close_graph(y)``
    that end on a hit state, D = 0 and 0 <= R <= 1/2 (0 <= 2N <= S).

    Why that is the count: the walk of a balanced word w of order m from the
    root (0, y) ends at D = 0 with R = (y - v(w)) 4^m, so w's truncated band
    holds y exactly when its walk ends on a hit state.  A hit state is
    feasible (R <= 1/2 < 2/3), and so is every prefix state of its word: the
    curve over a word's interval takes every value it takes over the
    interval of a longer word.  So each such word is one root walk of the
    closed graph, and each root walk is one word (one child per digit).  The
    depth tag splits states but not walks, so it does not change the count;
    the closure leaves rays unexpanded, and no walk past a ray returns to
    D = 0.  A hump is leading when its walk keeps D >= 0, so the leading
    count is the same count through the states with D >= 0 alone.

    Walks are counted only through states that can reach a hit state.  A
    cycle among those gives infinitely many hits, hence an infinite level
    set, and raises AssertionError, as does a closure stopped by a budget.
    """
    graph = reference_close_graph(y)
    assert graph.closed, f"state budget exhausted at {y}"
    slopes, scale = graph.slope, y.denominator
    hit = [d == 0 and 0 <= 2 * n <= scale for d, n in zip(slopes, graph.num)]
    edges = [[c for c in children if c >= 0] for children in zip(graph.child0, graph.child1)]
    parents: list[list[int]] = [[] for _ in slopes]
    for v, children in enumerate(edges):
        for c in children:
            parents[c].append(v)

    def walk_count(allowed) -> int:
        reach = {v for v in range(len(slopes)) if hit[v] and allowed(v)}
        stack = list(reach)
        while stack:
            for u in parents[stack.pop()]:
                if u not in reach and allowed(u):
                    reach.add(u)
                    stack.append(u)
        # walks by length; one of more than len(reach) states repeats a state
        level, total = ({0: 1} if 0 in reach else {}), 0
        for _ in range(len(reach) + 1):
            if not level:
                return total
            total += sum(n for v, n in level.items() if hit[v])
            following: dict[int, int] = {}
            for v, n in level.items():
                for c in edges[v]:
                    if c in reach:
                        following[c] = following.get(c, 0) + n
            level = following
        raise AssertionError(f"infinite hit family at {y}")

    return HitCount(walk_count(lambda v: True), walk_count(lambda v: slopes[v] >= 0))

# ---------------------------------------------------------------------------
# Local level sets: preimages grouped by their |D_j| profile


def profile_classes(paths) -> int:
    """Distinct |D_j| profiles (D_j = #zeros - #ones among the first j digits)
    among eventually periodic expansions with drift-free periods, such as a
    finite level set's paths: each |D_j| tail then has a period dividing the
    lcm of the digit periods, so max preperiod + 3 * lcm digits pin it."""
    window = max((len(p.preperiod) for p in paths), default=0)
    window += 3 * lcm(*(len(p.period) or 1 for p in paths))
    profiles = set()
    for p in paths:
        digits = islice(chain(p.preperiod, cycle(p.period or (0,))), window)
        profiles.add(tuple(abs(d) for d in accumulate(1 - 2 * bit for bit in digits)))
    return len(profiles)
