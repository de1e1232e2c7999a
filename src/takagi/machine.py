"""Finite-state exploration of a level set L(y) = {x in [0,1] : T(x) = y}.

Fixing digits eps_1..eps_j of x pins the prefix value v_j and slope D_j; the
suffix t must then satisfy T(t) + D_j * t = R with R = (y - v_j) * 2^j.  So a
partial preimage is summarised by the state (D, R), which steps by

    eps = 0:  (D + 1, 2R)          eps = 1:  (D - 1, 2R - D - 1)

and is feasible iff  min(0, D) <= R <= g(D) := max(0, D) + (2/3) 2^-|D|,
the exact two-sided envelope of t -> T(t) + D t on [0, 1].  For any
rational y the feasible states form a finite graph once |D| is bounded (the
integer form below says why), and the shape of that graph decides the
cardinality of L(y):

* a state with R = g(D) (max ray) or a cycle cluster with more internal
  edges than states pumps a Cantor set of suffixes -> uncountable;
* a state with R = 0, D >= 0 (zero ray: the suffix 000... works, i.e. y is
  attained at a dyadic point) or a cycle that can be left -> countably
  infinite (pump the cycle);
* otherwise every infinite feasible path threads a fixed set of exit-free
  simple cycles and L(y) is finite, with one eventually periodic preimage
  per root-to-cycle path, reconstructed exactly.

States with R = D and D <= -1 admit only the all-ones suffix, the
non-canonical twin of a dyadic expansion counted elsewhere; they are dead
ends and are the only feasible dead ends.  The count pass gives every
state its number of infinite continuations: Tarjan finds the cycle
clusters, whose states count 1, and every other state counts, children
first, 1 on a zero ray, else the sum over its children.  A state is live
exactly when its count is positive, and under a Finite verdict the root's
count is the cardinality.  The verdict's witnesses are read off the
clusters, in the order Tarjan emits them: the first that branches, and
the first that can be left.

The fold (D, R) -> (-D, R - D) is the state of the complemented suffix
1 - t (T(1 - t) = T(t)).  It keeps |D| and commutes with the steps (a 0 on
one side is a 1 on the other), so the closed graph is fold-symmetric and at
D = 0 the 1-child is the fold of the 0-child.  The same pass counts each
state's distinct |D_j| sequences (profiles): like the continuations, except
that a D = 0 state takes one child's count, both children having the same
profiles.  Under a Finite verdict the root's profile count is n_local, the
number of local level sets.  So the verdict, the cardinality and n_local
need no listing.

Preimages come from one depth-first walk, 0-digit first, over the live
states of the root's 0-subtree.  A path ends on the all-zeros ray (a
terminating expansion) or when it first revisits one of its own states
(the period is the digits since that state's first visit).  Its first path
is min L(y), which lies below 1/2.  Under a Finite verdict the fold lists
the rest: it fixes the root, swaps its children and keeps every state
live or dead (a Finite graph has no zero ray, the one live state whose
fold, a ones ray, is dead), so the root's 1-subtree holds the complements
of the walk's paths, in reverse order.  The walk's paths, then those
complements, are the whole of L(y) in increasing order.

The closure runs on integers.  With S = den(y) it carries (D, N), N = R * S,
which is an integer at every depth: R * S = num(y) * 2^j - v_j 2^j * S, and
the prefix value v_j is a multiple of 2^-j.  The steps become

    eps = 0:  (D + 1, 2N)          eps = 1:  (D - 1, 2N - (D + 1) S)

and feasibility becomes  min(0, D) S <= N  and  N - max(0, D) S <= cap(|D|),
where cap(a) = (2S // 3) >> a, the floor of 2S / (3 * 2^a): the excess
N - max(0, D) S is an integer.  A max ray is a state whose excess times
3 * 2^|D| is 2S, so its excess is the cap; N = 0, D >= 0 is a zero ray and
N = D S, D <= -1 a ones ray.  Nothing assumes the shape of S.  Feasibility
confines N to

    min(0, D) S <= N <= max(0, D) S + cap(|D|),

at most (|D| + 1) S + 1 integers for each D, so the state set is finite
once |D| is bounded, by the slope budget k + ``SLOPE_MARGIN`` for
S = 2^k m, m odd.  It follows k, as the slopes of a closing graph do:
|D| <= depth on the tagged prefix, which ends at the lattice depth, k or
k + 1, so no slope exit happens there, and the core past it is fixed by m
and its entry level (below); 1 / (3 * 2^k) closes at largest |D| = k + 10,
11, 25 and 31 for k = 100, 300, 1000 and 2000.  The breadth-first closure
expands one level at a time, and keeps the caps in a table that grows by
one entry a level, as |D| <= depth.  Of a state's two children, the one
whose |D| shrinks has twice its parent's excess under the cap one shift
wider, so it fits, and is a max ray, exactly when its parent does and is:
only its lower bound is tested.  The one whose |D| grows (both at D = 0)
is tested against its cap, the product 3 * 2^|D| * excess is formed only
at the cap, to tell a max ray, and then the slope budget.  A suffix
that drifts, such as (001)^inf under y = 1/49, moves D by one per period:
it ends in the slope budget, as Indeterminate, and does not hang.  For the
first 2n digits, n = :func:`~takagi.rationals.ordinate_depth` (read off the
2-adic valuation of S), a state's key also carries its depth; for
S = 2^k or 3 * 2^k the residues from there on lie on a fixed lattice
(integers for dyadic y, thirds otherwise).  The tag only delays merging:
(D, N) is the exact state, so every tag depth gives an exact graph.

The closed graph is flat: each state gets an integer id in breadth-first
order (the root is 0), and parallel lists indexed by id hold its slope D,
its N, its ray flag and its two children (-1 where the digit is
infeasible).  The int-tuple keys serve only to merge states in the closure;
every later pass runs on the lists, and R = N / S is formed only to print a
label.  The tagged states are the ids below
``prefix``, the first state at the lattice depth.  They form a layered DAG:
each edge leaves depth d for depth d + 1 and a larger id, and no edge of the
untagged core leads back into the prefix.  So Tarjan and the walk's revisit
check run on the core alone, the count pass ends with one sweep down the
prefix ids, and the walk takes a forced run through tagged states once
(:func:`_paths`).  :func:`step`, :func:`is_feasible` and the
``envelope_*`` functions state the same rules on (D, R) with Fractions and
are the exact reference the closure is tested against.

A core is fixed by the odd part m of S = 2^k m and by its entry level: the
states at the lattice depth, the first ids from ``prefix`` on, as their
keys (D, N >> k) in id order.  Past depth k every untagged N is a multiple
of 2^k: both terms of N = num(y) 2^j - (v_j 2^j) S are, once j >= k, and
the untagged states lie at depth 2n >= k.  Each step and each feasibility
and ray test above is homogeneous in (N, S), so in N / 2^k the integer
steps are the same with m in place of S: a core state's children and ray
flag follow from (m, D, N >> k).  The core is the breadth-first closure of
its entry level, and no core edge leads back into the prefix, so two
graphs with equal entry keys have the same core up to the id offset
``prefix``, and Tarjan, started at ``prefix``, ``prefix + 1``, ..., emits
the same components in the same order.

The same argument holds higher up.  Let L = 2n be the lattice depth; it is
k or k + 1.  At a tagged depth d <= k every N is a multiple of 2^d, as
both terms of N = num(y) 2^d - (v_d 2^d) S are.  So everything from depth
d on is the closure of that level's states (D, N >> d) under S >> d =
2^(k - d) m, with L - d tagged levels left: a tagged key merges states of
one depth only, and an untagged one by (D, N).  A keyed level at depth d
has the key (L - d, k - s, m, and its states' (D, N >> s) in id order),
s = min(d, k); at the entry level (d = L, s = k) that is the core's key
above.  Equal keys fix the graph from the level's first id on, up to that
id: its edges, ray flags and largest |D|, and Tarjan's order on its core.
The key is known before any state of the level is expanded.

A count-only :func:`classify` keys one level in a bounded memo across
ordinates (the grid's j / (3 * 4^n) all have m = 1 or 3): ``BAND`` = 3
levels above the lattice depth when L > 3, at d = L - 3 <= k, else the
entry level.  Its closure stops once, when that level is made, and the
key is looked up once.  An entry holds the counts of the level's own
states, all that the sweep of the ids above the level reads, and the
facts of the graph from the level on: its size, live states, cycle
clusters and largest |D|, whether it holds a zero ray, and its witness
texts.  A hit that fits the budgets, the level's first id plus the
entry's size at most ``max_states`` and the entry's largest |D| at most
the slope budget (ordinates of different k may share an entry, but not a
slope budget), gives the report from that sweep and the entry, and no
state from the level on is expanded.  Neither budget could stop that
closure: a slope exit needs a feasible child past the budget, and a
closed graph whose largest |D| is T has none.  A miss, or a hit that does
not fit, closes the rest under the same budgets, so a budget exit keeps
its reason, and runs the cold count pass on the whole graph; its facts
from the level on are the entry.  Why three: a grid row's tagged levels
widen with depth, so the three nearest the lattice hold about a third of
a depth-5 row's tagged states (7.0 of 19.1), and the closure is most of a
remembered row's time.  Keying higher leaves fewer states to close but
gives more distinct keys: on a cold depth-6 grid, what one
``takagi grid --depth 6`` runs, offset 3 hits on 7,127 of 8,193 rows and
ends with 3,889 states held in 1,065 entries; offsets 4 and 5 hit on
6,822 and 6,326 and hold 4,231 and 5,473.

The keyed level is not a field of the graph: the closure hands it to
classify beside the graph, and classify hands it, the key and the entry
to :func:`analyze` as arguments, never through module state.  Every other
caller counts the whole graph cold from id 0 and neither reads nor writes
the memo: listing callers, the default ``classify`` and
:func:`leftmost_preimage`, walk the core, which no entry keeps, and
:func:`analyze` on a caller's graph must not (an edited graph would poison
the memo).  Memo writes hold a lock, so classify is safe to call
re-entrantly and from threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from threading import Lock
from typing import Iterable, Iterator, NamedTuple, Optional

from .curve import TWO_THIRDS
from .rationals import ZERO, BinaryExpansion, split_denominator

DEFAULT_MAX_STATES = 100_000
SLOPE_MARGIN = 256  # the slope budget is k + SLOPE_MARGIN for den(y) = 2^k m
# A Finite level set with more points than this is reported Indeterminate
# when it is to be listed (a count-only report has no such bound):
# L(2/3 - 1/(3 * 2^k)) has 2^(k/2 + 1) points.
MAX_PREIMAGES = 2**20
# How many levels above the lattice depth a count-only classify keys its
# memo entry, when the lattice depth is larger (module docstring)
BAND = 3

# StateGraph.flags values; a state is at most one kind of ray
ZERO_RAY, ONES_RAY, MAX_RAY = 1, 2, 4

State = tuple[int, Fraction]


class BudgetExceededError(RuntimeError):
    """Exploration hit the state or slope budget before the graph closed."""


def envelope_max(slope: int) -> Fraction:
    """g(D) = max over [0,1] of T(t) + D t, exactly: max(0, D) + (2/3) 2^-|D|.

    The maximiser is the Kahane point nearest 1 (D < 0: nearest 0); g obeys
    the one-step recursion g(D) = max(g(D+1)/2, (D + 1 + g(D-1))/2) and the
    symmetry g(-D) = g(D) - D.
    """
    return max(0, slope) + TWO_THIRDS / (1 << abs(slope))


def envelope_min(slope: int) -> Fraction:
    """Min over [0,1] of T(t) + D t: 0 for D >= 0 (at t=0), else D (at t=1)."""
    return Fraction(min(0, slope))


def is_feasible(state: State) -> bool:
    slope, residue = state
    return envelope_min(slope) <= residue <= envelope_max(slope)


def step(state: State, bit: int) -> State:
    """Advance (D, R) by one digit: R doubles, minus (D + 1) when bit = 1."""
    slope, residue = state
    if bit == 0:
        return slope + 1, 2 * residue
    return slope - 1, 2 * residue - slope - 1


@dataclass
class StateGraph:
    """The feasible states of L(y), numbered breadth-first from the root 0.

    ``nodes`` maps each state's key, (depth, D, N) before the lattice depth
    and (D, N) after it, to its id; the lists are indexed by id.  A flag is
    0 or one of ZERO_RAY, ONES_RAY and MAX_RAY, never a union: the rays
    exclude one another.  ``child0`` and ``child1`` hold -1 for an
    infeasible digit and for an unexpanded ray.  ``prefix`` is the first id
    at the lattice depth (the number of tagged states), or every id when
    the closure stops above that depth.  That includes a budget exit while
    the last tagged level is expanded: the untagged children already made
    are below ``prefix`` too.  An ordinate outside [0, 2/3] has no states.
    """

    ordinate: Fraction
    lattice_depth: int
    nodes: dict[tuple[int, ...], int] = field(default_factory=dict)
    slope: list[int] = field(default_factory=list)
    num: list[int] = field(default_factory=list)
    flags: list[int] = field(default_factory=list)
    child0: list[int] = field(default_factory=list)
    child1: list[int] = field(default_factory=list)
    prefix: int = 0
    budget_reason: Optional[str] = None

    @property
    def closed(self) -> bool:
        return self.budget_reason is None


def close_graph(y: Fraction, *, max_states: int = DEFAULT_MAX_STATES) -> StateGraph:
    """Breadth-first closure of the feasible states of a rational ordinate.

    Stops early (closed=False) if more than ``max_states`` states appear or
    some |D| exceeds the slope budget (module docstring); analysis then
    reports Indeterminate rather than guessing.  Terminal rays are kept as
    states but never expanded.  The walk runs on integer states (D, N),
    N = R * S, one breadth-first level at a time.
    """
    *_, (graph, _) = _closure(y, max_states)
    return graph


def _closure(
    y: Fraction, max_states: int
) -> Iterator[tuple[StateGraph, tuple[int, int, int]]]:
    """:func:`close_graph`'s closure in two stages, each yielded as the graph
    and its keyed level: the depth, first id and end id of the level
    (module docstring), ``BAND`` levels above the lattice depth when that
    depth is more than ``BAND``, else at the lattice depth.  The first stage
    comes once that level is made and none of its states is expanded, with
    ``prefix`` set as for a closure that stopped there and ``closed``
    reading True; the second when the closure ends.  A closure that ends
    above the keyed level yields only the second, with an empty level at
    the keyed depth, (depth, n, n) for n states."""
    root_num, scale = y.numerator, y.denominator
    if root_num < 0 or 3 * root_num > 2 * scale:  # y outside [0, 2/3]
        yield StateGraph(y, 0), (0, 0, 0)
        return
    k = (scale & -scale).bit_length() - 1  # den(y) = 2^k m, m odd
    max_slope = k + SLOPE_MARGIN
    lattice_depth = k + (k & 1)  # 2 * ordinate_depth(y)
    keyed_depth = lattice_depth - BAND if lattice_depth > BAND else lattice_depth
    root_key = (0, 0, root_num) if lattice_depth > 0 else (0, root_num)
    root_ray = ZERO_RAY if root_num == 0 else MAX_RAY if 3 * root_num == 2 * scale else 0
    graph = StateGraph(y, lattice_depth, {root_key: 0}, [0], [root_num], [root_ray], [-1], [-1])
    nodes, slopes, nums, flags = graph.nodes, graph.slope, graph.num, graph.flags
    child0, child1 = graph.child0, graph.child1
    add = nodes.setdefault
    twice = 2 * scale
    # caps[a] = (2S // 3) >> a, the largest excess N - max(0, D) S of a feasible
    # state with |D| = a; one entry more per level, as |D| <= depth
    caps = [twice // 3]
    reason: Optional[str] = None
    depth, start, end = 0, 0, 1  # the level: ids start..end - 1, all this deep
    size = 1  # the states made
    while True:
        if depth <= lattice_depth:
            graph.prefix = start if depth == lattice_depth else end
        if depth == keyed_depth:
            level = (depth, start, end)
            yield graph, level
        if start == end:
            break
        tag = depth + 1 if depth + 1 < lattice_depth else 0  # the children's key tag, if any
        caps.append(caps[-1] >> 1)
        for v in range(start, end):
            flag = flags[v]
            if flag & (ZERO_RAY | ONES_RAY):
                continue
            slope, num = slopes[v], nums[v]
            double = 2 * num
            one = double - (slope + 1) * scale  # the 1-child's N
            # ``ray`` is the child's flag, -1 for an infeasible digit.  The child
            # whose |D| shrinks fits, and is a max ray, exactly when its parent
            # does and is, so it keeps the parent's flag; the one whose |D| grows
            # to a has the excess ``one``, which fits iff it is at most caps[a]
            # and makes a max ray only there (module docstring)
            if slope >= 0:  # 0-child (D + 1, 2N) grows; 2N > 0, as N = 0 is a zero ray
                cap = caps[slope + 1]
                if one > cap:
                    ray = -1
                elif slope >= max_slope:
                    reason = "slope"
                    break
                else:
                    ray = MAX_RAY if one == cap and 3 * one << slope + 1 == twice else 0
            elif one > 0:  # 0-child shrinks: 2N > min(0, D + 1) S
                ray = flag
            else:  # 2N = min(0, D + 1) S is a zero ray at D + 1 = 0, else a ones ray
                ray = -1 if one else ZERO_RAY if slope == -1 else ONES_RAY
            if ray >= 0:
                key = (tag, slope + 1, double) if tag else (slope + 1, double)
                child = add(key, size)
                if child == size:  # a new state
                    if size >= max_states:
                        del nodes[key]
                        reason = "states"
                        break
                    size += 1
                    slopes.append(slope + 1)
                    nums.append(double)
                    flags.append(ray)
                    child0.append(-1)
                    child1.append(-1)
                child0[v] = child
            if slope <= 0:  # 1-child (D - 1, e) grows: e >= (D - 1) S and e <= its cap
                cap = caps[1 - slope]
                above = one - (slope - 1) * scale
                if one > cap or above < 0:
                    ray = -1
                elif slope <= -max_slope:
                    reason = "slope"
                    break
                elif one == cap and 3 * one << 1 - slope == twice:
                    ray = MAX_RAY
                else:
                    ray = 0 if above else ONES_RAY
            elif one > 0:  # 1-child shrinks: e > 0
                ray = flag
            else:  # e = 0 is a zero ray
                ray = -1 if one else ZERO_RAY
            if ray >= 0:
                key = (tag, slope - 1, one) if tag else (slope - 1, one)
                child = add(key, size)
                if child == size:  # a new state
                    if size >= max_states:
                        del nodes[key]
                        reason = "states"
                        break
                    size += 1
                    slopes.append(slope - 1)
                    nums.append(one)
                    flags.append(ray)
                    child0.append(-1)
                    child1.append(-1)
                child1[v] = child
        else:  # the level is expanded: on to the next, if it has states
            depth += 1
            start, end = end, size
            continue
        break
    if depth < lattice_depth:  # a budget exit or an empty level above the lattice
        graph.prefix = size
    if depth < keyed_depth:  # the closure ended above the keyed level
        level = (keyed_depth, size, size)
    graph.budget_reason = reason
    yield graph, level


class Verdict(Enum):
    FINITE = "finite"
    COUNTABLY_INFINITE = "countably-infinite"
    UNCOUNTABLE = "uncountable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class LevelSetReport:
    ordinate: Fraction
    verdict: Verdict
    cardinality: Optional[int] = None
    preimages: Optional[tuple[Fraction, ...]] = None
    paths: Optional[tuple[BinaryExpansion, ...]] = None
    n_local: Optional[int] = None
    witness: Optional[str] = None
    witness_preimage: Optional[Fraction] = None
    diagnostics: dict = field(default_factory=dict)


def _report(
    ordinate: Fraction,
    verdict: Verdict,
    diagnostics: dict,
    cardinality: Optional[int] = None,
    preimages: Optional[tuple[Fraction, ...]] = None,
    paths: Optional[tuple[BinaryExpansion, ...]] = None,
    n_local: Optional[int] = None,
    witness: Optional[str] = None,
    witness_preimage: Optional[Fraction] = None,
) -> LevelSetReport:
    """What ``LevelSetReport(...)`` builds, with its fields stored straight
    into the instance dict rather than through one ``object.__setattr__``
    each, as the generated ``__init__`` of a frozen dataclass sets them.
    Stored in field order, they keep the keys the class's instances share."""
    new = object.__new__(LevelSetReport)
    fields = new.__dict__
    fields["ordinate"] = ordinate
    fields["verdict"] = verdict
    fields["cardinality"] = cardinality
    fields["preimages"] = preimages
    fields["paths"] = paths
    fields["n_local"] = n_local
    fields["witness"] = witness
    fields["witness_preimage"] = witness_preimage
    fields["diagnostics"] = diagnostics
    return new


def _live_states(graph: StateGraph) -> tuple[list[int], list[int], list[list[int]]]:
    """The cold count pass: each state's continuations and profiles, and
    the cycle clusters, in Tarjan's order, each in the order Tarjan pops its
    members.

    Tarjan runs over the no-dead-end subgraph of the core, the states from
    ``graph.prefix`` on (no core edge leads back into the tagged prefix), and
    emits each component after every component it leads to.  A cycle
    cluster's states count 1; the single states, in emission order, then the
    prefix ids, downwards, are counted by :func:`_count_from_children`.

    Infinite paths in a finite graph must reach a cycle or stop on the
    all-zeros ray, so a state is live iff its continuations are > 0.  Under
    a Finite verdict (exit-free simple cycles) both counts are exact: path
    counts and counts of distinct |D_j| sequences.  Dead ends count 0, and
    so does one extra last entry, which a missing child (-1) reads.
    """
    flags, children = graph.flags, (graph.child0, graph.child1)
    size = len(flags)
    counts, profiles = [0] * (size + 1), [0] * (size + 1)
    index = [-1] * size
    low = [0] * size
    on_stack = bytearray(size)
    next_bit = bytearray(size)  # the next child to try, per state on ``work``
    stack: list[int] = []
    counter = 0
    singles: list[int] = []
    cycles: list[list[int]] = []
    for start in range(graph.prefix, size):
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
                w = children[bit][v]
                if w < 0 or flags[w] & ONES_RAY:  # no digit, or an all-ones dead end
                    continue
                if index[w] < 0:
                    work.append(w)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1]]:
                low[work[-1]] = low[v]
            if low[v] < index[v]:  # not the root of its component
                continue
            w = stack.pop()
            on_stack[w] = 0
            if w == v:
                singles.append(v)
                continue
            comp = [w]
            while w != v:
                w = stack.pop()
                on_stack[w] = 0
                comp.append(w)
            for w in comp:
                counts[w] = profiles[w] = 1
            cycles.append(comp)
    _count_from_children(graph, counts, profiles, chain(singles, range(graph.prefix - 1, -1, -1)))
    return counts, profiles, cycles


def _count_from_children(
    graph: StateGraph, counts: list[int], profiles: list[int], states: Iterable[int]
) -> None:
    """The counting rule, for every state that is not on a cycle: count
    each of ``states``, in order, off its children's counts.  A zero ray
    counts 1; any other state the sum of its children's, except that a
    D = 0 state's profiles are its children's, the two children being folds
    of each other."""
    slopes, flags, child0, child1 = graph.slope, graph.flags, graph.child0, graph.child1
    for v in states:
        if flags[v] & ZERO_RAY:
            counts[v] = profiles[v] = 1
            continue
        zero, one = child0[v], child1[v]
        counts[v] = counts[zero] + counts[one]
        if slopes[v]:
            profiles[v] = profiles[zero] + profiles[one]
        else:
            profiles[v] = max(profiles[zero], profiles[one])


def _state_label(graph: StateGraph, v: int) -> str:
    return f"(D={graph.slope[v]}, R={Fraction(graph.num[v], graph.ordinate.denominator)})"


class _Entry(NamedTuple):
    """The count pass's facts of a graph from its keyed level on, as the memo
    keeps them.  ``counts`` and ``profiles`` are those of the level's own
    states, in id order, all that the sweep of the ids above the level
    reads.  The rest hold from the level on: the number of states, of live
    states and of cycle clusters; the largest |D|, formed only for an entry
    to be written (0 otherwise); whether a zero ray is among the states;
    and two witness texts, empty when there is none.  ``uncountable`` names
    the first max ray, in id order, or else the first branching cluster, in
    Tarjan's order; ``exit`` names the first cycle exit, in Tarjan's order."""

    counts: list[int]
    profiles: list[int]
    size: int
    live: int
    clusters: int
    top: int
    zero_ray: bool
    uncountable: str
    exit: str


# The memo: the facts of the graph from each keyed level on that a
# count-only :func:`classify` has counted, keyed by that level
# (:func:`_entry_key`).  A write that would take it past _CORE_MEMO_STATES
# states held evicts the oldest entries, in insertion order, until it
# fits; a larger entry is not written.  An entry holds its level's states
# under a key that lists each of them.  A held state takes about 173 bytes
# after a cold depth-6 grid (3,889 states in 1,065 entries), 11 MB at the
# bound; 233 after count-only calls on the deep sample; and about 460 in
# the one-state entries of odd den(y), whose keyed level is the root, while
# numbers fit in 30 bits, 30 MB at the bound.  A witness text adds its
# bytes, a branching cluster's a label per member (up to 1,278 bytes for
# one such entry over the reduced j/m with odd m < 64).  Wider numbers add
# their own bytes: m and N grow with den(y), and a count, in principle,
# with the paths through the graph from the level on.  Its facts reach the
# count pass only as arguments; writes hold _CORE_MEMO_LOCK, reads are
# dict.get.
_CORE_MEMO: dict[tuple, _Entry] = {}
_CORE_MEMO_STATES = 65_536
_CORE_MEMO_LOCK = Lock()
_core_memo_held = 0  # the states held, over every entry


def _entry_key(graph: StateGraph, level: tuple[int, int, int], k: int, odd: int) -> tuple:
    """The memo key of the graph from its keyed ``level`` at depth d: the
    levels left to the lattice depth L, then k - s, m and the (D, N >> s) of
    the level's states in id order, for den(y) = 2^k m (``k`` and ``odd``)
    and s = min(d, k)."""
    depth, start, end = level
    shift = depth if depth < k else k
    nums = graph.num[start:end]
    if shift:
        nums = [n >> shift for n in nums]
    return graph.lattice_depth - depth, k - shift, odd, tuple(graph.slope[start:end]), tuple(nums)


def _counted(
    graph: StateGraph, start: int, end: int, key: Optional[tuple], entry: Optional[_Entry]
) -> tuple[list[int], list[int], _Entry]:
    """The count pass: every state's continuations and profiles, and the
    facts of the graph from the level of ids ``start`` to ``end`` on.  A
    remembered ``entry``, found under ``key``, gives the counts of that
    level's states, from which the ids above it are swept, and the facts,
    so the graph need hold no more than that level.  Otherwise the cold
    pass runs on the whole graph, the facts are read off it and its cycle
    clusters, and, given a ``key``, written under it."""
    if entry is not None:
        counts = [0] * start + entry.counts + [0]
        profiles = [0] * start + entry.profiles + [0]
        _count_from_children(graph, counts, profiles, range(start - 1, -1, -1))
        return counts, profiles, entry
    counts, profiles, cycles = _live_states(graph)
    flags, child0, child1 = graph.flags[start:], graph.child0, graph.child1
    uncountable = exit_text = ""
    if MAX_RAY in flags:
        first = start + flags.index(MAX_RAY)
        uncountable = f"max-envelope state {_state_label(graph, first)} reached"
    for comp in cycles:
        if uncountable and exit_text:
            break
        members, inner = set(comp), 0
        for w in comp:
            for child in (child0[w], child1[w]):
                if child in members:
                    inner += 1
                elif not exit_text and counts[child] > 0:
                    exit_text = (
                        f"cycle through {_state_label(graph, w)} "
                        f"can be left towards {_state_label(graph, child)}"
                    )
        if inner > len(comp) and not uncountable:
            # cycles lie past the lattice depth, where keys are (D, N): sort on
            # the (D, R) form, so the listing does not depend on S
            scale = graph.ordinate.denominator
            ordered = sorted(
                comp, key=lambda v: str((graph.slope[v], Fraction(graph.num[v], scale)))
            )
            labels = ", ".join(_state_label(graph, v) for v in ordered)
            uncountable = f"branching cycle cluster {{{labels}}}"
    entry = _Entry(
        counts[start:end],
        profiles[start:end],
        size=len(flags),
        live=sum(map(bool, counts[start:-1])),
        clusters=len(cycles),
        top=max(map(abs, graph.slope[start:]), default=0) if key is not None else 0,
        zero_ray=ZERO_RAY in flags,
        uncountable=uncountable,
        exit=exit_text,
    )
    if key is not None:
        _remember(key, entry)
    return counts, profiles, entry


def _remember(key: tuple, entry: _Entry) -> None:
    """Write an entry, evicting the oldest entries until it fits, unless its
    key is held: two threads that missed it at once found the same facts."""
    global _core_memo_held
    size = len(entry.counts)
    if size > _CORE_MEMO_STATES:
        return
    with _CORE_MEMO_LOCK:
        if key in _CORE_MEMO:
            return
        held = _core_memo_held
        while held + size > _CORE_MEMO_STATES:
            held -= len(_CORE_MEMO.pop(next(iter(_CORE_MEMO))).counts)
        _CORE_MEMO[key] = entry
        _core_memo_held = held + size


def _dyadic_witness(graph: StateGraph) -> Fraction:
    """Digits of a shortest root-to-zero-ray path, as a dyadic preimage.

    close_graph is breadth-first, 0-digit first, so the first edge into an
    id, in id order, is the edge that found it: the first zero ray, walked
    back along those edges, is the leftmost shortest such path.
    """
    v = graph.flags.index(ZERO_RAY)
    found: dict[int, int] = {}  # each id's first in-edge, as 2 * source + digit
    for edge, child in enumerate(chain.from_iterable(zip(graph.child0[:v], graph.child1[:v]))):
        found.setdefault(child, edge)
    bits: list[int] = []
    while v:
        v, bit = divmod(found[v], 2)
        bits.append(bit)
    return BinaryExpansion(tuple(reversed(bits)), ()).value()


def _paths(graph: StateGraph, counts: list[int]) -> Iterator[BinaryExpansion]:
    """Paths from the root through its 0-child and on through live states
    (count > 0), depth-first, 0-digit first (the module docstring says how a
    path ends).  The root's 1-branch is never taken: under a Finite verdict
    the fold maps its paths onto these, digits flipped, so :func:`analyze`
    lists it as the complements of these paths in reverse order.  The first
    path is min L(y) under any verdict: the complement of a point of L(y) is
    one too, so min L(y) < 1/2 (L(1/2) holds 1/6 as well as 1/2), and it
    lies in the 0-subtree.  A path goes once round its exit-free cycle,
    keeping the rotation it entered at, e.g. 0^10 (0110) where
    :func:`to_binary` has 0^9 (0011).  A prefix state is never revisited, so
    only core states are recorded on the path.  A tagged state with one
    live child starts a forced run, the digits up to the next tagged state
    with two live children, zero ray or core state: the walk takes it once,
    the first time it reaches the state, and every later path through that
    state replays it with one list extend.  The walk keeps its own stack,
    so long prefixes are fine.
    """
    flags, child0, child1, prefix = graph.flags, graph.child0, graph.child1, graph.prefix
    offset = graph.lattice_depth  # every path enters the core at this depth
    digits: list[int] = []
    # the path's core states, the root among them when it is one (no prefix):
    # digits[offset + i] leaves path[i]
    path: list[int] = [] if prefix else [0]
    position = [0] * len(flags)  # where a state stands on the path, if it is on it
    # a forced tagged state's run, as its digits and the state it ends at
    runs: dict[int, tuple[list[int], int]] = {}
    # (state, digits before the edge into it, that edge's digit)
    stack: list[tuple[int, int, tuple[int, ...]]] = [(child0[0], 0, (0,))]
    while stack:
        v, depth, edge = stack.pop()
        digits[depth:] = edge
        del path[max(len(digits) - offset, 0) :]  # backtrack
        while True:  # follow live 0-digits, leaving each live 1-branch on the stack
            if flags[v] & ZERO_RAY:
                yield BinaryExpansion(tuple(digits), ())
                break
            if v >= prefix:
                start = position[v]
                if start < len(path) and path[start] == v:
                    start += offset
                    yield BinaryExpansion(tuple(digits[:start]), tuple(digits[start:]))
                    break
                position[v] = len(path)
                path.append(v)
            else:
                run = runs.get(v)
                if run is not None:  # a forced tagged state walked before
                    digits += run[0]
                    v = run[1]
                    continue
                # first reached: while the state has one live child, take its digit,
                # up to a core state, a zero ray (no live child) or a tagged state
                # with two live children, and record the run
                head, start = v, len(digits)
                while v < prefix:
                    zero, one = child0[v], child1[v]
                    if counts[zero] > 0:
                        if counts[one] > 0:
                            break
                        digits.append(0)
                        v = zero
                    elif counts[one] > 0:
                        digits.append(1)
                        v = one
                    else:
                        break
                if v != head:
                    runs[head] = digits[start:], v
                    continue
            zero, one = child0[v], child1[v]
            if counts[zero] > 0:
                if counts[one] > 0:
                    stack.append((one, len(digits), (1,)))
                digits.append(0)
                v = zero
            elif counts[one] > 0:
                digits.append(1)
                v = one
            else:
                raise AssertionError("live state with no live successor")


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _complement(path: BinaryExpansion) -> BinaryExpansion:
    """The expansion of 1 - x: every digit flipped, at the same split."""
    word = tuple(bytes(path.preperiod + path.period).translate(_FLIP))
    split = len(path.preperiod)
    return BinaryExpansion(word[:split], word[split:])


def analyze(
    graph: StateGraph, *, listing: bool = True, _keyed: tuple = (0, 1, None, None)
) -> LevelSetReport:
    """Turn a closed state graph into a verdict, and list the points if asked.

    The verdict, the cardinality (the root's count), ``n_local`` (the root's
    profile count), the witness text and the diagnostics are read off the
    count pass alone.  ``listing`` adds the rest: the preimages and paths of
    a Finite verdict, in increasing order, and a countable verdict's witness
    preimage.  Without it those three fields are None, and a Finite verdict
    is not bounded by ``MAX_PREIMAGES``; it checks instead that the root's
    two children count alike, the fold symmetry the listing relies on.
    The checks on a caller's graph raise AssertionError explicitly, so they
    hold under ``python -O`` too.
    ``_keyed`` is count-only :func:`classify`'s alone: the first and end
    ids of its keyed level, the level's key, and the entry found under it
    or None.  With an entry the graph may end at that level; without one
    the cold pass writes its facts under the key (module docstring).  The
    default, the root's level with no key, counts the whole graph cold
    and leaves the memo alone.

    The ordinate 0 is special-cased: its zero ray would read as "dyadic point
    attained", but 0 is attained only at the endpoints, so L(0) = {0, 1}.
    """
    y = graph.ordinate
    diagnostics: dict = {
        "states": len(graph.nodes),
        "lattice_depth": graph.lattice_depth,
        "closed": graph.closed,
    }
    if graph.budget_reason:
        diagnostics["budget_reason"] = graph.budget_reason

    if not y.numerator:  # y == 0
        paths = (BinaryExpansion((), ()), BinaryExpansion((), (1,)))
        listed = {"preimages": (ZERO, Fraction(1)), "paths": paths} if listing else {}
        return _report(y, Verdict.FINITE, diagnostics, cardinality=2, n_local=1, **listed)
    if not graph.nodes:  # y outside [0, 2/3]
        listed = {"preimages": (), "paths": ()} if listing else {}
        return _report(y, Verdict.FINITE, diagnostics, cardinality=0, n_local=0, **listed)
    if not graph.closed:
        witness = f"budget exceeded ({graph.budget_reason})"
        return _report(y, Verdict.INDETERMINATE, diagnostics, witness=witness)

    start, end, key, found = _keyed  # a remembered entry's graph may end at start
    counts, profiles, entry = _counted(graph, start, end, key, found)
    diagnostics["states"] = start + entry.size
    diagnostics["cycles"] = entry.clusters
    diagnostics["live_states"] = sum(map(bool, counts[:start])) + entry.live

    above = graph.flags[:start]
    if MAX_RAY in above:
        witness = f"max-envelope state {_state_label(graph, above.index(MAX_RAY))} reached"
    else:
        witness = entry.uncountable
    if witness:
        return _report(y, Verdict.UNCOUNTABLE, diagnostics, witness=witness)
    if entry.zero_ray or ZERO_RAY in above:
        return _report(
            y,
            Verdict.COUNTABLY_INFINITE,
            diagnostics,
            witness="attained at a dyadic point",
            witness_preimage=_dyadic_witness(graph) if listing else None,
        )
    if entry.exit:
        if counts[0] <= 0:
            raise AssertionError("a cycle can be left but the root is dead")
        return _report(
            y,
            Verdict.COUNTABLY_INFINITE,
            diagnostics,
            witness=entry.exit,
            witness_preimage=next(_paths(graph, counts)).value() if listing else None,
        )

    # Finite: the root's counts are the root-to-cycle paths and their profiles.
    total = counts[0]
    if not listing:  # a root remembered as its keyed level has no children here
        if counts[graph.child0[0]] != counts[graph.child1[0]]:
            raise AssertionError("root's subtrees differ in count")
        return _report(y, Verdict.FINITE, diagnostics, cardinality=total, n_local=profiles[0])
    if total > MAX_PREIMAGES:
        diagnostics["budget_reason"] = "preimages"
        return _report(y, Verdict.INDETERMINATE, diagnostics, witness="budget exceeded (preimages)")
    # the points below 1/2, then their complements (the fold), in reverse
    half = list(_paths(graph, counts))
    path_list = half + [_complement(p) for p in reversed(half)]
    if len(path_list) != total:
        raise AssertionError("path enumeration disagrees with path count")
    preimages = tuple(p.value() for p in half)
    preimages += tuple(1 - x for x in reversed(preimages))
    if not all(a < b for a, b in zip(preimages, preimages[1:])):
        raise AssertionError("preimages not sorted")
    return _report(
        y,
        Verdict.FINITE,
        diagnostics,
        cardinality=total,
        preimages=preimages,
        paths=tuple(path_list),
        n_local=profiles[0],
    )


def leftmost_preimage(y: Fraction) -> Fraction:
    """min L(y), exactly: the first path of the 0-digit-first walk.

    That path either stops on the all-zeros ray (dyadic answer) or first
    revisits one of its states, closing an eventually periodic expansion,
    e.g. leftmost(1/2) = 1/6 = 0.0(01) and leftmost(2/3) = 1/3 = 0.(01).
    The walk reads the cold counts of the whole graph, as listing
    :func:`classify` does, and leaves the memo alone.
    """
    if not 0 <= y <= TWO_THIRDS:
        raise ValueError(f"level set of {y} is empty")
    if y == 0:
        return ZERO
    graph = close_graph(y)
    if not graph.closed:
        raise BudgetExceededError(
            f"state graph for {y} did not close ({graph.budget_reason})"
        )
    counts = _live_states(graph)[0]
    if counts[0] <= 0:
        raise AssertionError("the root is dead, though L(y) is not empty")
    return next(_paths(graph, counts)).value()


def classify(
    y: Fraction, *, max_states: int = DEFAULT_MAX_STATES, listing: bool = True
) -> LevelSetReport:
    """Full classification of L(y) for any rational ordinate.

    Finite verdicts come back with their cardinality and the number of local
    level sets, the root's profile count, read off the fold-symmetric graph
    (module docstring); under ``listing`` (the default) also with exact
    sorted preimages and their expansions (see :func:`analyze`).  Ordinates
    outside [0, 2/3] are Finite(0); blown budgets give Indeterminate, never
    a guess.  The slope budget, worked out from den(y), stops drift suffixes
    such as (001)^inf under 1/49 and some cores of wide odd parts (module
    docstring).  A listing call is ``analyze(close_graph(y))`` and leaves
    the memo alone.  A count-only call closes the graph through its keyed
    level, which the closure hands back beside the graph, and looks that
    level up once: an entry that fits its budgets spares every state from
    the level on; otherwise the rest is closed and the entry written
    (module docstring).  The level's ids, its key and the entry go to
    :func:`analyze` as arguments, so classify is safe to call re-entrantly
    and from threads, and by name, so a wrapper on it (perfbench's tracer)
    sees every classification.
    """
    if listing:
        return analyze(close_graph(y, max_states=max_states))
    k, odd = split_denominator(y)
    stages = _closure(y, max_states)
    graph, level = next(stages)  # closed through its keyed level, or wholly
    key = _entry_key(graph, level, k, odd)
    entry = _CORE_MEMO.get(key)
    start, end = level[1:]
    if entry is None or start + entry.size > max_states or entry.top > k + SLOPE_MARGIN:
        # the rest of the closure, under the same budgets
        graph, entry = next(stages, (graph, level))[0], None
    return analyze(graph, listing=False, _keyed=(start, end, key, entry))
