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
ends and are the only feasible dead ends.  Every other state gets a count of
infinite continuations in one children-first pass over the strongly
connected components (1 on a cycle or a zero ray, else the sum over its
children); a state is live exactly when its count is positive, and under a
Finite verdict the root's count is the cardinality.

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

and feasibility becomes  min(0, D) S <= N  and
3 * 2^|D| * (N - max(0, D) S) <= 2S,  with equality on the right exactly at
a max ray; N = 0, D >= 0 is a zero ray and N = D S, D <= -1 a ones ray.
Nothing assumes the shape of S.  Feasibility confines N to

    min(0, D) S <= N <= max(0, D) S + 2S / (3 * 2^|D|),

at most (|D| + 1) S + 1 integers for each D, so the state set is finite
once |D| <= max_slope and the breadth-first closure ends.  It expands one
level at a time.  Of a state's two children, the one whose |D| shrinks has
its parent's headroom 2S - 3 * 2^|D| * (N - max(0, D) S), so only its
lower bound is tested; the one whose |D| grows (both at D = 0) is tested
against the top of the envelope and the slope budget.  A suffix that
drifts, such as (001)^inf under y = 1/49, moves D by one per period: it
ends in the slope budget, as Indeterminate, and does not hang.  For the
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
check run on the core alone, and the count pass finishes with one sweep down
the prefix ids.  :func:`step`, :func:`is_feasible` and the
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
the same components in the same order.  The key is known before any core
state is expanded.  :func:`classify` and :func:`leftmost_preimage` keep
one entry per core in a bounded memo across ordinates (the grid's
j / (3 * 4^n) all have m = 1 or 3): the core's size and largest |D|, its
continuations, profiles and live states, its number of cycle clusters,
whether it holds a zero ray, and the witness texts of its first max ray,
first branching cluster and first cycle exit.
``classify(y, listing=False)`` closes the tagged levels and the entry
level, then looks the entry up.  A hit whose core fits the budgets, ``prefix`` plus the
core's size at most ``max_states`` and every core |D| at most
``max_slope``, gives the report from the prefix sweep and the entry, and
no core state is expanded.  Neither budget could stop that core's closure:
a slope exit needs a feasible child past the budget, and a closed core
whose largest |D| is T has no feasible child past T.  On a miss, or when a
budget could stop the core, the closure resumes where it stopped, so a
budget exit keeps its reason, and the entry is written.  Listing callers
close the whole graph and read its core's counts from the same entry.  On
a hit no Tarjan runs; on a miss Tarjan runs once.
:func:`analyze` on a caller's graph neither reads nor writes the memo, as
a graph edited after its closure would poison it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

from .curve import TWO_THIRDS
from .rationals import ZERO, BinaryExpansion, ordinate_depth, split_denominator

DEFAULT_MAX_STATES = 100_000
DEFAULT_MAX_SLOPE = 64
# A Finite level set with more points than this is reported Indeterminate
# when it is to be listed (a count-only report has no such bound):
# L(2/3 - 1/(3 * 2^k)) has 2^(k/2 + 1) points.
MAX_PREIMAGES = 2**20

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


def close_graph(
    y: Fraction,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_slope: int = DEFAULT_MAX_SLOPE,
) -> StateGraph:
    """Breadth-first closure of the feasible states of a rational ordinate.

    Stops early (closed=False) if more than ``max_states`` states appear or
    some slope exceeds ``max_slope`` in absolute value; analysis then reports
    Indeterminate rather than guessing.  Terminal rays are kept as states but
    never expanded.  The walk runs on integer states (D, N), N = R * S, one
    breadth-first level at a time.
    """
    *_, graph = _closure(y, max_states, max_slope)
    return graph


def _closure(y: Fraction, max_states: int, max_slope: int) -> Iterator[StateGraph]:
    """:func:`close_graph`'s closure in two stages.  The graph is yielded
    once its entry level, the states at the lattice depth, is made and none
    of them is expanded (``prefix`` is then set, and ``closed`` reads True),
    and again when the closure ends; a closure that ends above the lattice
    depth yields only the second time."""
    if not 0 <= y <= TWO_THIRDS:
        yield StateGraph(y, 0)
        return
    lattice_depth = 2 * ordinate_depth(y)
    scale, root_num = y.denominator, y.numerator
    root_key = (0, 0, root_num) if lattice_depth > 0 else (0, root_num)
    root_ray = ZERO_RAY if root_num == 0 else MAX_RAY if 3 * root_num == 2 * scale else 0
    graph = StateGraph(y, lattice_depth, {root_key: 0}, [0], [root_num], [root_ray], [-1], [-1])
    nodes, slopes, nums, flags = graph.nodes, graph.slope, graph.num, graph.flags
    child0, child1 = graph.child0, graph.child1
    twice = 2 * scale
    reason: Optional[str] = None
    depth, start, end = 0, 0, 1  # the level: ids start..end - 1, all this deep
    while True:
        if depth == lattice_depth:
            graph.prefix = start
            yield graph
        if start == end:
            break
        tag = depth + 1 if depth + 1 < lattice_depth else 0  # the children's key tag, if any
        for v in range(start, end):
            flag = flags[v]
            if flag & (ZERO_RAY | ONES_RAY):
                continue
            slope, num = slopes[v], nums[v]
            one = 2 * num - (slope + 1) * scale  # the 1-child's N
            # ``ray`` is the child's flag, -1 for an infeasible digit.  The child
            # whose |D| shrinks keeps its parent's headroom, and with it the
            # parent's MAX_RAY flag (module docstring)
            if slope >= 0:  # 0-child (D + 1, 2N) grows; 2N > 0, as N = 0 is a zero ray
                headroom = twice - (3 * one << slope + 1)
                if headroom < 0:
                    ray = -1
                elif slope >= max_slope:
                    reason = "slope"
                    break
                else:
                    ray = 0 if headroom else MAX_RAY
            elif one > 0:  # 0-child shrinks: 2N > min(0, D + 1) S
                ray = flag
            else:  # 2N = min(0, D + 1) S is a zero ray at D + 1 = 0, else a ones ray
                ray = -1 if one else ZERO_RAY if slope == -1 else ONES_RAY
            if ray >= 0:
                key = (tag, slope + 1, 2 * num) if tag else (slope + 1, 2 * num)
                child = nodes.get(key)
                if child is None:
                    child = len(slopes)
                    if child >= max_states:
                        reason = "states"
                        break
                    nodes[key] = child
                    slopes.append(slope + 1)
                    nums.append(2 * num)
                    flags.append(ray)
                    child0.append(-1)
                    child1.append(-1)
                child0[v] = child
            if slope <= 0:  # 1-child (D - 1, e) grows: e >= (D - 1) S and its headroom
                above = one - (slope - 1) * scale
                headroom = twice - (3 * one << 1 - slope)
                if above < 0 or headroom < 0:
                    ray = -1
                elif slope <= -max_slope:
                    reason = "slope"
                    break
                else:
                    ray = MAX_RAY if not headroom else 0 if above else ONES_RAY
            elif one > 0:  # 1-child shrinks: e > 0
                ray = flag
            else:  # e = 0 is a zero ray
                ray = -1 if one else ZERO_RAY
            if ray >= 0:
                key = (tag, slope - 1, one) if tag else (slope - 1, one)
                child = nodes.get(key)
                if child is None:
                    child = len(slopes)
                    if child >= max_states:
                        reason = "states"
                        break
                    nodes[key] = child
                    slopes.append(slope - 1)
                    nums.append(one)
                    flags.append(ray)
                    child0.append(-1)
                    child1.append(-1)
                child1[v] = child
        else:  # the level is expanded: on to the next, if it has states
            depth += 1
            start, end = end, len(slopes)
            continue
        break
    if depth < lattice_depth:  # a budget exit or an empty level above the lattice
        graph.prefix = len(slopes)
    graph.budget_reason = reason
    yield graph


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


def _strong_components(graph: StateGraph) -> list[list[int]]:
    """Tarjan over the no-dead-end subgraph of the core, the states from
    ``graph.prefix`` on; emitted children-first.  No core edge leads back
    into the tagged prefix, so the search never leaves the core."""
    flags, children = graph.flags, (graph.child0, graph.child1)
    size = len(flags)
    index = [-1] * size
    low = [0] * size
    on_stack = bytearray(size)
    next_bit = bytearray(size)  # the next child to try, per state on ``work``
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
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
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _live_states(graph: StateGraph) -> tuple[list[list[int]], list[int], list[int]]:
    """The core's components, then (continuations, profiles) per state,
    children first: over the components, then down the prefix ids, whose
    edges all lead to larger ids.

    Infinite paths in a finite graph must reach a cycle or stop on the
    all-zeros ray, so a state is live iff its continuations are > 0.  Under
    a Finite verdict (exit-free simple cycles) both counts are exact: path
    counts and counts of distinct |D_j| sequences.  Dead ends count 0, and
    so does one extra last entry, which a missing child (-1) reads.
    """
    comps = _strong_components(graph)
    counts, profiles = [0] * (len(graph.flags) + 1), [0] * (len(graph.flags) + 1)
    for comp in comps:  # every cycle state counts 1, before the states that read it
        if len(comp) > 1:
            for v in comp:
                counts[v] = profiles[v] = 1
    singles = (c[0] for c in comps if len(c) == 1)
    _count_from_children(graph, counts, profiles, chain(singles, range(graph.prefix - 1, -1, -1)))
    return comps, counts, profiles


def _count_from_children(
    graph: StateGraph, counts: list[int], profiles: list[int], states: Iterable[int]
) -> None:
    """Count each of ``states``, in order, off its children's counts: 1 on a
    zero ray, else the sum, except that a D = 0 state's profiles are its
    children's, the two children being folds of each other."""
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


def _cluster_shape(graph: StateGraph, comp: list[int], counts: list[int]) -> tuple[bool, int, int]:
    """Whether a cycle cluster branches (more edges inside it than states),
    and its first edge to a live state outside it, as (state, child), in
    member order, 0-digit first; (-1, -1) when it has none."""
    members = set(comp)
    inner, exit_edge = 0, (-1, -1)
    for v in comp:
        for child in (graph.child0[v], graph.child1[v]):
            if child in members:
                inner += 1
            elif exit_edge[0] < 0 and counts[child] > 0:
                exit_edge = (v, child)
    return inner > len(comp), *exit_edge


def _state_label(graph: StateGraph, v: int) -> str:
    return f"(D={graph.slope[v]}, R={Fraction(graph.num[v], graph.ordinate.denominator)})"


class _Core(NamedTuple):
    """What the count pass gives for one core, as the memo keeps it: each
    core state's continuations and profiles, in id order from ``prefix``;
    how many core states are live; the number of cycle clusters; the
    largest |D|; the counts of the first core state's two children (the
    root's, when there is no prefix); whether a zero ray is in the core; and
    the witness texts of the first max ray, in id order, and of the first
    branching cluster and the first cycle exit, in Tarjan's order, each
    empty when there is none."""

    counts: list[int]
    profiles: list[int]
    live: int
    clusters: int
    top: int
    halves: tuple[int, int]
    zero_ray: bool
    max_ray: str
    branching: str
    exit: str


# The core memo: each core :func:`classify` or :func:`leftmost_preimage` has
# analysed, keyed by its entry level (:func:`_entry_key`).  A write that
# would take it past _CORE_MEMO_STATES core states held evicts the oldest
# entries, in insertion order, until it fits; a larger core is not written.
# A held state takes about 28 bytes for the deep sample's ordinates (cores
# of about 50 states), 1.8 MB at the bound, and at most about 660 in
# one-state cores while numbers fit in 30 bits, 43 MB; a branching
# cluster's witness text adds a label per member.  Wider numbers add their
# own bytes: m and N grow with den(y), and a count, in principle, with the
# paths through a core small enough to be written.
_CORE_MEMO: dict[tuple, _Core] = {}
_CORE_MEMO_STATES = 65_536
_core_memo_held = 0  # the core states held, read as 0 once the memo is empty
# The graph classify has closed, its core's memo key and the entry found
# under it (None on a miss), while analyze runs on it: the one graph whose
# core analyze reads from and writes to the memo, as a caller's graph may
# not be what close_graph made.
_classified: tuple = (None, None, None)


def _entry_key(graph: StateGraph) -> tuple:
    """The memo key of the graph's core: m and the (D, N >> k) of its entry
    level, in id order, for den(y) = 2^k m.  The entry level is the root
    when there is no prefix, else the children of the last tagged level:
    the ids from ``prefix`` to the largest child of a prefix state."""
    prefix = graph.prefix
    end = 1 + max(chain(graph.child0[:prefix], graph.child1[:prefix]), default=0)
    shift, odd = split_denominator(graph.ordinate)
    return odd, tuple(graph.slope[prefix:end]), tuple(n >> shift for n in graph.num[prefix:end])


def _counted(
    graph: StateGraph, key: Optional[tuple], core: Optional[_Core]
) -> tuple[list[int], list[int], _Core]:
    """The count pass: every state's continuations and profiles, and the
    core's facts.  A remembered ``core`` gives the core's share, and the
    prefix is swept as :func:`_live_states` sweeps it, so past the prefix
    the graph need hold no more than its entry level.  Otherwise Tarjan
    runs on the whole graph and, given a ``key``, the core's facts are
    written to the memo under it."""
    prefix = graph.prefix
    if core is not None:
        counts = [0] * prefix + core.counts + [0]
        profiles = [0] * prefix + core.profiles + [0]
        _count_from_children(graph, counts, profiles, range(prefix - 1, -1, -1))
        return counts, profiles, core
    comps, counts, profiles = _live_states(graph)
    clusters, branching, exit_text = 0, "", ""
    for comp in comps:
        if len(comp) > 1:
            clusters += 1
            branches, source, target = _cluster_shape(graph, comp, counts)
            if branches and not branching:
                # cycles lie past the lattice depth, where keys are (D, N):
                # sort on the (D, R) form, so the listing does not depend on S
                scale = graph.ordinate.denominator
                ordered = sorted(
                    comp, key=lambda v: str((graph.slope[v], Fraction(graph.num[v], scale)))
                )
                labels = ", ".join(_state_label(graph, v) for v in ordered)
                branching = f"branching cycle cluster {{{labels}}}"
            if source >= 0 and not exit_text:
                exit_text = (
                    f"cycle through {_state_label(graph, source)} "
                    f"can be left towards {_state_label(graph, target)}"
                )
    flags, core_counts = graph.flags[prefix:], counts[prefix:-1]
    max_ray = ""
    if MAX_RAY in flags:
        max_ray = f"max-envelope state {_state_label(graph, prefix + flags.index(MAX_RAY))} reached"
    core = _Core(
        core_counts,
        profiles[prefix:-1],
        live=sum(map(bool, core_counts)),
        clusters=clusters,
        top=max(map(abs, graph.slope[prefix:]), default=0),
        halves=(counts[graph.child0[prefix]], counts[graph.child1[prefix]]) if flags else (0, 0),
        zero_ray=ZERO_RAY in flags,
        max_ray=max_ray,
        branching=branching,
        exit=exit_text,
    )
    if key is not None:
        _remember(key, core)
    return counts, profiles, core


def _remember(key: tuple, core: _Core) -> None:
    """Write a core's entry, evicting the oldest entries until it fits."""
    global _core_memo_held
    size = len(core.counts)
    if size > _CORE_MEMO_STATES:
        return
    held = _core_memo_held if _CORE_MEMO else 0
    while held + size > _CORE_MEMO_STATES:
        held -= len(_CORE_MEMO.pop(next(iter(_CORE_MEMO))).counts)
    _CORE_MEMO[key] = core
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
    only core states are recorded on the path.  The walk keeps its own
    stack, so long prefixes are fine.
    """
    flags, child0, child1, prefix = graph.flags, graph.child0, graph.child1, graph.prefix
    offset = graph.lattice_depth  # every path enters the core at this depth
    digits: list[int] = []
    # the path's core states, the root among them when it is one (no prefix):
    # digits[offset + i] leaves path[i]
    path: list[int] = [] if prefix else [0]
    position = [0] * len(flags)  # where a state stands on the path, if it is on it
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


def analyze(graph: StateGraph, *, listing: bool = True) -> LevelSetReport:
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
    On a caller's graph the count pass runs Tarjan and leaves the core memo
    alone; only the graph :func:`classify` has just closed reads and fills
    it, and when its core is remembered that graph may end at the core's
    entry level (module docstring).

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

    def report(verdict: Verdict, **fields) -> LevelSetReport:
        return LevelSetReport(ordinate=y, verdict=verdict, diagnostics=diagnostics, **fields)

    if y == 0:
        paths = (BinaryExpansion((), ()), BinaryExpansion((), (1,)))
        listed = {"preimages": (ZERO, Fraction(1)), "paths": paths} if listing else {}
        return report(Verdict.FINITE, cardinality=2, n_local=1, **listed)
    if not graph.nodes:  # y outside [0, 2/3]
        listed = {"preimages": (), "paths": ()} if listing else {}
        return report(Verdict.FINITE, cardinality=0, n_local=0, **listed)
    if not graph.closed:
        return report(Verdict.INDETERMINATE, witness=f"budget exceeded ({graph.budget_reason})")

    classified, key, core = _classified
    if graph is not classified:
        key = core = None
    counts, profiles, core = _counted(graph, key, core)
    prefix = graph.prefix
    # classify's graph may hold no more of a remembered core than its entry level
    diagnostics["states"] = prefix + len(core.counts)
    diagnostics["cycles"] = core.clusters
    diagnostics["live_states"] = sum(map(bool, counts[:prefix])) + core.live

    tagged = graph.flags[:prefix]
    if MAX_RAY in tagged:
        witness = f"max-envelope state {_state_label(graph, tagged.index(MAX_RAY))} reached"
    else:
        witness = core.max_ray or core.branching
    if witness:
        return report(Verdict.UNCOUNTABLE, witness=witness)
    if core.zero_ray or ZERO_RAY in tagged:
        return report(
            Verdict.COUNTABLY_INFINITE,
            witness="attained at a dyadic point",
            witness_preimage=_dyadic_witness(graph) if listing else None,
        )
    if core.exit:
        if counts[0] <= 0:
            raise AssertionError("a cycle can be left but the root is dead")
        return report(
            Verdict.COUNTABLY_INFINITE,
            witness=core.exit,
            witness_preimage=next(_paths(graph, counts)).value() if listing else None,
        )

    # Finite: the root's counts are the root-to-cycle paths and their profiles.
    total = counts[0]
    if not listing:
        halves = (counts[graph.child0[0]], counts[graph.child1[0]]) if prefix else core.halves
        if halves[0] != halves[1]:
            raise AssertionError("root's subtrees differ in count")
        return report(Verdict.FINITE, cardinality=total, n_local=profiles[0])
    if total > MAX_PREIMAGES:
        diagnostics["budget_reason"] = "preimages"
        return report(Verdict.INDETERMINATE, witness="budget exceeded (preimages)")
    # the points below 1/2, then their complements (the fold), in reverse
    half = list(_paths(graph, counts))
    path_list = half + [_complement(p) for p in reversed(half)]
    if len(path_list) != total:
        raise AssertionError("path enumeration disagrees with path count")
    preimages = tuple(p.value() for p in half)
    preimages += tuple(1 - x for x in reversed(preimages))
    if not all(a < b for a, b in zip(preimages, preimages[1:])):
        raise AssertionError("preimages not sorted")
    return report(
        Verdict.FINITE,
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
    Its counts come through the core memo, as :func:`classify`'s do.
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
    key = _entry_key(graph)
    counts = _counted(graph, key, _CORE_MEMO.get(key))[0]
    if counts[0] <= 0:
        raise AssertionError("the root is dead, though L(y) is not empty")
    return next(_paths(graph, counts)).value()


def classify(
    y: Fraction,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_slope: int = DEFAULT_MAX_SLOPE,
    listing: bool = True,
) -> LevelSetReport:
    """Full classification of L(y) for any rational ordinate.

    Finite verdicts come back with their cardinality and the number of local
    level sets, the root's profile count, read off the fold-symmetric graph
    (module docstring); under ``listing`` (the default) also with exact
    sorted preimages and their expansions (see :func:`analyze`).  Ordinates
    outside [0, 2/3] are Finite(0); blown budgets give Indeterminate, never
    a guess.  The count pass reads and fills the core memo, and a count-only
    call whose core is remembered closes no core state (module docstring).
    The graph goes through :func:`analyze` by name, so a wrapper on that
    name (perfbench's tracer) sees every classification.
    """
    global _classified
    if listing:
        graph = close_graph(y, max_states=max_states, max_slope=max_slope)
    else:
        stages = _closure(y, max_states, max_slope)
        graph = next(stages)  # closed through its entry level, or wholly
    key = _entry_key(graph)
    core = _CORE_MEMO.get(key)
    if not listing and (
        core is None or graph.prefix + len(core.counts) > max_states or core.top > max_slope
    ):
        graph = next(stages, graph)  # the rest of the closure, under the same budgets
    _classified = graph, key, core
    try:
        return analyze(graph, listing=listing)
    finally:
        _classified = (None, None, None)
