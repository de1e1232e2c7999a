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
number of local level sets.

Preimages come from one depth-first walk over the live states that takes
the 0-digit first.  A path ends on the all-zeros ray (a terminating
expansion) or when it first revisits one of its own states (the period is
the digits since that state's first visit).  Its first path is min L(y);
under a Finite verdict its paths are the whole of L(y), in increasing order.

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
once |D| <= max_slope and the breadth-first closure ends.  A suffix that
drifts, such as (001)^inf under y = 1/49, moves D by one per period: it
ends in the slope budget, as Indeterminate, and does not hang.  For the
first 2n digits, n = :func:`~takagi.rationals.ordinate_depth` (read off the
2-adic valuation of S), a state's key also carries its depth; for
S = 2^k or 3 * 2^k the residues from there on lie on a fixed lattice
(integers for dyadic y, thirds otherwise).  The tag only delays merging:
(D, N) is the exact state, so every tag depth gives an exact graph.

Graph keys are int tuples; each node also keeps its exact residue R = N / S
for labels.  :func:`step`, :func:`is_feasible` and the ``envelope_*``
functions state the same rules on (D, R) with Fractions and are the exact
reference the closure is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .curve import TWO_THIRDS
from .rationals import ZERO, BinaryExpansion, ordinate_depth

DEFAULT_MAX_STATES = 100_000
DEFAULT_MAX_SLOPE = 64

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
class StateNode:
    slope: int
    residue: Fraction
    is_zero_ray: bool
    is_ones_ray: bool
    is_max_ray: bool
    edges: dict[int, "Key"] = field(default_factory=dict)
    # (key, digit) of the edge that first reached this state; None at the root
    parent: Optional[tuple["Key", int]] = None


# Pre-lattice states carry their depth; collapsed states are keyed (D, N).
Key = Union[tuple[int, int, int], tuple[int, int]]


@dataclass
class StateGraph:
    ordinate: Fraction
    lattice_depth: int
    root: Optional[Key]
    nodes: dict[Key, StateNode]
    closed: bool
    budget_reason: Optional[str] = None

    @property
    def states_explored(self) -> int:
        return len(self.nodes)


def _headroom(slope: int, num: int, scale: int) -> int:
    """2S - 3 * 2^|D| * (N - max(0, D) * S): the gap to the envelope g(D),
    scaled by 3 * 2^|D| * S, so >= 0 iff R <= g(D) and == 0 iff R = g(D)."""
    return 2 * scale - (3 * (num - max(0, slope) * scale) << abs(slope))


def close_graph(
    y: Fraction,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_slope: int = DEFAULT_MAX_SLOPE,
) -> StateGraph:
    """Breadth-first closure of the feasible states of a rational ordinate.

    Stops early (closed=False) if more than ``max_states`` states appear or
    some slope exceeds ``max_slope`` in absolute value; analysis then reports
    Indeterminate rather than guessing.  Terminal rays are kept as nodes but
    never expanded.  The walk runs on integer states (D, N), N = R * S.
    """
    lattice_depth = 2 * ordinate_depth(y) if 0 <= y <= TWO_THIRDS else 0
    scale = y.denominator

    def make_node(slope: int, num: int, parent: Optional[tuple[Key, int]]) -> StateNode:
        return StateNode(
            slope=slope,
            residue=Fraction(num, scale),
            is_zero_ray=num == 0 and slope >= 0,
            is_ones_ray=num == slope * scale and slope <= -1,
            is_max_ray=_headroom(slope, num, scale) == 0,
            parent=parent,
        )

    root_num = y.numerator
    if root_num < 0 or _headroom(0, root_num, scale) < 0:
        return StateGraph(y, lattice_depth, None, {}, closed=True)

    root_key: Key = (0, 0, root_num) if lattice_depth > 0 else (0, root_num)
    nodes: dict[Key, StateNode] = {root_key: make_node(0, root_num, None)}
    queue: deque[tuple[Key, int, int, int]] = deque([(root_key, 0, 0, root_num)])
    reason: Optional[str] = None

    while queue and reason is None:
        key, depth, slope, num = queue.popleft()
        node = nodes[key]
        if node.is_zero_ray or node.is_ones_ray:
            continue
        depth += 1
        for bit, child_slope, child_num in (
            (0, slope + 1, 2 * num),
            (1, slope - 1, 2 * num - (slope + 1) * scale),
        ):
            if child_num < min(0, child_slope) * scale or _headroom(child_slope, child_num, scale) < 0:
                continue
            if abs(child_slope) > max_slope:
                reason = "slope"
                break
            child_key = (
                (depth, child_slope, child_num) if depth < lattice_depth else (child_slope, child_num)
            )
            if child_key not in nodes:
                if len(nodes) >= max_states:
                    reason = "states"
                    break
                nodes[child_key] = make_node(child_slope, child_num, (key, bit))
                queue.append((child_key, depth, child_slope, child_num))
            node.edges[bit] = child_key
    return StateGraph(y, lattice_depth, root_key, nodes, closed=reason is None, budget_reason=reason)


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


def _live_children(graph: StateGraph, key: Key) -> Iterator[Key]:
    """Successors that are not all-ones dead ends, in digit order."""
    node = graph.nodes[key]
    for bit in (0, 1):
        child = node.edges.get(bit)
        if child is not None and not graph.nodes[child].is_ones_ray:
            yield child


def _strong_components(graph: StateGraph) -> list[list[Key]]:
    """Tarjan over the no-dead-end subgraph; emitted children-first."""
    index: dict[Key, int] = {}
    low: dict[Key, int] = {}
    on_stack: set[Key] = set()
    stack: list[Key] = []
    comps: list[list[Key]] = []
    counter = 0

    for start in graph.nodes:
        if start in index or graph.nodes[start].is_ones_ray:
            continue
        work: list[tuple[Key, Iterator[Key]]] = [(start, _live_children(graph, start))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, _live_children(graph, w)))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _continuation_counts(graph: StateGraph, comps: list[list[Key]]) -> dict[Key, tuple[int, int]]:
    """(continuations, profiles) per state, over children-first ``comps``.

    Infinite paths in a finite graph must reach a cycle or stop on the
    all-zeros ray, so live = continuations > 0.  Under a Finite verdict
    (exit-free simple cycles) both are exact: path counts and counts of
    distinct |D_j| sequences.  Dead ends get no entry.
    """
    counts: dict[Key, tuple[int, int]] = {}
    for comp in comps:
        if len(comp) > 1:
            counts.update(dict.fromkeys(comp, (1, 1)))
            continue
        (key,) = comp
        node = graph.nodes[key]
        if node.is_zero_ray:
            counts[key] = (1, 1)
            continue
        total = profiles = 0
        for child in node.edges.values():
            if child in counts:  # children come first; only dead ends are missing
                n, p = counts[child]
                total += n
                # at D = 0 the children are folds of each other: same profiles
                profiles = p if node.slope == 0 else profiles + p
        counts[key] = (total, profiles)
    return counts


def _state_label(node: StateNode) -> str:
    return f"(D={node.slope}, R={node.residue})"


def _dyadic_witness(graph: StateGraph) -> Fraction:
    """Digits of a shortest root-to-zero-ray path, as a dyadic preimage.

    close_graph is breadth-first, 0-digit first: the first zero ray in node
    order, walked back through parents, is the leftmost shortest such path.
    """
    key = next(k for k, n in graph.nodes.items() if n.is_zero_ray)
    bits: list[int] = []
    while graph.nodes[key].parent is not None:
        key, bit = graph.nodes[key].parent
        bits.append(bit)
    bits.reverse()
    return BinaryExpansion(tuple(bits), ()).value()


def _paths(graph: StateGraph, live: set[Key]) -> Iterator[BinaryExpansion]:
    """Root paths through ``live`` states, depth-first, 0-digit first (the
    module docstring says how a path ends).  Under a Finite verdict a path
    goes once round its exit-free cycle, keeping the rotation it entered at,
    e.g. 0^10 (0110) where :func:`to_binary` has 0^9 (0011).  The walk keeps
    its own stack, so prefixes of thousands of digits are fine.
    """
    digits: list[int] = []
    first_seen: dict[Key, int] = {}  # the path's states, in order, with positions
    # (state, digits before the edge into it, that edge's digit)
    stack: list[tuple[Key, int, tuple[int, ...]]] = [(graph.root, 0, ())]
    while stack:
        key, depth, edge = stack.pop()
        digits[depth:] = edge
        for _ in range(len(first_seen) - len(digits)):  # backtrack
            first_seen.popitem()
        while True:  # follow live 0-digits, leaving each live 1-branch on the stack
            node = graph.nodes[key]
            if node.is_zero_ray:
                yield BinaryExpansion(tuple(digits), ())
                break
            start = first_seen.get(key)
            if start is not None:
                yield BinaryExpansion(tuple(digits[:start]), tuple(digits[start:]))
                break
            first_seen[key] = len(digits)
            zero, one = node.edges.get(0), node.edges.get(1)
            if zero in live:
                if one in live:
                    stack.append((one, len(digits), (1,)))
                digits.append(0)
                key = zero
            elif one in live:
                digits.append(1)
                key = one
            else:
                raise AssertionError("live state with no live successor")


def analyze(graph: StateGraph) -> LevelSetReport:
    """Turn a closed state graph into a verdict (and exact preimages if finite).

    The ordinate 0 is special-cased: its zero ray would read as "dyadic point
    attained", but 0 is attained only at the endpoints, so L(0) = {0, 1}.
    """
    y = graph.ordinate
    diagnostics: dict = {
        "states": graph.states_explored,
        "lattice_depth": graph.lattice_depth,
        "closed": graph.closed,
    }
    if graph.budget_reason:
        diagnostics["budget_reason"] = graph.budget_reason

    if y == 0:
        paths = (BinaryExpansion((), ()), BinaryExpansion((), (1,)))
        return LevelSetReport(
            ordinate=y,
            verdict=Verdict.FINITE,
            cardinality=2,
            preimages=(ZERO, Fraction(1)),
            paths=paths,
            n_local=1,
            diagnostics=diagnostics,
        )
    if graph.root is None:  # y outside [0, 2/3]
        return LevelSetReport(
            ordinate=y,
            verdict=Verdict.FINITE,
            cardinality=0,
            preimages=(),
            paths=(),
            n_local=0,
            diagnostics=diagnostics,
        )
    if not graph.closed:
        return LevelSetReport(
            ordinate=y,
            verdict=Verdict.INDETERMINATE,
            witness=f"budget exceeded ({graph.budget_reason})",
            diagnostics=diagnostics,
        )

    comps = _strong_components(graph)
    nontrivial = [c for c in comps if len(c) > 1]
    counts = _continuation_counts(graph, comps)
    live = {k for k, (n, _) in counts.items() if n}
    diagnostics["cycles"] = len(nontrivial)
    diagnostics["live_states"] = len(live)

    for key, node in graph.nodes.items():
        if node.is_max_ray:
            return LevelSetReport(
                ordinate=y,
                verdict=Verdict.UNCOUNTABLE,
                witness=f"max-envelope state {_state_label(node)} reached",
                diagnostics=diagnostics,
            )
    exit_witness: Optional[str] = None  # names the first edge leaving a cycle
    for comp in nontrivial:
        members = set(comp)
        inner = 0
        for k in comp:
            for child in _live_children(graph, k):
                if child in members:
                    inner += 1
                elif exit_witness is None and child in live:
                    exit_witness = (
                        f"cycle through {_state_label(graph.nodes[k])} "
                        f"can be left towards {_state_label(graph.nodes[child])}"
                    )
        if inner > len(comp):
            # sort on the (D, R) form of each key: the listing then depends
            # on the residues, not on the scale S of the integer keys
            ordered = sorted(comp, key=lambda k: str(k[:-1] + (graph.nodes[k].residue,)))
            labels = ", ".join(_state_label(graph.nodes[k]) for k in ordered)
            return LevelSetReport(
                ordinate=y,
                verdict=Verdict.UNCOUNTABLE,
                witness=f"branching cycle cluster {{{labels}}}",
                diagnostics=diagnostics,
            )

    if any(n.is_zero_ray for n in graph.nodes.values()):
        return LevelSetReport(
            ordinate=y,
            verdict=Verdict.COUNTABLY_INFINITE,
            witness="attained at a dyadic point",
            witness_preimage=_dyadic_witness(graph),
            diagnostics=diagnostics,
        )
    if exit_witness is not None:
        assert graph.root in live
        return LevelSetReport(
            ordinate=y,
            verdict=Verdict.COUNTABLY_INFINITE,
            witness=exit_witness,
            witness_preimage=next(_paths(graph, live)).value(),
            diagnostics=diagnostics,
        )

    # Finite: the root's counts are the root-to-cycle paths and their profiles.
    total, n_local = counts[graph.root]
    path_list = list(_paths(graph, live))
    assert len(path_list) == total, "path enumeration disagrees with path count"
    preimages = tuple(p.value() for p in path_list)
    assert all(a < b for a, b in zip(preimages, preimages[1:])), "preimages not sorted"
    return LevelSetReport(
        ordinate=y,
        verdict=Verdict.FINITE,
        cardinality=total,
        preimages=preimages,
        paths=tuple(path_list),
        n_local=n_local,
        diagnostics=diagnostics,
    )


def leftmost_preimage(
    y: Fraction,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_slope: int = DEFAULT_MAX_SLOPE,
) -> Fraction:
    """min L(y), exactly: the first path of the 0-digit-first walk.

    That path either stops on the all-zeros ray (dyadic answer) or first
    revisits one of its states, closing an eventually periodic expansion,
    e.g. leftmost(1/2) = 1/6 = 0.0(01) and leftmost(2/3) = 1/3 = 0.(01).
    """
    if not 0 <= y <= TWO_THIRDS:
        raise ValueError(f"level set of {y} is empty")
    if y == 0:
        return ZERO
    graph = close_graph(y, max_states=max_states, max_slope=max_slope)
    if not graph.closed:
        raise BudgetExceededError(
            f"state graph for {y} did not close ({graph.budget_reason})"
        )
    counts = _continuation_counts(graph, _strong_components(graph))
    live = {k for k, (n, _) in counts.items() if n}
    assert graph.root in live
    return next(_paths(graph, live)).value()


def classify(
    y: Fraction,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_slope: int = DEFAULT_MAX_SLOPE,
) -> LevelSetReport:
    """Full classification of L(y) for any rational ordinate.

    Finite verdicts come back with exact sorted preimages, their expansions,
    and the number of local level sets: the root's profile count, read off
    the fold-symmetric graph (module docstring).  Ordinates outside [0, 2/3]
    are Finite(0); blown budgets give Indeterminate, never a guess.
    """
    return analyze(close_graph(y, max_states=max_states, max_slope=max_slope))
