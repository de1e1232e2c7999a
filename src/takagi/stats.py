"""Catalan series and exhaustive ordinate-grid surveys.

The hump census makes the average behaviour of level sets computable: with
the ordinate drawn uniformly from [0, 2/3],

    E[#L(y)]     = 2 * sum_m (3/4) binom(2m, m) 4^-m   (diverges),
    E[#local(y)] = (3/4) * sum_m C_m 4^-m = 3/2,

and more than sixty percent of all level sets have exactly two points.
The grid experiment sweeps every grid ordinate j / (3 * 4^n) — a uniform
mesh of exactly classified points — and aggregates the verdicts.
That mesh is not a Lebesgue sample: a third of its points (3 | j) are dyadic
and over-represent the infinite level sets, and depth n resolves humps of
order <= n only.  At depth 6 it measures finite fraction 6060/8193 = 0.740,
cardinality-two fraction 4436/6060 = 0.732 among finite verdicts and mean
local count 1.152, near the truncated (3/4) S_6 = 1.19 rather than 3/2.  The
averages themselves are checked by acceptance criterion 7 on a seeded sample
of non-dyadic ordinates at depth 128, aggregated into a GridReport.

Partial sums use float term recurrences (the exact denominators 4^m are
pointless past a few dozen terms); an exact mode covers small orders so the
float path can be checked against rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .humps import catalan, central_binomial
from .machine import DEFAULT_MAX_STATES, Verdict, classify

#: Largest order for which the exact (Fraction) series mode is offered.
EXACT_SERIES_LIMIT = 64

#: Largest grid depth.  Deeper grids run (depth 8, 131,073 count-only rows,
#: in a few seconds), but ``grid --depth 7`` exiting with status 2 is part of
#: the CLI contract (``tests/test_cli.py::test_grid_depth_bounds``); raising
#: the cap is a contract change of its own.
MAX_GRID_DEPTH = 6


def _exact_partial(coefficient, max_order: int) -> Fraction:
    if max_order > EXACT_SERIES_LIMIT:
        raise ValueError(
            f"exact mode is limited to max_order <= {EXACT_SERIES_LIMIT}"
        )
    return sum(
        (Fraction(coefficient(m), 1 << (2 * m)) for m in range(max_order + 1)),
        Fraction(0),
    )


def catalan_series_partial(max_order: int, *, exact: bool = False) -> Union[float, Fraction]:
    """S_M = sum_{m<=M} C_m 4^-m, increasing to 2.

    The tail is sum_{m>M} C_m 4^-m with C_m 4^-m ~ m^-3/2 / sqrt(pi), so
    2 - S_M <= 2/sqrt(M) for M >= 1 (loose but simple); S_0 = 1,
    S_1 = 1.25, and S_10000 is within 0.012 of the limit.  The float path
    runs the term recurrence t_{m+1} = t_m (2m+1)/(2(m+2)) — error stays
    near M units in the last place, far below the tail size.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if exact:
        return _exact_partial(catalan, max_order)
    total, term = 0.0, 1.0
    for m in range(max_order + 1):
        total += term
        term *= (2 * m + 1) / (2 * (m + 2))
    return total


def expected_cardinality_series_partial(max_order: int, *, exact: bool = False) -> Union[float, Fraction]:
    """Partial sums of E[#L] = (3/2) sum_m binom(2m, m) 4^-m — divergent.

    Terms decay like 1/sqrt(m), so S_M grows like 3 sqrt(M/pi); quadrupling
    M doubles the sum, which is how the divergence is witnessed at desk
    scale.  S_0 = 3/2.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if exact:
        return Fraction(3, 2) * _exact_partial(central_binomial, max_order)
    total, term = 0.0, 1.0
    for m in range(max_order + 1):
        total += term
        term *= (2 * m + 1) / (2 * m + 2)
    return 1.5 * total


def expected_local_series_partial(max_order: int, *, exact: bool = False) -> Union[float, Fraction]:
    """Partial sums of E[#local] = (3/4) sum_m C_m 4^-m, increasing to 3/2.

    Exactly (3/4) * catalan_series_partial, so the tail bound halves:
    |S_M - 3/2| <= 1.5/sqrt(M).  S_0 = 0.75; exact S_2 = 33/32.
    """
    if exact:
        return Fraction(3, 4) * catalan_series_partial(max_order, exact=True)
    return 0.75 * catalan_series_partial(max_order)


@dataclass(frozen=True)
class GridRow:
    """One classified ordinate y = index / (3 * 4^depth)."""

    index: int
    ordinate: Fraction
    verdict: Verdict
    cardinality: Optional[int]
    n_local: Optional[int]
    states: int


@dataclass(frozen=True)
class GridReport:
    """Aggregated sweep over the grid ordinate mesh of one depth."""

    depth: int
    rows: tuple[GridRow, ...]

    @property
    def ordinate_count(self) -> int:
        return len(self.rows)

    @property
    def verdict_counts(self) -> dict[str, int]:
        counts = {verdict.value: 0 for verdict in Verdict}
        for row in self.rows:
            counts[row.verdict.value] += 1
        return counts

    @property
    def cardinality_histogram(self) -> dict[int, int]:
        """Finite cardinality -> number of ordinates, ascending keys."""
        hist: dict[int, int] = {}
        for row in self.rows:
            if row.cardinality is not None:
                hist[row.cardinality] = hist.get(row.cardinality, 0) + 1
        return dict(sorted(hist.items()))

    @property
    def finite_fraction(self) -> float:
        return self.verdict_counts[Verdict.FINITE.value] / self.ordinate_count

    @property
    def fraction_cardinality_two(self) -> float:
        """Fraction of two-element level sets among the finite verdicts.

        Cardinality is only defined where the verdict is finite, so the
        denominator is the finite count, not the ordinate count.
        """
        finite = self.verdict_counts[Verdict.FINITE.value]
        if finite == 0:
            raise ValueError("no finite verdicts in this grid")
        hits = sum(1 for row in self.rows if row.cardinality == 2)
        return hits / finite

    @property
    def mean_n_local(self) -> float:
        """Average local-level-set count over the finite verdicts."""
        sizes = [
            row.n_local
            for row in self.rows
            if row.verdict is Verdict.FINITE and row.n_local is not None
        ]
        if not sizes:
            raise ValueError("no finite verdicts in this grid")
        return sum(sizes) / len(sizes)


def grid_experiment(depth: int, *, max_states: int = DEFAULT_MAX_STATES) -> GridReport:
    """Classify every ordinate j / (3 * 4^depth), 0 <= j <= 2 * 4^depth.

    The mesh of grid ordinates is uniform on [0, 2/3], and each row is an
    exact verdict; blown budgets surface as Indeterminate rows rather than
    aborting the sweep, and two sweeps of the same depth produce identical
    reports.  A finite interior ordinate with
    odd cardinality would contradict the x -> 1 - x pairing, so it raises.
    A row reads only the verdict, the counts and the state count, so each
    ordinate is classified once, count-only: no point is listed.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_GRID_DEPTH:
        raise ValueError(f"depth {depth} exceeds the maximum {MAX_GRID_DEPTH}")
    mesh = 1 << (2 * depth)
    scale = 3 * mesh
    rows = []
    for j in range(2 * mesh + 1):
        y = Fraction(j, scale)
        report = classify(y, max_states=max_states, listing=False)
        cardinality = report.cardinality
        if (
            report.verdict is Verdict.FINITE
            and 0 < j < 2 * mesh  # 0 < y < 2/3
            and (cardinality is None or cardinality % 2)
        ):
            raise AssertionError(f"finite interior ordinate {y} has odd cardinality {cardinality}")
        # what GridRow(...) builds, with the fields stored straight into the
        # instance dict rather than through one object.__setattr__ each, as
        # the frozen __init__ does; in field order, so its keys stay shared
        row = object.__new__(GridRow)
        fields = row.__dict__
        fields["index"] = j
        fields["ordinate"] = y
        fields["verdict"] = report.verdict
        fields["cardinality"] = cardinality
        fields["n_local"] = report.n_local
        fields["states"] = report.diagnostics.get("states", 0)
        rows.append(row)
    return GridReport(depth=depth, rows=tuple(rows))
