"""Acceptance gate: ten numbered criteria, one test each, pinned tolerances.

Run `pytest tests/test_acceptance.py -v` for a one-line pass/fail verdict per
criterion.  Each criterion carries a wall-clock budget which is asserted too.
Criterion 7 checks the paper's averages over a random ordinate on a seeded
sample of 1200 non-dyadic ordinates at depth 128, not on the depth-6 lattice,
which over-samples dyadic ordinates and truncates the hump orders (the
reasons and the sample are spelled out in that test).
"""

import random
import time
from fractions import Fraction
from math import comb

import _oracles as oracles
from takagi.curve import TWO_THIRDS, d_expression_residual, eval_rational
from takagi.humps import count_balanced
from takagi.machine import Verdict, classify, envelope_max, leftmost_preimage
from takagi.signed import (
    ALL_PLUS,
    ALTERNATING,
    SignSequence,
    expected_local_window,
    signed_extrema,
)
from takagi.stats import (
    GridReport,
    GridRow,
    catalan,
    catalan_series_partial,
    expected_cardinality_series_partial,
    expected_local_series_partial,
)

HALF = Fraction(1, 2)


def test_01_hump_census_closed_forms():
    deadline = time.monotonic() + 10.0
    for m in range(1, 9):
        assert count_balanced(m) == comb(2 * m, m)
        assert count_balanced(m, leading=True) == catalan(m)
    assert time.monotonic() < deadline


def test_02_exact_values():
    deadline = time.monotonic() + 1.0
    pins = {
        Fraction(1, 4): HALF,
        Fraction(1, 3): Fraction(2, 3),
        Fraction(1, 6): HALF,
        Fraction(13, 16): HALF,
        Fraction(1, 48): Fraction(1, 8),
    }
    for x, expected in pins.items():
        assert eval_rational(x) == expected
    assert time.monotonic() < deadline


def test_03_golden_classifications():
    deadline = time.monotonic() + 6.0  # six ordinates, budget 1 s each
    report = classify(Fraction(0))
    assert report.verdict is Verdict.FINITE
    assert report.preimages == (Fraction(0), Fraction(1))
    for y in (Fraction(1, 8), Fraction(3, 128), Fraction(1, 256)):
        report = classify(y)
        assert (report.verdict, report.cardinality) == (Verdict.FINITE, 2), y
    assert classify(HALF).verdict is Verdict.COUNTABLY_INFINITE
    assert classify(Fraction(2, 3)).verdict is Verdict.UNCOUNTABLE
    assert time.monotonic() < deadline


def test_04_preimage_exactness():
    report = classify(Fraction(1, 8))
    assert report.preimages == (Fraction(1, 48), Fraction(47, 48))
    for x in report.preimages:
        assert eval_rational(x) == Fraction(1, 8)
    assert {1 - x for x in report.preimages} == set(report.preimages)
    assert leftmost_preimage(HALF) == Fraction(1, 6)


def test_05_two_method_agreement(grid_depth6):
    deadline = time.monotonic() + 600.0
    finite_rows = [row for row in grid_depth6.rows if row.verdict is Verdict.FINITE]
    assert len(finite_rows) > 5000
    for row in finite_rows:
        hits = oracles.complete_hits(row.ordinate)
        assert row.cardinality == 2 * hits.total, row
        assert row.n_local == hits.leading, row
    assert time.monotonic() < deadline


def test_06_series_windows():
    deadline = time.monotonic() + 5.0
    assert abs(catalan_series_partial(10_000) - 2) <= 0.02
    assert abs(expected_local_series_partial(10_000) - 1.5) <= 0.015
    ratio = expected_cardinality_series_partial(400) / expected_cardinality_series_partial(100)
    assert 1.85 <= ratio <= 2.15
    assert time.monotonic() < deadline


SAMPLE_SEED = 11021616
SAMPLE_DEPTH = 128
SAMPLE_SIZE = 1200


def _sample_report(samples: int) -> GridReport:
    """Classify `samples` seeded ordinates j / (3 * 4^SAMPLE_DEPTH), 3 not | j.

    Rows go through the same checks as `grid_experiment` (an odd finite
    interior cardinality raises) and are aggregated as a `GridReport`, so
    the statistics under test are its properties.  Draws are sequential from
    one seeded generator, so a shorter call reproduces a prefix of a longer.
    """
    rng = random.Random(SAMPLE_SEED)
    mesh = 4**SAMPLE_DEPTH
    rows = []
    while len(rows) < samples:
        j = rng.randrange(2 * mesh + 1)
        if j % 3 == 0:
            continue
        y = Fraction(j, 3 * mesh)
        report = classify(y)
        if report.verdict is Verdict.FINITE and 0 < y < TWO_THIRDS:
            assert report.cardinality is not None and report.cardinality % 2 == 0, (
                f"finite interior ordinate {y} has odd cardinality {report.cardinality}"
            )
        rows.append(
            GridRow(
                index=j,
                ordinate=y,
                verdict=report.verdict,
                cardinality=report.cardinality,
                n_local=report.n_local,
                states=report.diagnostics.get("states", 0),
            )
        )
    return GridReport(depth=SAMPLE_DEPTH, rows=tuple(rows))


def test_07_grid_statistics():
    """Averages over a Lebesgue-random ordinate, read off a seeded deep sample.

    The targets restate the paper's results for y uniform on [0, 2/3]:
    almost every level set is finite (Buczolich; reproved by Allaart), more
    than half of them have two points, and the mean number of local level
    sets is 3/2 (Lagarias-Maddock).  The depth-6 lattice j / (3 * 4^6)
    cannot show these: a third of its points (3 | j) are dyadic, and every
    value of T at a dyadic point is dyadic and has an infinite level set,
    except T(0) = T(1) = 0 (L(0) = {0, 1}), so its finite fraction is 0.74;
    and it resolves humps of order <= 6 only, so its mean local count 1.15
    sits near (3/4) S_6 = 1.19.

    Here y = j / (3 * 4^128) with j uniform and 3 not dividing j: the first
    256 binary digits of a uniform ordinate followed by the periodic tail
    01... or 10....  No such y is dyadic, so none is a value of T at a
    dyadic point.  The truncation gap 3/2 - (3/4) S_n ~ 0.846 / sqrt(n) is
    0.075 at n = 128, so (3/4) S_128 = 1.426 lies inside the local-count
    window.  Whether the depth-n mean over these ordinates equals
    (3/4) S_n exactly is not settled, and is not asserted.  The slope
    budget, k + SLOPE_MARGIN for den(y) = 2^k m, is 512 for odd j, and no
    draw comes back Indeterminate (under a fixed budget of 64, about 1 in
    200 did); Indeterminate rows stay in the denominator and are asserted
    absent.
    """
    deadline = time.monotonic() + 900.0
    sample = _sample_report(SAMPLE_SIZE)
    prefix = _sample_report(40)
    assert prefix.rows == sample.rows[:40]  # deterministic

    problems = []
    indeterminate = sample.verdict_counts[Verdict.INDETERMINATE.value]
    if indeterminate:
        problems.append(f"{indeterminate} indeterminate rows")
    finite_fraction = sample.finite_fraction
    if not finite_fraction >= 0.95:
        problems.append(f"finite fraction {finite_fraction:.4f} < 0.95")
    two_fraction = sample.fraction_cardinality_two
    if not 0.55 <= two_fraction <= 0.75:
        problems.append(f"cardinality-two fraction {two_fraction:.4f} outside [0.55, 0.75]")
    mean_local = sample.mean_n_local
    if not 1.35 <= mean_local <= 1.65:
        problems.append(f"mean local count {mean_local:.4f} outside [1.35, 1.65]")
    assert time.monotonic() < deadline
    assert not problems, "; ".join(problems)


def test_08_envelope_brute_force_and_recursion():
    deadline = time.monotonic() + 120.0
    total = oracles.int_grid(22)
    margin = Fraction(1, 1 << 10)
    for d in range(-6, 7):
        brute = oracles.envelope_brute_max(d, total, 22)
        assert envelope_max(d) - margin <= brute <= envelope_max(d), d
    for d in range(-32, 33):
        lhs = envelope_max(d)
        rhs = max(envelope_max(d + 1) / 2, Fraction(d + 1 + envelope_max(d - 1), 2))
        assert lhs == rhs, d
    assert time.monotonic() < deadline


def test_09_signed_extrema_residuals_expectation():
    deadline = time.monotonic() + 120.0
    e = signed_extrema(ALL_PLUS)
    assert (e.maximum, e.minimum) == (Fraction(2, 3), 0)
    e = signed_extrema(ALTERNATING)
    assert (e.maximum, e.minimum) == (HALF, 0)

    rng = random.Random(2026)
    bound = Fraction(42, 1 << 40)
    sequences = []
    for _ in range(100):
        period = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 8)))
        pre = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 3)))
        sequences.append(SignSequence(pre, period))
    for signs in sequences:
        x = Fraction(rng.randrange(0, 1 << 12), 1 << 12)
        assert d_expression_residual(x, 40, signs) <= bound
        e = signed_extrema(signs)
        assert HALF <= e.height <= Fraction(2, 3)

    partial = catalan_series_partial(20, exact=True)
    lower = Fraction(3, 2) * (1 - (2 - partial) / 2)
    for signs in [ALL_PLUS, ALTERNATING] + sequences[:5]:
        assert lower <= expected_local_window(signs, 20) <= 2
    assert time.monotonic() < deadline


def test_10_sign_change_oracle_cross_check():
    deadline = time.monotonic() + 300.0
    total = oracles.int_grid(20)
    rng = random.Random(513)
    seen, checked = set(), 0
    while checked < 50:
        depth = rng.randint(0, 5)
        j = rng.randrange(0, 2 * 4**depth + 1)
        y = Fraction(j, 3 * 4**depth)
        if y in seen:
            continue
        seen.add(y)
        report = classify(y)
        if report.verdict is not Verdict.FINITE or report.cardinality == 0:
            continue
        brute = oracles.sign_change_count(total, 20, y)
        assert brute == report.cardinality, (y, brute, report.cardinality)
        checked += 1
    assert time.monotonic() < deadline
