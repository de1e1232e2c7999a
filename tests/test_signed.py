"""Signed generalization: walks, first passages, exact extrema, local counts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
from takagi import humps, signed
from takagi.curve import d_expression_residual, eval_dyadic, eval_rational, signed_constant
from takagi.signed import (
    ALL_PLUS,
    ALTERNATING,
    SignSequence,
    eval_signed_rational,
    expected_local_window,
    first_passage,
    first_passages,
    signed_extrema,
    truncated_local_count,
)
from takagi.stats import catalan, catalan_series_partial

P = SignSequence.parse
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# the sequence type itself


def test_parse_and_render():
    assert P("++-") == SignSequence((), (1, 1, -1))
    assert P("-", preperiod="+") == SignSequence((1,), (-1,))
    assert str(ALL_PLUS) == "(+)"
    assert str(P("-", preperiod="+")) == "+(-)"


def test_canonicalization():
    # a period repeated twice is not primitive
    assert SignSequence((), (1, -1, 1, -1)) == ALTERNATING
    # a preperiod that merely replays the tail of the period gets rotated in
    assert SignSequence((1,), (1,)) == ALL_PLUS
    assert SignSequence((1,), (-1, 1)) == SignSequence((), (1, -1))
    assert SignSequence((1, -1), (1, -1)) == ALTERNATING


def test_term_shift_flip():
    s = P("++-")
    assert [s.term(n) for n in range(6)] == [1, 1, -1, 1, 1, -1]
    assert s.shift(1) == P("+-+")
    assert s.flipped() == P("--+")
    assert s.drift == 1
    assert ALTERNATING.drift == 0
    assert ALL_PLUS.transient == 0


# ---------------------------------------------------------------------------
# evaluation


def test_eval_pins():
    assert eval_dyadic(HALF, ALTERNATING) == HALF
    assert eval_dyadic(Fraction(1, 4), ALTERNATING) == 0
    assert eval_signed_rational(Fraction(1, 3), ALTERNATING) == Fraction(2, 9)
    assert eval_dyadic(Fraction(0), P("+--")) == 0
    assert eval_dyadic(Fraction(1), P("+--")) == 0


supported_x = st.fractions(min_value=0, max_value=1, max_denominator=2048)
small_signs = st.tuples(
    st.lists(st.sampled_from([1, -1]), max_size=3),
    st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4),
).map(lambda pair: SignSequence(tuple(pair[0]), tuple(pair[1])))


@given(supported_x, small_signs)
@settings(deadline=None)
def test_reduction_to_unsigned(x, signs):
    # T is the all-plus default of the one evaluator; both are checked
    # against the exact periodic-series oracle, which shares no digit walk.
    assert eval_rational(x) == oracles.periodic_series_value(x)
    assert eval_rational(x, signs) == oracles.periodic_series_value(x, signs)


@given(supported_x, small_signs)
@settings(max_examples=100, deadline=None)
def test_eval_against_series_window(x, signs):
    # the tail past 50 terms is at most sum 2^-n/2 = 2^-50 in absolute value
    term_signs = [signs.term(n) for n in range(50)]
    partial = oracles.signed_series_value(x, term_signs, 50)
    assert abs(eval_signed_rational(x, signs) - partial) <= Fraction(1, 1 << 50)


def test_signed_word_matches_evaluator():
    signs = P("+-+")
    word = oracles.DigitWord((0, 1, 1, 0, 1), signs)
    x = sum(Fraction(bit, 1 << (j + 1)) for j, bit in enumerate(word.digits))
    assert word.value == eval_dyadic(x, signs)


# ---------------------------------------------------------------------------
# first passages and extrema


def test_first_passage_pins():
    assert [first_passage(ALL_PLUS, k) for k in (1, 2, 3, 7)] == [1, 2, 3, 7]
    assert first_passage(ALTERNATING, 1) == 1
    assert first_passage(ALTERNATING, 3) is None
    assert first_passage(P("++-"), 3) == 5
    assert first_passage(P("++-"), 5) == 11


def test_first_passages_progressions():
    prog = first_passages(ALL_PLUS, 1)
    assert prog.levels[:2] == (1, 3)
    assert prog.times[:2] == (1, 3)
    assert (prog.level_stride, prog.time_stride) == (2, 2)

    prog = first_passages(ALTERNATING, 1)
    assert prog.levels == (1, 3)
    assert prog.times == (1, None)  # the infinity is explicit, not omitted

    prog = first_passages(P("++-"), 1)
    assert prog.times == (1, 5)
    assert (prog.tail_from, prog.level_stride, prog.time_stride) == (3, 2, 6)
    # the advertised progression really continues: tau_5 = 5 + 6
    assert first_passage(P("++-"), 5) == prog.times[1] + prog.time_stride


def test_extrema_pins():
    e = signed_extrema(ALL_PLUS)
    assert (e.maximum, e.minimum) == (Fraction(2, 3), 0)
    e = signed_extrema(ALTERNATING)
    assert (e.maximum, e.minimum) == (HALF, 0)
    e = signed_extrema(P("++-"))
    assert (e.maximum, e.minimum) == (Fraction(67, 126), 0)
    e = signed_extrema(P("+--"))
    assert (e.maximum, e.minimum) == (HALF, Fraction(-8, 63))


def test_height_window_on_random_sequences():
    rng = random.Random(71)
    for _ in range(100):
        period = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 8)))
        pre = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 3)))
        e = signed_extrema(SignSequence(pre, period))
        assert HALF <= e.height <= Fraction(2, 3)
        assert e.minimum <= 0 <= e.maximum


def test_extrema_certified_by_integer_grid():
    # f restricted to depth-16 dyadics is piecewise linear between them, and
    # the discarded tail is at most 2^-16 in absolute value, so the true
    # extrema live within that margin of the exact grid extrema.
    N = 16
    for signs in [ALL_PLUS, ALTERNATING, P("++-"), P("+--"), P("+-", preperiod="-")]:
        term_signs = [signs.term(n) for n in range(N)]
        grid = oracles.int_grid(N, term_signs)
        e = signed_extrema(signs)
        margin = Fraction(1, 1 << N)
        assert abs(e.maximum - Fraction(int(grid.max()), 1 << N)) <= margin
        assert abs(e.minimum - Fraction(int(grid.min()), 1 << N)) <= margin
        # and the grid itself agrees with the exact evaluator pointwise
        rng = random.Random(9)
        for _ in range(25):
            k = rng.randrange((1 << N) + 1)
            assert eval_dyadic(Fraction(k, 1 << N), signs) == Fraction(int(grid[k]), 1 << N)


# ---------------------------------------------------------------------------
# constants and the slope-series identity


def test_signed_constant():
    assert signed_constant(ALL_PLUS) == HALF
    assert signed_constant(ALTERNATING) == Fraction(1, 6)
    assert signed_constant(P("+--")) == Fraction(1, 14)
    # 60-term partial comparison, per the geometric tail bound
    signs = P("+--")
    partial = sum(Fraction(signs.term(n), 1 << (n + 2)) for n in range(60))
    assert abs(signed_constant(signs) - partial) <= Fraction(1, 1 << 58)


def test_signed_residual_bounds():
    n = 30
    bound = Fraction(n + 2, 1 << n)
    # the exact defect at 1/4 with all plus signs
    assert d_expression_residual(Fraction(1, 4), n, ALL_PLUS) == Fraction(15, 1 << 31)
    assert d_expression_residual(Fraction(1, 3), n, ALTERNATING) <= bound
    # at x = 0 with all plus signs the defect telescopes to exactly a quarter
    # of the generic (n + 2) 2^-n envelope
    assert d_expression_residual(Fraction(0), n, ALL_PLUS) == bound / 4


@given(supported_x.filter(lambda x: x < 1), small_signs)
@settings(max_examples=60, deadline=None)
def test_signed_residual_generic_window(x, signs):
    n = 30
    assert d_expression_residual(x, n, signs) <= Fraction(n + 2, 1 << n)


# ---------------------------------------------------------------------------
# signed humps and truncated local counts


def brute_local_count(y, signs, max_order):
    """No-prune rescan: every word, the signed walk rules applied longhand."""
    count = 0
    for m in range(max_order + 1):
        for bits in itertools.product((0, 1), repeat=2 * m):
            d, ok = 0, True
            for j, bit in enumerate(bits):
                d += signs.term(j) * (1 if bit == 0 else -1)
                if d < 0:
                    ok = False
                    break
            if not ok or d != 0:
                continue
            v = oracles.DigitWord(bits, signs).value
            span = Fraction(1, 2 * 4**m)
            if signs.term(2 * m) > 0:
                hit = v <= y <= v + span
            else:
                hit = v - span <= y <= v
            if hit:
                count += 1
    return count


def test_local_count_pins():
    assert truncated_local_count(Fraction(1, 8), ALL_PLUS, 1) == 1
    assert truncated_local_count(HALF, ALTERNATING, 3) == 1
    assert truncated_local_count(Fraction(-1, 4), ALTERNATING, 3) == 0
    assert truncated_local_count(Fraction(3, 4), ALL_PLUS, 4) == 0  # above max
    assert truncated_local_count(Fraction(1, 5), ALL_PLUS, 8) == 1  # any denominator


def test_suffix_extrema_kept_across_calls(monkeypatch):
    # the per-phase extrema depend on the signs alone: a second count under
    # the same signs computes no passage sum
    calls = []
    side_sum = signed._side_sum
    monkeypatch.setattr(signed, "_side_sum", lambda s: calls.append(s) or side_sum(s))
    signed._phase_extrema.cache_clear()
    signs = P("++--+", preperiod="+-")
    truncated_local_count(Fraction(1, 5), signs, 8)
    first = len(calls)
    truncated_local_count(Fraction(2, 7), signs, 8)
    assert first > 0 and len(calls) == first


def test_all_plus_window_is_the_curves_range():
    # tabled from the passage sums, the all-plus window is [0, 2/3] at every
    # depth: the window truncated_hits uses without computing a sum
    for max_order in range(5):
        depths = 2 * max_order + 1
        expected = ((1,) * depths, (0,) * depths, (1,) * depths, (2,) * depths, (3,) * depths)
        assert signed._phase_extrema(ALL_PLUS, max_order) == expected
        assert humps._plus_window(max_order) == expected


def test_local_count_against_brute_scan():
    rng = random.Random(17)
    cases = [(Fraction(1, 8), ALL_PLUS), (HALF, ALTERNATING), (Fraction(-1, 4), ALTERNATING)]
    while len(cases) < 28:
        signs = SignSequence(
            tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 2))),
            tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 3))),
        )
        y = Fraction(rng.randrange(-2 * 4**2, 2 * 4**2 + 1), 3 * 4**2)
        cases.append((y, signs))
    for y, signs in cases:
        assert truncated_local_count(y, signs, 3) == brute_local_count(y, signs, 3)


def test_local_count_band_ends_against_brute_scan():
    """Ends of every leading signed band of order <= 4, and one 1/(3*4^6)
    step outside each, against the no-prune rescan.  The alternating
    sequence has r_{2m} = +1 at every hump end, so its bands open upwards;
    (+--) and (-+) supply the bands that open downwards."""
    step = Fraction(1, 3 * 4**6)
    for signs in [ALTERNATING, SignSequence((), (1, -1, -1)), SignSequence((), (-1, 1))]:
        ordinates, downwards = set(), 0
        for m in range(5):
            for bits in itertools.product((0, 1), repeat=2 * m):
                walk = list(itertools.accumulate(
                    signs.term(j) * (1 if bit == 0 else -1) for j, bit in enumerate(bits)
                ))
                if any(d < 0 for d in walk) or (walk and walk[-1] != 0):
                    continue
                a = oracles.DigitWord(bits, signs).value
                r = signs.term(2 * m)
                band = Fraction(r, 2 * 4**m)
                downwards += r < 0
                ordinates.update((a - r * step, a, a + band, a + band + r * step))
        assert downwards > 0 or signs == ALTERNATING
        for y in sorted(ordinates):
            assert truncated_local_count(y, signs, 4) == brute_local_count(y, signs, 4)


def test_unsigned_local_count_matches_hump_hits():
    from takagi.humps import truncated_hits

    cases = [(Fraction(j, 3 * 4**2), 4) for j in range(0, 2 * 4**2 + 1, 3)]
    # neither search assumes the shape of den(y), supported or not
    for y in (Fraction(1, 5), Fraction(2, 7), Fraction(8, 51), Fraction(22, 49)):
        cases += [(y, m) for m in range(7)]
    for y, m in cases:
        assert truncated_local_count(y, ALL_PLUS, m) == len(
            truncated_hits(y, m, leading_only=True)
        )


def test_expectation_window():
    # Truncated local expectation: (1/2) sum_{m<=M} C_m 4^-m / height lies in
    # [3/2 (1 - tail(M)), 2] with tail the matching series remainder -- an
    # exact-rational certification at M = 20.
    M = 20
    s = catalan_series_partial(M, exact=True)
    lower = Fraction(3, 2) * (1 - (2 - s) / 2)
    assert lower == Fraction(3, 4) * s
    for signs in [ALL_PLUS, ALTERNATING, P("++-"), P("+--")]:
        w = expected_local_window(signs, M)
        assert lower <= w <= 2
    # the all-plus height is exactly 2/3, so its window value sits on the bound
    assert expected_local_window(ALL_PLUS, M) == lower


def test_grid_consistency_of_local_counts():
    # Average truncated count over the supported ordinate lattice inside the
    # range vs the exact truncated expectation, for two flagship sequences.
    M = 5
    s = catalan_series_partial(M, exact=True)
    for signs in [ALL_PLUS, ALTERNATING]:
        e = signed_extrema(signs)
        den = 3 * 4**5
        ys = [
            Fraction(j, den)
            for j in range(int(e.minimum * den), int(e.maximum * den) + 1)
            if e.minimum <= Fraction(j, den) <= e.maximum
        ]
        counts = [truncated_local_count(y, signs, M) for y in ys]
        average = sum(counts) / len(counts)
        target = float(HALF * s / e.height)
        assert abs(average - target) <= 0.05
