"""Binary expansions, parsing and the machine's depth tag, over any denominator."""

from fractions import Fraction
from itertools import count, product

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
from takagi.curve import eval_rational
from takagi.machine import Verdict, classify
from takagi.rationals import (
    MAX_EVAL_DIGITS,
    BinaryExpansion,
    format_rational,
    _period_of_two,
    _word_numerator,
    ordinate_depth,
    parse_rational,
    split_denominator,
    to_binary,
)


def test_split_denominator():
    assert split_denominator(Fraction(7, 12)) == (2, 3)
    assert split_denominator(Fraction(1, 8)) == (3, 1)
    assert split_denominator(Fraction(5)) == (0, 1)
    assert split_denominator(Fraction(2, 3)) == (0, 3)


def test_supported_class():
    # Once only 2^k and 3 * 2^k were classified; every rational ordinate in
    # [0, 2/3] now gets a verdict whose preimages or witness attain it.
    ordinates = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(7, 12),
                 Fraction(1, 1024), Fraction(11, 3 * 2**9), Fraction(1, 5),
                 Fraction(1, 7), Fraction(1, 9), Fraction(8, 15), Fraction(1, 48 * 5)]
    for y in ordinates:
        report = classify(y)
        assert report.verdict is not Verdict.INDETERMINATE, y
        if report.preimages is not None:
            assert report.preimages and all(eval_rational(x) == y for x in report.preimages)
        if report.witness_preimage is not None:
            assert eval_rational(report.witness_preimage) == y
    assert classify(Fraction(8, 15)).verdict is Verdict.UNCOUNTABLE


def test_make_rational_reduces_before_checking():
    # 10/15 reduces to 2/3: the denominator 15 never reaches the machine.
    assert classify(Fraction(10, 15)) == classify(Fraction(2, 3))


def test_ordinate_depth_pins():
    assert ordinate_depth(Fraction(1, 8)) == 2
    assert ordinate_depth(Fraction(2, 3)) == 0
    assert ordinate_depth(Fraction(3, 128)) == 4
    assert ordinate_depth(Fraction(0)) == 0
    assert ordinate_depth(Fraction(1, 2)) == 1
    assert ordinate_depth(Fraction(7, 12)) == 1
    # only the 2-adic valuation counts
    assert ordinate_depth(Fraction(1, 5)) == 0
    assert ordinate_depth(Fraction(7, 20)) == 1


def test_parse_and_format():
    assert parse_rational("7/12") == Fraction(7, 12)
    assert parse_rational(" 3 ") == Fraction(3)
    assert parse_rational("1/5") == Fraction(1, 5)
    with pytest.raises(ValueError):
        parse_rational("seven")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(2, 3)) == "2/3"


def test_expansion_pins():
    assert to_binary(Fraction(1, 3)) == BinaryExpansion((), (0, 1))
    assert to_binary(Fraction(1, 6)) == BinaryExpansion((0,), (0, 1))
    assert to_binary(Fraction(5, 8)) == BinaryExpansion((1, 0, 1), ())
    assert to_binary(Fraction(0)) == BinaryExpansion((), ())
    assert to_binary(Fraction(13, 48)).render() == "0.0100(01)"


def test_expansion_digit_limit():
    # preperiod k digits and period ord_odd(2) digits, at most MAX_EVAL_DIGITS
    assert len(to_binary(Fraction(1, 2**MAX_EVAL_DIGITS)).preperiod) == MAX_EVAL_DIGITS
    assert to_binary(Fraction(1, 3 << (MAX_EVAL_DIGITS - 2))).period == (0, 1)
    for x in (Fraction(1, 2 << MAX_EVAL_DIGITS), Fraction(1, 3 << (MAX_EVAL_DIGITS - 1)),
              Fraction(1, 32771), Fraction(1, 1000000000039)):
        with pytest.raises(ValueError, match=str(MAX_EVAL_DIGITS)):
            to_binary(x)


def test_period_of_two_against_brute_force():
    # the least p >= 1 with 2^p = 1 (mod odd), for every odd number from 3 up
    # to 4,095 (odd = 1 is the dyadic case: no period, and no such p)
    for odd in range(3, 4097, 2):
        assert _period_of_two(odd) == next(p for p in count(1) if pow(2, p, odd) == 1), odd


def test_kept_period_keeps_no_refusal():
    # 1/5 = 0.(0011): with odd part 5 the expansion has k + 4 digits, refused
    # past MAX_EVAL_DIGITS; the period kept from a refused x serves the next x
    _period_of_two.cache_clear()
    with pytest.raises(ValueError, match=str(MAX_EVAL_DIGITS)):
        to_binary(Fraction(1, 5 << (MAX_EVAL_DIGITS - 3)))
    with pytest.raises(ValueError, match=str(MAX_EVAL_DIGITS)):
        eval_rational(Fraction(1, 5 << (MAX_EVAL_DIGITS - 3)))
    assert to_binary(Fraction(1, 5 << 3)) == BinaryExpansion((0, 0, 0), (0, 0, 1, 1))
    assert eval_rational(Fraction(1, 5)) == Fraction(8, 15)
    assert len(to_binary(Fraction(1, 5 << (MAX_EVAL_DIGITS - 4))).preperiod) == MAX_EVAL_DIGITS - 4
    assert _period_of_two.cache_info().misses == 1
    # an order past the limit is refused on every call, and never kept
    for _ in range(2):
        with pytest.raises(ValueError, match=str(MAX_EVAL_DIGITS)):
            to_binary(Fraction(1, 32771))
    assert _period_of_two.cache_info().currsize == 1


def test_expansion_digits_are_plain_ints():
    for x in (Fraction(5, 8), Fraction(13, 48), Fraction(1, 3), Fraction(998, 999)):
        e = to_binary(x)
        assert {type(d) for d in e.preperiod + e.period} <= {int}
        assert {*e.preperiod, *e.period} <= {0, 1}


def test_expansion_matches_long_division_exhaustively():
    # every p/q in [0, 1) with q <= 300, against the schoolbook reference
    for q in range(1, 301):
        for p in range(q):
            x = Fraction(p, q)
            if x.denominator == q:
                e = to_binary(x)
                assert (e.preperiod, e.period) == oracles.long_division(x), x


def test_expansion_digit_conventions():
    e = to_binary(Fraction(5, 8))
    assert e.is_terminating
    assert e.digits(6) == (1, 0, 1, 0, 0, 0)  # zeros forever past the end
    with pytest.raises(IndexError):
        e.digit(0)


# Denominators stay modest: the period length is the multiplicative order of
# 2 modulo the odd part, which grows without bound over raw fractions.
rationals_01 = st.fractions(
    min_value=0, max_value=1, max_denominator=10_000
).filter(lambda x: x < 1)


@given(rationals_01)
@settings(deadline=None)
def test_expansion_round_trip(x):
    e = to_binary(x)
    assert e.value() == x


@given(rationals_01)
@settings(deadline=None)
def test_expansion_matches_long_division(x):
    e = to_binary(x)
    t = x
    for i in range(1, 40):
        t *= 2
        bit = 1 if t >= 1 else 0
        t -= bit
        assert e.digit(i) == bit


@given(rationals_01)
@settings(deadline=None)
def test_expansion_canonical(x):
    e = to_binary(x)
    p = len(e.period)
    # primitive period: no proper divisor of the length reproduces it
    for d in range(1, p):
        if p % d == 0:
            assert e.period != e.period[: d] * (p // d)
    # minimal preperiod: the last head digit must differ from the one the
    # cycle would have produced in its place
    if e.preperiod and e.period:
        assert e.preperiod[-1] != e.period[-1]
    # dyadic iff terminating
    assert e.is_terminating == (x.denominator & (x.denominator - 1) == 0)


def test_non_canonical_expansions():
    # x = 1 is the pure period (1,), which to_binary never produces
    assert BinaryExpansion((), (1,)).value() == 1
    # a rotated period entered one digit late names the same rational
    rotated = BinaryExpansion((0,) * 10, (0, 1, 1, 0))
    canonical = to_binary(Fraction(1, 2560))
    assert rotated.value() == Fraction(1, 2560) == canonical.value()
    assert rotated != canonical
    assert canonical == BinaryExpansion((0,) * 9, (0, 0, 1, 1))
    assert oracles.profile_classes([rotated, canonical]) == 1  # one |D| profile


def test_value_is_one_fraction():
    # every (preperiod, period) split of every word up to length 10, against
    # the sum of a preperiod Fraction and a shifted period Fraction
    for length in range(11):
        for word in product((0, 1), repeat=length):
            for q in range(length + 1):
                u, c = word[:q], word[q:]
                assert BinaryExpansion(u, c).value() == oracles.expansion_value(u, c), (u, c)
            assert _word_numerator(word) == oracles.word_numerator(word)
    assert BinaryExpansion((), (1,)).value() == 1
    assert BinaryExpansion((), ()).value() == 0
    # eval_rational hands over its sign runs as a generator of bools
    assert _word_numerator(s < 0 for s in (-1, 1, 1, -1)) == 0b1001
    assert _word_numerator((True, False, True)) == 5
    assert _word_numerator(iter(())) == 0
    for bad in ((1, 2), (0, -1), (1, 0, 48), (1, 32)):
        with pytest.raises(ValueError):
            _word_numerator(bad)
