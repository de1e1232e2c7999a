"""Exact evaluation: digit words, closed forms, certified approximation."""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
from takagi.curve import (
    MAX_EVAL_DIGITS,
    d_expression_residual,
    eval_approx,
    eval_dyadic,
    eval_rational,
    _walk,
    triangle_wave,
)
from takagi.humps import truncated_hits
from takagi.rationals import to_binary
from takagi.signed import ALL_PLUS, ALTERNATING, SignSequence, eval_signed_rational, truncated_local_count


def test_triangle_wave():
    assert triangle_wave(Fraction(0)) == 0
    assert triangle_wave(Fraction(1, 2)) == Fraction(1, 2)
    assert triangle_wave(Fraction(3, 4)) == Fraction(1, 4)
    assert triangle_wave(Fraction(5, 2)) == Fraction(1, 2)
    assert triangle_wave(Fraction(-1, 4)) == Fraction(1, 4)
    assert triangle_wave(Fraction(7)) == 0


def test_walk_of():
    assert oracles.walk_of([0, 1, 1, 0]) == (1, 0, -1, 0)
    assert oracles.walk_of([]) == ()


def test_append_rule_pins():
    # "1" ends at w = 1, D = -1: value 1/2; "101" at w = 5, D = -1: value 5/8
    assert _walk(0b1, 0, 1) == (1, -1)
    assert oracles.walk_of((1, 0, 1)) == (-1, 0, -1)
    assert _walk(0b101, 0, 3) == (5, -1)


def test_append_rule_exhaustive_to_length_12():
    """The walk must reproduce the series value at every dyadic corner.

    Exhaustive over all 8190 nonempty words of length <= 12; the direct-sum
    oracle is exact there because terms at or past the word length vanish.
    """
    for length in range(1, 13):
        for n in range(1 << length):
            scaled, slope = _walk(n, 0, length)
            assert slope == length - 2 * n.bit_count()
            assert Fraction(scaled, 1 << length) == oracles.series_value(Fraction(n, 1 << length), length)


def test_nibble_walk_matches_digitword():
    """_walk reads whole words a nibble at a time; it must end where the
    digit-by-digit walk ends, for every word of length 0..10 (the lengths
    that are not a multiple of 4 included) and signs with and without a
    transient."""
    transient = SignSequence((-1, 1, 1), (1, -1, -1))
    assert transient.transient == 3
    for signs in (ALL_PLUS, ALTERNATING, transient):
        for length in range(11):
            minus = int("".join("1" if signs.term(i) < 0 else "0" for i in range(length)) or "0", 2)
            for bits in itertools.product((0, 1), repeat=length):
                word = oracles.DigitWord(bits, signs)
                n = int("".join(map(str, bits)) or "0", 2)
                assert _walk(n, minus, length) == (word.scaled_value, word.slope), (bits, signs)


def test_long_walks_in_linear_memory():
    # 1/30011 walks 30010 digits under either signs: the walk keeps one
    # state, not every w_j, so the peak stays far below 1 MB
    for signs in (ALL_PLUS, ALTERNATING):
        tracemalloc.start()
        try:
            eval_rational(Fraction(1, 30011), signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (signs, peak)


def test_eval_dyadic_pins():
    assert eval_dyadic(Fraction(0)) == 0
    assert eval_dyadic(Fraction(1)) == 0
    assert eval_dyadic(Fraction(1, 2)) == Fraction(1, 2)
    assert eval_dyadic(Fraction(1, 4)) == Fraction(1, 2)
    assert eval_dyadic(Fraction(13, 16)) == Fraction(1, 2)
    assert eval_dyadic(Fraction(3, 8)) == Fraction(5, 8)
    with pytest.raises(ValueError):
        eval_dyadic(Fraction(1, 3))
    with pytest.raises(ValueError):
        eval_dyadic(Fraction(-1, 4))


def test_eval_rational_pins():
    assert eval_rational(Fraction(1, 3)) == Fraction(2, 3)
    assert eval_rational(Fraction(1, 6)) == Fraction(1, 2)
    assert eval_rational(Fraction(1, 48)) == Fraction(1, 8)
    assert eval_rational(Fraction(1, 5)) == Fraction(8, 15)
    assert eval_rational(Fraction(13, 16)) == Fraction(1, 2)


points_01 = st.fractions(min_value=0, max_value=1, max_denominator=10_000)


def test_eval_walk_length_limit():
    # 1/30011 has a period of 30010 digits: within the limit for T, and
    # lcm(30010, 3) = 90030 aligned digits for a period-3 sign sequence.
    x = Fraction(1, 30011)
    assert eval_rational(x) == oracles.periodic_series_value(x)
    with pytest.raises(ValueError, match=str(MAX_EVAL_DIGITS)):
        eval_rational(x, SignSequence.parse("++-"))
    with pytest.raises(ValueError, match=str(MAX_EVAL_DIGITS)):
        eval_rational(Fraction(1, 32771))  # period 32770


@given(points_01)
@settings(deadline=None)
def test_eval_against_series_tail_window(x):
    # T - (50-term partial) is a sum of nonnegative terms 2^-n phi(2^n x),
    # each at most 2^-n / 2, so it lies in [0, 2^-50].
    partial = oracles.series_value(x, 50)
    exact = eval_rational(x)
    assert 0 <= exact - partial <= Fraction(1, 1 << 50)


@given(points_01)
@settings(deadline=None)
def test_symmetry(x):
    assert eval_rational(x) == eval_rational(1 - x)


@given(points_01)
@settings(deadline=None)
def test_halving_identities(x):
    t = eval_rational(x)
    assert eval_rational(x / 2) == x / 2 + t / 2
    assert eval_rational((1 + x) / 2) == (1 - x) / 2 + t / 2


@given(points_01, st.integers(min_value=0, max_value=60))
@settings(max_examples=60, deadline=None)
def test_eval_approx_certificate(x, depth):
    value, bound = eval_approx(x, depth)
    assert abs(eval_rational(x) - value) <= bound
    # the radius shrinks like (|D_depth| + 2/3) / 2^depth, never slower
    assert bound <= (depth + Fraction(2, 3)) / (1 << depth)


@given(points_01.filter(lambda x: x < 1))
@settings(max_examples=40, deadline=None)
def test_d_expression_residual_window(x):
    # the slope-series identity lives on [0, 1)
    n = 40
    assert abs(d_expression_residual(x, n)) <= Fraction(n + 2, 1 << n)


def test_eval_approx_reads_truncated_digits():
    # 13/48 = 0.0100(01): the first 8 digits 01000101 end at slope 2
    value, bound = eval_approx(Fraction(13, 48), 8)
    assert value == eval_dyadic(Fraction(0b01000101, 256))
    assert bound == (2 + Fraction(2, 3)) / 256
    # the digits are those of floor(x 2^depth), whatever the period of x
    assert eval_approx(Fraction(1, 1000000007), 10) == (0, Fraction(1, 96))
    assert eval_approx(Fraction(3, 8), 5) == (eval_dyadic(Fraction(3, 8)), 0)


def _walk_records(count, seed):
    """Seeded (x, signs, y): x = p/q with q <= 1024, signs with preperiod <= 2
    and period <= 5, y = j / (3 * 4^8) in [0, 2/3]."""
    rng = random.Random(seed)

    def signs(n):
        return tuple(rng.choice((1, -1)) for _ in range(n))

    records = []
    for _ in range(count):
        q = rng.randint(1, 1024)
        x = Fraction(rng.randrange(q), q)
        sequence = SignSequence(signs(rng.randint(0, 2)), signs(rng.randint(1, 5)))
        y = Fraction(rng.randint(0, 2 * 4**8), 3 * 4**8)
        records.append((x, sequence, y))
    return records


def test_digit_walk_fingerprint():
    """The digit-walk layer's exact outputs on 300 seeded records: any moved
    expansion, value, hump word or local count changes the digest."""
    digest = hashlib.sha256()
    for x, signs, y in _walk_records(300, seed=20111):
        results = (
            to_binary(x),
            eval_rational(x),
            eval_signed_rational(x, ALL_PLUS),
            eval_signed_rational(x, signs),
            [h.word for h in truncated_hits(y, 8, leading_only=True)],
            truncated_local_count(y, ALL_PLUS, 8),
        )
        for result in results:
            digest.update(repr(result).encode())
    assert digest.hexdigest() == "0dea0848d56a8e4bfe2b93253b74c6e538931cf93878e905f6841d81630709c2"


def test_signed_search_fingerprint():
    """The signed hump search's counts on the same 300 records, at each
    record's signs, for y and for -y/2 (bands below the axis): any change
    to the prune that drops or adds a hit changes the digest."""
    digest = hashlib.sha256()
    for _, signs, y in _walk_records(300, seed=20111):
        for count in (truncated_local_count(y, signs, 8), truncated_local_count(-y / 2, signs, 6)):
            digest.update(repr(count).encode())
    assert digest.hexdigest() == "e4db046afcecec674a2ff12a2db3ad1f162a6b526ba78dec16565e9fff4911b4"
