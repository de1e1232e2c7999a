"""Local level sets: partner words and profile classes."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from takagi.curve import DigitWord, eval_dyadic
from takagi.levelsets import local_partner_count, local_partners
from takagi.machine import Verdict, classify


def test_partner_pins():
    assert local_partners((0, 1)) == [(0, 1), (1, 0)]
    assert local_partners((0, 1, 1, 0)) == [
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    ]
    assert local_partners(()) == [()]
    # a constant word never revisits zero: itself and its complement
    assert local_partners((0, 0, 0)) == [(0, 0, 0), (1, 1, 1)]


words = st.lists(st.integers(min_value=0, max_value=1), max_size=10).map(tuple)


@given(words)
@settings(max_examples=120)
def test_partners_match_brute_force(word):
    n = len(word)
    reference = walk_profile(word)
    expected = sorted(
        candidate
        for candidate in all_words(n)
        if walk_profile(candidate) == reference
    )
    assert local_partners(word) == expected
    assert local_partner_count(word) == len(expected)


def all_words(n):
    for k in range(1 << n):
        yield tuple((k >> (n - 1 - i)) & 1 for i in range(n))


def walk_profile(word):
    d, out = 0, []
    for bit in word:
        d += 1 if bit == 0 else -1
        out.append(abs(d))
    return out


balanced_words = (
    st.integers(min_value=0, max_value=5)
    .flatmap(lambda m: st.permutations([0] * m + [1] * m))
    .map(tuple)
)


@given(balanced_words)
@settings(max_examples=80)
def test_partner_values_coincide(word):
    # Matching |D| profiles force matching curve values once the tails agree,
    # and balanced words all share the all-zeros tail.
    values = {eval_dyadic(DigitWord(w).point()) for w in local_partners(word)}
    assert len(values) == 1


def test_count_is_two_to_the_blocks():
    # One free sign per block between returns of the walk to zero, and the
    # leading block (after j = 0) always counts.
    assert local_partner_count(()) == 1
    assert local_partner_count((0, 1)) == 2
    assert local_partner_count((0, 1, 1, 0)) == 4
    assert local_partner_count((0, 1, 0, 1, 0, 1)) == 8
    assert local_partner_count((0, 0, 0, 0)) == 2


def test_local_count_golden_pins():
    assert classify(Fraction(0)).n_local == 1
    assert classify(Fraction(1, 8)).n_local == 1
    assert classify(Fraction(7, 12)).n_local == 1
    assert classify(Fraction(1, 2)).n_local is None


def test_first_depth4_ordinate_with_two_local_sets():
    """Scanning j = 0, 1, 2, ... at depth 4, the first ordinate whose finite
    level set splits into two profile classes is 193/768 (frozen by scan,
    confirmed by its independent leading-hit count of 2)."""
    first = None
    for j in range(2 * 256 + 1):
        y = Fraction(j, 3 * 256)
        report = classify(y)
        if report.verdict is Verdict.FINITE and report.n_local == 2:
            first = y
            break
    assert first == Fraction(193, 768)
    report = classify(first)
    assert report.cardinality == 6
    assert report.preimages == (
        Fraction(181, 3072),
        Fraction(191, 3072),
        Fraction(49243, 786432),
        Fraction(737189, 786432),
        Fraction(2881, 3072),
        Fraction(2891, 3072),
    )


def test_nlocal_bounds_on_random_finite_ordinates():
    rng = random.Random(3)
    seen = 0
    while seen < 25:
        j = rng.randrange(2 * 4**4 + 1)
        y = Fraction(j, 3 * 4**4)
        report = classify(y)
        if report.verdict is not Verdict.FINITE or not report.cardinality:
            continue
        seen += 1
        assert 1 <= report.n_local <= report.cardinality // 2
        if 0 < y < Fraction(2, 3):
            assert report.cardinality % 2 == 0
