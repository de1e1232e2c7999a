"""Local level sets: profile classes and the local count of finite L(y)."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import _oracles as oracles
from takagi.curve import eval_dyadic
from takagi.machine import Verdict, classify


def walk_profile(word):
    return [abs(d) for d in oracles.walk_of(word)]


balanced_words = (
    st.integers(min_value=0, max_value=5)
    .flatmap(lambda m: st.permutations([0] * m + [1] * m))
    .map(tuple)
)


@given(balanced_words)
@settings(max_examples=80)
def test_partner_values_coincide(word):
    # Matching |D| profiles force matching curve values once the tails agree,
    # and balanced words all share the all-zeros tail; the partners come by
    # brute force over every word of that length.
    profile = walk_profile(word)
    partners = [bits for bits in product((0, 1), repeat=len(word)) if walk_profile(bits) == profile]
    assert word in partners
    points = (Fraction(int("".join(map(str, bits)) or "0", 2), 1 << len(bits)) for bits in partners)
    values = {eval_dyadic(x) for x in points}
    assert len(values) == 1


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
