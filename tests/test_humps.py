"""Balanced words, hump boxes, census counts, and truncated hits."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
from takagi.curve import eval_dyadic
from takagi.humps import (
    ROOT_HUMP,
    NotBalancedError,
    analyze_word,
    balanced_word_of,
    census,
    count_balanced,
    truncated_hits,
)
from takagi.machine import Verdict, classify
from takagi.signed import ALL_PLUS, truncated_local_count


def test_root_hump():
    assert ROOT_HUMP.order == 0
    assert ROOT_HUMP.generation == 0
    assert ROOT_HUMP.is_leading
    assert ROOT_HUMP.x_interval == (0, 1)
    assert ROOT_HUMP.y_projection == (0, Fraction(2, 3))
    assert ROOT_HUMP.y_projection_truncated == (0, Fraction(1, 2))


def test_analyze_word_pins():
    h = analyze_word((0, 1))
    assert (h.order, h.generation, h.is_leading) == (1, 1, True)
    assert h.x_interval == (Fraction(1, 4), Fraction(1, 2))
    assert h.y_projection == (Fraction(1, 2), Fraction(2, 3))
    assert h.y_projection_truncated == (Fraction(1, 2), Fraction(5, 8))

    h = analyze_word((0, 1, 1, 0))
    assert (h.order, h.generation, h.is_leading) == (2, 2, False)

    for bad in [(0,), (0, 0), (0, 1, 1)]:
        with pytest.raises(NotBalancedError):
            analyze_word(bad)


def test_hump_box_is_an_affine_copy():
    # Over its interval, the hump's graph spans exactly the projected box.
    for word in (w for m in range(6) for w in oracles.balanced_words(m)):
        h = analyze_word(word)
        left, right = h.x_interval
        assert eval_dyadic(left) == h.base
        assert eval_dyadic(right) == h.base
        width = right - left
        assert width == Fraction(1, 4**h.order)
        assert h.y_projection == (h.base, h.base + Fraction(2, 3) * width)


def listed_humps(order):
    """Every hump of the given order, from the brute-force word listing."""
    return [analyze_word(word) for word in oracles.balanced_words(order)]


def test_census_small_orders():
    for m in range(7):
        total, leading = census(m)
        assert total == comb(2 * m, m)
        assert leading == comb(2 * m, m) // (m + 1)
        assert count_balanced(m) == total
        assert count_balanced(m, leading=True) == leading


def test_generation_counts():
    # Exactly 2 C_{m-1} humps of generation 1 at order m >= 1: the walk
    # keeps one sign until its single return to zero at the end.
    for m in range(1, 6):
        assert count_balanced(m, generation=1) == 2 * comb(2 * (m - 1), m - 1) // m
    assert count_balanced(0, generation=1) == 0


def test_count_balanced_matches_listing():
    """The transfer count against the brute-force listing, classified word
    by word, for every filter at orders <= 8."""
    for m in range(9):
        humps = listed_humps(m)
        for leading in (False, True):
            kept = [h for h in humps if h.is_leading or not leading]
            assert count_balanced(m, leading=leading) == len(kept)
            for g in range(m + 1):
                expected = sum(1 for h in kept if h.generation == g)
                assert count_balanced(m, leading=leading, generation=g) == expected, (m, leading, g)


def test_count_balanced_rejects_negative_order():
    with pytest.raises(ValueError):
        count_balanced(-1)


def test_hump_searches_reject_negative_order():
    for y in (Fraction(0), Fraction(1, 3)):
        with pytest.raises(ValueError, match="max_order"):
            truncated_hits(y, -1)
        with pytest.raises(ValueError, match="max_order"):
            truncated_hits(y, -1, leading_only=True)
        with pytest.raises(ValueError, match="max_order"):
            truncated_local_count(y, ALL_PLUS, -1)


ordinates = st.fractions(min_value=0, max_value=Fraction(2, 3), max_denominator=3 * 4**3)


@given(ordinates, st.integers(min_value=0, max_value=4))
@settings(max_examples=80, deadline=None)
def test_truncated_hits_against_enumeration(y, max_order):
    hits = truncated_hits(y, max_order)
    assert [(h.order, h.corner) for h in hits] == sorted((h.order, h.corner) for h in hits)
    by_hand = [
        h
        for m in range(max_order + 1)
        for h in listed_humps(m)
        if h.y_projection_truncated[0] <= y <= h.y_projection_truncated[1]
    ]
    assert len(hits) == len(by_hand)
    assert {h.word for h in hits} == {h.word for h in by_hand}
    leading = truncated_hits(y, max_order, leading_only=True)
    assert {h.word for h in leading} == {h.word for h in by_hand if h.is_leading}
    # and the fully independent counter from the oracle module agrees
    direct = oracles._direct_hits(y, max_order)
    assert direct.total == len(hits)
    assert direct.leading == len(leading)


def test_walk_hits_match_word_search():
    """The walk count over the rules reference (complete_hits, all orders)
    against the word-by-word search (_direct_hits), total and leading, on
    every Finite row of the depth-3 and depth-4 lattices.  Orders up to half
    the reference graph's state count cover every hit: a hit walk of a
    finite family repeats no state, so it is shorter than the graph."""
    rows = 0
    for depth in (3, 4):
        for j in range(2 * 4**depth + 1):
            y = Fraction(j, 3 * 4**depth)
            if classify(y, listing=False).verdict is not Verdict.FINITE:
                continue
            max_order = len(oracles.reference_close_graph(y).slope) // 2
            assert oracles.complete_hits(y) == oracles._direct_hits(y, max_order), y
            rows += 1
    assert rows == 464


def test_truncated_hits_band_ends():
    """At both ends of every truncated band of order <= 5, and one
    1/(3*4^6) step outside each end, the search agrees with the listing
    filter: a flipped strictness in its window or hit tests shows here."""
    humps = [h for m in range(6) for h in listed_humps(m)]
    step = Fraction(1, 3 * 4**6)
    ordinates = set()
    for h in humps:
        lo, hi = h.y_projection_truncated
        ordinates.update((lo - step, lo, hi, hi + step))
    for y in sorted(ordinates):
        by_hand = [
            h for h in humps if h.y_projection_truncated[0] <= y <= h.y_projection_truncated[1]
        ]
        leading = [h.word for h in by_hand if h.is_leading]
        assert [h.word for h in truncated_hits(y, 5)] == [h.word for h in by_hand]
        assert [h.word for h in truncated_hits(y, 5, leading_only=True)] == leading
        assert truncated_local_count(y, ALL_PLUS, 5) == len(leading)


def test_truncated_hits_high_order_without_recursion():
    """Order 600 walks words of 1200 digits, past the interpreter's default
    recursion limit; the signed all-plus count is the reference."""
    y = Fraction(1, 3)
    hits = truncated_hits(y, 600, leading_only=True)
    assert len(hits) == truncated_local_count(y, ALL_PLUS, 600) == 1


def test_balanced_word_pins():
    assert balanced_word_of(Fraction(5, 8)) == (1, 0, 1, 0)
    assert balanced_word_of(Fraction(7, 8)) == (1, 1, 1, 0, 0, 0)
    assert balanced_word_of(Fraction(1, 8)) is None
    assert balanced_word_of(Fraction(1, 3)) is None
    assert balanced_word_of(Fraction(0)) == ()
