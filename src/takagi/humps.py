"""Hump combinatorics: balanced words, their boxes, and truncated projections.

A balanced word (as many zeros as ones) of length 2m marks a dyadic corner
x0 = 0.w at which the curve restarts a scaled copy of itself: over
I = [x0, x0 + 4^-m] the graph is an affine image of the whole curve, lifted
to height a = T(x0).  The box I x [a, a + (2/3) 4^-m] is the hump of order m;
its truncated projection [a, a + (1/2) 4^-m] is the part guaranteed by the
first half of the copy.  Humps of order m are counted by binomial(2m, m) and
the leading ones (slope walk never negative) by the Catalan number C_m;
:func:`count_balanced` counts them by a transfer count over the slope walk,
without listing a word, so the closed forms have an independent check.

The pruned word search for humps whose truncated projection contains an
ordinate y is written once for the whole signed family, with the signs and
the per-depth extrema of the shifted function as one integer table, built
once per (signs, max_order):
:func:`truncated_hits` lists its all-plus hits and
:func:`takagi.signed.truncated_local_count` counts its signed leading hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .curve import ALL_PLUS, TWO_THIRDS, SignSequence, _walk
from .rationals import ZERO, _word_digits, _word_numerator, to_binary


#: Largest order ``takagi census`` accepts (a larger one is a usage error);
#: :func:`count_balanced` itself takes any order.
MAX_CENSUS_ORDER = 12


class NotBalancedError(ValueError):
    """Word (or dyadic point) does not mark a hump corner."""


@dataclass(frozen=True)
class Hump:
    word: tuple[int, ...]
    order: int
    generation: int
    is_leading: bool
    base: Fraction
    x_interval: tuple[Fraction, Fraction]
    y_projection: tuple[Fraction, Fraction]
    y_projection_truncated: tuple[Fraction, Fraction]

    @property
    def corner(self) -> Fraction:
        return self.x_interval[0]


def analyze_word(word: Sequence[int]) -> Hump:
    """Classify a balanced word into its hump; empty word gives the root.

    Raises :class:`NotBalancedError` on odd length or nonzero final slope.
    Examples: "01" -> order 1, generation 1, leading, box [1/4, 1/2] x
    [1/2, 2/3]-ish; "0110" -> order 2, generation 2, not leading.
    """
    word = tuple(word)
    if not {*word} <= {0, 1}:
        raise ValueError(f"binary digits expected, got {word!r}")
    slopes = list(accumulate(1 - 2 * bit for bit in word))  # D_1 .. D_2m
    if len(word) % 2 or (slopes and slopes[-1]):
        raise NotBalancedError(f"not balanced: {''.join(map(str, word))!r}")
    order = len(word) // 2
    numerator = _word_numerator(word)
    scaled, _ = _walk(numerator, 0, len(word))
    # each endpoint is an integer over 4^m, 3 * 4^m or 2 * 4^m: the box is
    # 4^-m wide, (2/3) 4^-m tall and truncated to (1/2) 4^-m
    unit = 1 << len(word)
    base = Fraction(scaled, unit)
    return Hump(
        word=word,
        order=order,
        generation=slopes.count(0),
        is_leading=min(slopes, default=0) >= 0,
        base=base,
        x_interval=(Fraction(numerator, unit), Fraction(numerator + 1, unit)),
        y_projection=(base, Fraction(3 * scaled + 2, 3 * unit)),
        y_projection_truncated=(base, Fraction(2 * scaled + 1, 2 * unit)),
    )


ROOT_HUMP = analyze_word(())


def count_balanced(order: int, *, leading: bool = False, generation: Optional[int] = None) -> int:
    """The number of humps of the given order, without listing them.

    ``leading=True`` counts Dyck words only; ``generation=g`` those whose
    slope walk returns to zero g times.  A transfer count over the states
    (D, returns to zero so far), one length at a time, pruning every state
    that can no longer end at D = 0 (and, for leading words, every D < 0).
    It relies on no closed form, so it checks them: binomial(2m, m) in
    total, Catalan(m) leading, 2 Catalan(m - 1) of generation 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    length = 2 * order
    counts = {(0, 0): 1}
    for j in range(1, length + 1):
        step: dict[tuple[int, int], int] = {}
        for (d, returns), ways in counts.items():
            for e in (d + 1, d - 1):
                if abs(e) > length - j or (leading and e < 0):
                    continue
                state = (e, returns + (e == 0))
                step[state] = step.get(state, 0) + ways
        counts = step
    return sum(ways for (_, returns), ways in counts.items() if generation in (None, returns))


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1): 1, 1, 2, 5, 14, 42, ..."""
    if n < 0:
        raise ValueError("Catalan numbers need n >= 0")
    return comb(2 * n, n) // (n + 1)


def central_binomial(m: int) -> int:
    """binom(2m, m): 1, 2, 6, 20, 70, ..."""
    if m < 0:
        raise ValueError("central binomial coefficients need m >= 0")
    return comb(2 * m, m)


def census(order: int) -> tuple[int, int]:
    """(humps, leading humps) of the given order: (binom(2m, m), Catalan(m))."""
    return central_binomial(order), catalan(order)


#: The integer window of the hump search to a depth, five columns over the
#: lengths j: the signs r_j, then the numerators and denominators of lo and
#: hi, the bounds of the shifted function past length j.
Window = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _search_window(
    signs: SignSequence, max_order: int, extrema: Callable[[int], tuple[Fraction, Fraction]]
) -> Window:
    """The window of :func:`_hit_words` to depth 2 max_order, ``extrema(j)``
    being (lo, hi) past length j; max_order < 0 raises ValueError."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    depths = range(2 * max_order + 1)
    bounds = [extrema(j) for j in depths]
    return (
        tuple(signs.term(j) for j in depths),
        tuple(lo.numerator for lo, _ in bounds),
        tuple(lo.denominator for lo, _ in bounds),
        tuple(hi.numerator for _, hi in bounds),
        tuple(hi.denominator for _, hi in bounds),
    )


@lru_cache(maxsize=64)
def _plus_window(max_order: int) -> Window:
    """The all-plus window: T ranges over [0, 2/3] past every depth."""
    return _search_window(ALL_PLUS, max_order, lambda j: (ZERO, TWO_THIRDS))


def _hit_words(y: Fraction, window: Window, leading_only: bool) -> Iterator[tuple[int, ...]]:
    """Hump words no longer than ``window`` whose truncated band contains
    y = a/b.

    A hump word has signed walk D_{2m} = 0; its truncated band spans
    (1/2) 4^-m from f(x0) in the direction of the next sign r_{2m}, upwards
    for T.  The window (:func:`_search_window`) gives r_j and (lo, hi), the
    bounds of the shifted function past length j, (0, 2/3) at every j for T,
    as integers.  The search walks the word tree pruning by the
    reachable-value window: below a prefix of length j with slope D and
    scaled value w = v 2^j, every value lies within
    [(w + min(0, D) + lo) 2^-j, (w + max(0, D) + hi) 2^-j].  Both ends of a
    band below the prefix are values there, f(x0) at the corner and the far
    end at the hump's midpoint x0 + 4^-m / 2, so the band lies inside the
    window.  With lo = ln/ld and hi = hn/hd, a prefix survives while

        ((w + min(0, D)) ld + ln) b <= ld a 2^j   and   ((w + max(0, D)) hd + hn) b >= hd a 2^j,

    and a word of length j = 2m with D_j = 0 hits when
    0 <= r_j (a 2^(j+1) - 2 w b) <= b: integer comparisons throughout.
    ``leading_only`` prunes every word whose walk goes negative.
    """
    terms, low_n, low_d, high_n, high_d = window
    a, b = y.numerator, y.denominator
    depth_cap = len(terms) - 1
    scaled_y = [a << j for j in range(depth_cap + 2)]  # y 2^j b
    # Per length j, the window tests as (w + min(0, D)) * low_k[j] <= low_c[j]
    # and (w + max(0, D)) * high_k[j] >= high_c[j].
    low_k = [ld * b for ld in low_d]
    low_c = [ld * ay - ln * b for ln, ld, ay in zip(low_n, low_d, scaled_y)]
    high_k = [hd * b for hd in high_d]
    high_c = [hd * ay - hn * b for hn, hd, ay in zip(high_n, high_d, scaled_y)]
    # Depth-first on an explicit stack, so orders in the thousands are fine:
    # each entry is a word as (length, D, w, its digits as an integer).
    stack = [(0, 0, 0, 0)]
    while stack:
        depth, d, w, word = stack.pop()
        low, high = (w + d, w) if d < 0 else (w, w + d)
        if low * low_k[depth] > low_c[depth] or high * high_k[depth] < high_c[depth]:
            continue
        r = terms[depth]
        if depth % 2 == 0 and d == 0 and 0 <= r * (scaled_y[depth + 1] - 2 * w * b) <= b:
            yield _word_digits(word, depth)
        if depth == depth_cap:
            continue
        # pushed in reverse: the 0-branch runs first
        if not leading_only or d - r >= 0:
            stack.append((depth + 1, d - r, (w << 1) + d + r, (word << 1) | 1))
        if not leading_only or d + r >= 0:
            stack.append((depth + 1, d + r, w << 1, word << 1))


def truncated_hits(
    y: Fraction, max_order: int, *, leading_only: bool = False
) -> list[Hump]:
    """Humps of order <= max_order whose truncated projection contains y.

    Works for any rational y (exact arithmetic throughout): the all-plus
    case of the pruned word search :func:`_hit_words`, with the curve's
    range [0, 2/3] as the window past every prefix.  Fractions are built
    only for the humps returned.  The root hump counts whenever
    0 <= y <= 1/2.  Results sorted by (order, corner).
    """
    words = _hit_words(y, _plus_window(max_order), leading_only)
    return sorted(map(analyze_word, words), key=lambda h: (h.order, h.corner))


def balanced_word_of(x: Fraction) -> Optional[tuple[int, ...]]:
    """The balanced word whose corner is x, or None if x is not a corner.

    The terminating digits of a dyadic x in [0, 1) extend to a balanced word
    exactly when their slope is <= 0 (pad with that many zeros; parity is
    automatic).  5/8 -> (1,0,1,0); 7/8 -> (1,1,1,0,0,0); 1/8 -> None.
    """
    if not 0 <= x < 1:
        raise ValueError(f"need 0 <= x < 1, got {x}")
    expansion = to_binary(x)
    if not expansion.is_terminating:
        return None
    digits = expansion.preperiod
    slope = len(digits) - 2 * sum(digits)
    if slope > 0:
        return None
    return digits + (0,) * -slope
