"""Signed relatives f(x) = sum_n r_n 2^-n dist(2^n x, Z) for periodic signs.

Only eventually periodic sign sequences r are representable — exactly the
class where everything stays exact.  The digit walk and everything computed
from it live in :mod:`takagi.curve` and :mod:`takagi.humps`, with T as the
all-plus case: the walk picks up the sign r_{i-1} at step i,
``eval_rational(x, signs)`` (importable from here as
``eval_signed_rational``) closes over one aligned period, and one pruned
word search serves both hump counts.  What is signed-only lives here: the
max/min come from first-passage times of the sign walk
s_n = r_0 + ... + r_{n-1}:

    max f = sum_k (1/2)^{tau_{2k-1}},   min f = -sum_k (1/2)^{tau_{1-2k}},

with (1/2)^inf = 0.  Past the transient the passage times to odd levels form
an arithmetic progression, so both sums collapse to a finite part plus a
geometric tail.  The height max - min always lands in [1/2, 2/3].

Full level-set classification is deliberately absent: the feasibility
envelope of the unsigned machine becomes a per-phase fixed-point system
here.  What is provided is the leading-hump census against a horizontal
line (``truncated_local_count``) and the exact truncated expectation window
around 3/2..2 that it witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

# ALL_PLUS, ALTERNATING, SignSequence and the evaluator live beside the digit
# walk and stay importable from here.
from .curve import (  # noqa: F401
    ALL_PLUS, ALTERNATING, HALF, TWO_THIRDS, SignSequence, eval_rational as eval_signed_rational
)
from .humps import Window, _hit_words, _search_window, catalan
from .rationals import ZERO


# ---------------------------------------------------------------------------
# First passages of the sign walk and the exact extrema.


def _walk_head(signs: SignSequence) -> list[int]:
    """s_0 .. s_{alpha + pi} of the sign walk."""
    out = [0]
    for n in range(signs.transient + signs.period_length):
        out.append(out[-1] + signs.term(n))
    return out


def first_passage(signs: SignSequence, level: int) -> Optional[int]:
    """First n with s_n = level, or None if the walk never gets there.

    Within the transient plus one period the head values are scanned
    directly; beyond, s_{alpha+i+k*pi} = s_{alpha+i} + k*drift reduces the
    search to one congruence per phase.
    """
    if level == 0:
        return 0
    alpha, pi, delta = signs.transient, signs.period_length, signs.drift
    s = _walk_head(signs)
    for n in range(1, len(s)):
        if s[n] == level:
            return n
    if delta == 0:
        return None
    best: Optional[int] = None
    for i in range(1, pi + 1):
        need = level - s[alpha + i]
        if need % delta == 0:
            k = need // delta
            if k >= 1:
                n = alpha + i + k * pi
                if best is None or n < best:
                    best = n
    return best


@dataclass(frozen=True)
class PassageProgression:
    """tau at the odd levels on one side, finite head + arithmetic tail.

    ``times[i]`` is tau at ``levels[i]`` (None = never reached).  When the
    walk drifts toward this side, every level past ``tail_from`` satisfies
    tau(level + level_stride) = tau(level) + time_stride; otherwise the last
    listed level is unreachable (None) and so is everything beyond it.
    """

    levels: tuple[int, ...]
    times: tuple[Optional[int], ...]
    tail_from: Optional[int]
    level_stride: Optional[int]
    time_stride: Optional[int]


def first_passages(signs: SignSequence, side: int) -> PassageProgression:
    """Passage times to the odd levels 1, 3, 5, ... (side=+1) or -1, -3, ...

    Levels are reported as positive integers on both sides (the walk is
    flipped for side=-1).  All-plus: tau = 1, 3, 5, ...; alternating
    positive side: tau_1 = 1, tau_3 = infinity.
    """
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    walk = signs if side == 1 else signs.flipped()
    reach = max(_walk_head(walk))
    delta = walk.drift
    if delta > 0:
        window_end = reach + 2 * delta
        tail_from = reach + 1 if reach % 2 == 0 else reach + 2
        level_stride: Optional[int] = 2 * delta
        time_stride: Optional[int] = 2 * walk.period_length
    else:
        window_end = reach + 2  # one unreachable level, so the infinity shows
        tail_from = level_stride = time_stride = None
    levels = tuple(range(1, max(window_end, 0) + 1, 2))
    times = tuple(first_passage(walk, lv) for lv in levels)
    return PassageProgression(levels, times, tail_from, level_stride, time_stride)


def _side_sum(signs: SignSequence) -> Fraction:
    """sum over odd j of (1/2)^{tau_j} for this walk, exactly."""
    prog = first_passages(signs, 1)
    total = ZERO
    delta = signs.drift
    if delta <= 0:
        for t in prog.times:
            if t is not None:
                total += Fraction(1, 1 << t)
        return total
    geometric = 1 - Fraction(1, 1 << (2 * signs.period_length))
    for level, t in zip(prog.levels, prog.times):
        if t is None:
            continue
        if prog.tail_from is not None and level >= prog.tail_from:
            # anchor of an arithmetic progression of passage times
            total += Fraction(1, 1 << t) / geometric
        else:
            total += Fraction(1, 1 << t)
    return total


@dataclass(frozen=True)
class SignedExtrema:
    maximum: Fraction
    minimum: Fraction
    positive: PassageProgression
    negative: PassageProgression

    @property
    def height(self) -> Fraction:
        return self.maximum - self.minimum


def signed_extrema(signs: SignSequence) -> SignedExtrema:
    """Exact max and min of f over [0, 1] via first-passage sums.

    all-plus -> (2/3, 0); alternating -> (1/2, 0).  The height always lies
    in [1/2, 2/3] (f(1/2) = ±1/2 gives the lower bound); violations would
    mean a broken passage analysis, so they raise.
    """
    maximum = _side_sum(signs)
    minimum = -_side_sum(signs.flipped())
    extrema = SignedExtrema(
        maximum=maximum,
        minimum=minimum,
        positive=first_passages(signs, 1),
        negative=first_passages(signs, -1),
    )
    if not HALF <= extrema.height <= TWO_THIRDS:
        raise AssertionError(f"height {extrema.height} of {signs} outside [1/2, 2/3]")
    return extrema


# ---------------------------------------------------------------------------
# Signed humps against a horizontal line.


@lru_cache(maxsize=64)
def _phase_extrema(signs: SignSequence, max_order: int) -> Window:
    """The hump-search window of these signs to depth 2 max_order: the
    (min, max) of each shifted function f^(j), kept across calls, since
    the search needs it at every depth and depths share a phase."""
    alpha, pi = signs.transient, signs.period_length
    by_phase: dict[int, tuple[Fraction, Fraction]] = {}

    def extrema(j: int) -> tuple[Fraction, Fraction]:
        phase = j if j < alpha else alpha + (j - alpha) % pi
        if phase not in by_phase:
            shifted = signs.shift(phase)
            by_phase[phase] = -_side_sum(shifted.flipped()), _side_sum(shifted)
        return by_phase[phase]

    return _search_window(signs, max_order, extrema)


def truncated_local_count(y: Fraction, signs: SignSequence, max_order: int) -> int:
    """Leading signed humps of order <= max_order whose truncated band hits y.

    A leading signed hump is a word with signed walk D_j >= 0 throughout and
    D_{2m} = 0; its truncated projection spans (1/2) 4^-m from f(x0) in the
    direction of the first suffix sign r_{2m}.  This counts the hits of the
    pruned word search :func:`takagi.humps._hit_words`, with the extrema of
    the shifted function tabled per depth, so the all-plus count reproduces
    the unsigned leading-hit count; the root hump is included (its band is
    [0, 1/2] when r_0 = +1).
    """
    return sum(1 for _ in _hit_words(y, _phase_extrema(signs, max_order), leading_only=True))


def expected_local_window(signs: SignSequence, max_order: int) -> Fraction:
    """Truncated expected number of local level sets per unit ordinate.

    sum_{m<=M} C_m (1/2) 4^-m divided by the exact height; the full series
    sums to 1, so the value sits in [3/2 * (1 - tail), 2] with
    tail = sum_{m>M} C_m 4^-m / 2 — the finite shadow of "between 3/2 and 2".
    """
    partial = sum(Fraction(catalan(m), 1 << (2 * m)) for m in range(max_order + 1)) / 2
    return partial / signed_extrema(signs).height
