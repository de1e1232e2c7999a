"""Signed relatives f(x) = sum_n r_n 2^-n dist(2^n x, Z) for periodic signs.

Only eventually periodic sign sequences r are representable — exactly the
class where everything below stays exact: the digit walk
(:class:`takagi.curve.DigitWord`) picks up the sign r_{i-1} at step i,
evaluation at rationals closes over one aligned period, and the max/min
come from first-passage times of the sign walk s_n = r_0 + ... + r_{n-1}:

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
from itertools import chain, cycle, islice
from math import lcm
from typing import Optional

# ALL_PLUS, ALTERNATING and SignSequence live beside the digit walk that reads
# them and stay importable from here.
from .curve import ALL_PLUS, ALTERNATING, HALF, TWO_THIRDS, DigitWord, SignSequence  # noqa: F401
from .humps import catalan
from .rationals import ZERO, _word_numerator, to_binary


def eval_signed_dyadic(x: Fraction, signs: SignSequence) -> Fraction:
    """f(x) at a dyadic x in [0, 1], exactly."""
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if x == 1:
        return ZERO
    expansion = to_binary(x)
    if not expansion.is_terminating:
        raise ValueError(f"{x} is not dyadic")
    return DigitWord(expansion.preperiod, signs).value


def eval_signed_rational(x: Fraction, signs: SignSequence) -> Fraction:
    """f(x) at any rational x in [0, 1], exactly.

    Align both periodicities: past q = max(expansion preperiod, sign
    transient), a block of P = lcm(digit period, sign period) digits repeats
    with the same signs, so the tail value solves a one-block self-affinity
    just as in the unsigned case.  With m = 2^P - 1, the block's numerator c
    and the scaled values w of the head and block words, over the integers:

        f(x) = ((w_q m + D_q c + w_c) m + D_c c) / (m^2 2^q).
    """
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if x == 1:
        return ZERO
    expansion = to_binary(x)
    if expansion.is_terminating:
        return DigitWord(expansion.preperiod, signs).value
    q = max(len(expansion.preperiod), signs.transient)
    block = lcm(len(expansion.period), signs.period_length)
    digits = tuple(islice(chain(expansion.preperiod, cycle(expansion.period)), q + block))
    head = DigitWord(digits[:q], signs)
    block_word = DigitWord(digits[q:], signs.shift(q))
    m = (1 << block) - 1
    c = _word_numerator(digits[q:])
    w_q, w_c = head.scaled_value, block_word.scaled_value
    numerator = (w_q * m + head.slope * c + w_c) * m + block_word.slope * c
    return Fraction(numerator, m * m << q)


def signed_constant(signs: SignSequence) -> Fraction:
    """C(r) = sum_n r_n 2^-(n+2), exactly: 1/2 for all-plus, 1/6 alternating."""
    head = sum(Fraction(s, 1 << n) for n, s in enumerate(signs.preperiod))
    q = len(signs.preperiod)
    p = signs.period_length
    cycle = sum(Fraction(s, 1 << i) for i, s in enumerate(signs.period))
    total = head + Fraction(cycle, 1 << q) / (1 - Fraction(1, 1 << p))
    return total / 4


def signed_d_expression_residual(x: Fraction, signs: SignSequence, terms: int) -> Fraction:
    """Defect of f(x) = C(r) - (1/4) sum (-1)^(eps_{n+1}) D_n 2^-n after ``terms``.

    Bounded by (terms + 2) 2^-terms exactly as in the unsigned case, since
    |D_n| <= n regardless of signs.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    expansion = to_binary(x)
    word = DigitWord(expansion.digits(terms + 1), signs)
    acc = ZERO
    for n in range(1, terms + 1):
        sign = -1 if expansion.digit(n + 1) else 1
        acc += Fraction(sign * word.slope_at(n), 1 << n)
    partial = signed_constant(signs) - acc / 4
    return abs(eval_signed_rational(x, signs) - partial)


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


def _suffix_extrema_table(signs: SignSequence, max_depth: int) -> list[tuple[Fraction, Fraction]]:
    """(min, max) of the shifted function f^(j) for each depth j <= max_depth."""
    alpha, pi = signs.transient, signs.period_length
    cache: dict[int, tuple[Fraction, Fraction]] = {}
    table = []
    for j in range(max_depth + 1):
        phase = j if j < alpha else alpha + (j - alpha) % pi
        if phase not in cache:
            shifted = signs.shift(phase)
            cache[phase] = (-_side_sum(shifted.flipped()), _side_sum(shifted))
        table.append(cache[phase])
    return table


def truncated_local_count(y: Fraction, signs: SignSequence, max_order: int) -> int:
    """Leading signed humps of order <= max_order whose truncated band hits y.

    A leading signed hump is a word with signed walk D_j >= 0 throughout and
    D_{2m} = 0; its truncated projection spans (1/2) 4^-m from f(x0) in the
    direction of the first suffix sign r_{2m}.  The count for the all-plus
    sequence reproduces the unsigned leading-hit count; the root hump is
    included (its band is [0, 1/2] when r_0 = +1).

    Below a prefix of length j with slope D and scaled value w = v 2^j, the
    values lie in [(w + min(0, D) + lo_j) 2^-j, (w + max(0, D) + hi_j) 2^-j]
    with lo_j = ln/ld and hi_j = hn/hd the extrema of the shifted function;
    a prefix survives while y = a/b is within 2^-e of that window, with
    e = 2 ceil(j/2) + 1.  Scaled by b, ld or hd and 2^e, both tests are
    integer comparisons (k = b 2^(e-j)):

        ((w + min(0, D)) ld + ln) k <= ld (a 2^e + b),
        ((w + max(0, D)) hd + hn) k >= hd (a 2^e - b),

    and a hump at j = 2m hits when a 2^(j+1) lies between 2 w b and
    (2 w + r_j) b, both ends included.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    a, b = y.numerator, y.denominator
    depth_cap = 2 * max_order
    depths = range(depth_cap + 2)
    scaled_y = [a << j for j in depths]  # y 2^j b
    terms = [signs.term(j) for j in depths]
    # Per length j, the window tests as (w + min(0, D)) * low_k[j] <= low_c[j]
    # and (w + max(0, D)) * high_k[j] >= high_c[j].
    low_k, low_c, high_k, high_c = [], [], [], []
    for j, (lo, hi) in enumerate(_suffix_extrema_table(signs, depth_cap + 1)):
        e = 2 * ((j + 1) // 2) + 1
        k = b << (e - j)
        low_k.append(lo.denominator * k)
        low_c.append(lo.denominator * ((a << e) + b) - lo.numerator * k)
        high_k.append(hi.denominator * k)
        high_c.append(hi.denominator * ((a << e) - b) - hi.numerator * k)
    word = DigitWord(signs=signs)
    count = 0
    # Depth-first on an explicit stack, so orders in the thousands are fine:
    # (word length before the edge, that edge's digit); the root has no edge.
    stack: list[tuple[int, Optional[int]]] = [(0, None)]
    while stack:
        depth, bit = stack.pop()
        while len(word) > depth:
            word.pop()
        if bit is not None:
            word.push(bit)
            depth += 1
        d, w = word.slope, word.scaled_value
        low, high = w + min(0, d), w + max(0, d)
        if low * low_k[depth] > low_c[depth] or high * high_k[depth] < high_c[depth]:
            continue
        if depth % 2 == 0 and d == 0:
            end = 2 * w * b
            other = end + terms[depth] * b
            if min(end, other) <= scaled_y[depth + 1] <= max(end, other):
                count += 1
        if depth == depth_cap:
            continue
        r = terms[depth]
        for bit in (1, 0):
            if d + (r if bit == 0 else -r) >= 0:  # leading only
                stack.append((depth, bit))
    return count


def expected_local_window(signs: SignSequence, max_order: int) -> Fraction:
    """Truncated expected number of local level sets per unit ordinate.

    sum_{m<=M} C_m (1/2) 4^-m divided by the exact height; the full series
    sums to 1, so the value sits in [3/2 * (1 - tail), 2] with
    tail = sum_{m>M} C_m 4^-m / 2 — the finite shadow of "between 3/2 and 2".
    """
    partial = sum(Fraction(catalan(m), 1 << (2 * m)) for m in range(max_order + 1)) / 2
    return partial / signed_extrema(signs).height
