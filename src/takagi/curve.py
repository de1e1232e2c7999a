"""Exact evaluation of the blancmange curve T(x) = sum_n 2^-n dist(2^n x, Z).

The workhorse is the digit walk: reading binary digits eps_1 eps_2 ... of x,
the running slope D_j = #zeros - #ones among the first j digits is the slope
of the degree-j piecewise-linear truncation on the dyadic interval containing
x, and the exact value at the truncated point updates in O(1) per digit:

    v_j = v_{j-1} + eps_j * (D_{j-1} + 1) / 2^j.

Appending digit 0 leaves the value unchanged (the new breakpoint sits at the
left end); appending 1 crosses the tent of every earlier level plus the new
one, which is what the (D + 1) accounts for.  The walk itself runs on
integers: w_j = v_j 2^j obeys w_j = 2 w_{j-1} + eps_j (D_{j-1} + 1), and a
Fraction is built only when a value is read.  From the walk one also gets a
closed form on eventually periodic expansions, i.e. exact values at every
rational (one integer expression read off one word over the preperiod and
one period), and certified two-sided truncation error at any depth.

The same walk with step i weighted by a sign r_{i-1} = +-1 computes the
signed relatives f_r = sum_n r_n 2^-n dist(2^n x, Z) of :mod:`takagi.signed`.
Every evaluator here (``eval_rational``, ``eval_dyadic``,
``d_expression_residual``) takes the signs, with T as the all-plus case and
the default, so each computation has one implementation for the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, islice
from math import lcm
from typing import Iterable, Sequence

from .rationals import MAX_EVAL_DIGITS, ZERO, _word_digits, _word_numerator, to_binary

HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)


def triangle_wave(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer."""
    f = x - (x.numerator // x.denominator)
    return min(f, 1 - f)


def _canonical(preperiod: tuple[int, ...], period: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # primitive period
    p = len(period)
    for d in range(1, p + 1):
        if p % d == 0 and period == period[:d] * (p // d):
            period = period[:d]
            break
    # minimal preperiod: absorb matching tail signs into the rotation
    preperiod = tuple(preperiod)
    while preperiod and preperiod[-1] == period[-1]:
        preperiod = preperiod[:-1]
        period = (period[-1],) + period[:-1]
    return preperiod, period


@dataclass(frozen=True)
class SignSequence:
    """Eventually periodic sequence of +-1 signs, canonicalized on creation.

    ``term(n)`` is r_n (0-based).  Construction normalizes to the primitive
    period and minimal preperiod, so equal sequences compare equal.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(s not in (-1, 1) for s in self.preperiod + self.period):
            raise ValueError("signs must be +1 or -1")
        pre, per = _canonical(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def parse(cls, period: str, preperiod: str = "") -> "SignSequence":
        """Build from '+'/'-' strings, e.g. parse("++-") or parse("+-", "+")."""
        def decode(text: str) -> tuple[int, ...]:
            out = []
            for ch in text:
                if ch == "+":
                    out.append(1)
                elif ch == "-":
                    out.append(-1)
                else:
                    raise ValueError(f"sign string may contain only + and -: {text!r}")
            return tuple(out)

        return cls(decode(preperiod), decode(period))

    def __str__(self) -> str:
        render = lambda signs: "".join("+" if s > 0 else "-" for s in signs)
        head = render(self.preperiod)
        return f"{head}({render(self.period)})" if head else f"({render(self.period)})"

    def term(self, n: int) -> int:
        if n < 0:
            raise IndexError("sign index must be >= 0")
        q = len(self.preperiod)
        if n < q:
            return self.preperiod[n]
        return self.period[(n - q) % len(self.period)]

    def shift(self, k: int) -> "SignSequence":
        """The sequence (r_k, r_{k+1}, ...)."""
        q = len(self.preperiod)
        if k <= q:
            return SignSequence(self.preperiod[k:], self.period)
        r = (k - q) % len(self.period)
        return SignSequence((), self.period[r:] + self.period[:r])

    def flipped(self) -> "SignSequence":
        return SignSequence(
            tuple(-s for s in self.preperiod), tuple(-s for s in self.period)
        )

    @property
    def transient(self) -> int:
        return len(self.preperiod)

    @property
    def period_length(self) -> int:
        return len(self.period)

    @property
    def drift(self) -> int:
        """Net movement of the sign walk over one period."""
        return sum(self.period)


ALL_PLUS = SignSequence((), (1,))
ALTERNATING = SignSequence((), (1, -1))


class DigitWord:
    """A finite binary word with its slope walk and exact partial values.

    Step i is weighted by the sign r_{i-1}: D moves by +r_{i-1} on a 0 and by
    -r_{i-1} on a 1, and v_i = v_{i-1} + eps_i (D_{i-1} + r_{i-1}) / 2^i.
    The default all-plus signs give the curve T itself; other signs give the
    signed relatives of :mod:`takagi.signed`.

    The walk runs on integers: it keeps w_i = v_i 2^i, which obeys

        w_i = 2 w_{i-1} + eps_i (D_{i-1} + r_{i-1}),

    and reads r_{i-1} straight off the sign sequence's preperiod and period.
    Push/pop are O(1), which makes this the right carrier for depth-first
    searches over words.  ``scaled_value`` is w_k; ``value`` is the exact
    function value w_k / 2^k at the dyadic point 0.eps_1...eps_k (all series
    terms beyond the word vanish there), built as a Fraction only on read.
    """

    __slots__ = ("signs", "_digits", "_slopes", "_scaled")

    def __init__(self, digits: Iterable[int] = (), signs: SignSequence = ALL_PLUS) -> None:
        self.signs = signs
        self._digits: list[int] = []
        self._slopes: list[int] = [0]
        self._scaled: list[int] = [0]
        for bit in digits:
            self.push(bit)

    def push(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError(f"binary digit expected, got {bit!r}")
        i = len(self._digits)
        head, period = self.signs.preperiod, self.signs.period
        r = head[i] if i < len(head) else period[(i - len(head)) % len(period)]
        d = self._slopes[-1]
        w = self._scaled[-1] << 1
        if bit:
            w += d + r
            d -= r
        else:
            d += r
        self._digits.append(bit)
        self._slopes.append(d)
        self._scaled.append(w)

    def pop(self) -> int:
        bit = self._digits.pop()
        self._slopes.pop()
        self._scaled.pop()
        return bit

    def __len__(self) -> int:
        return len(self._digits)

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self._digits)

    @property
    def slope(self) -> int:
        """D_k over the whole word (#zeros - #ones when all signs are plus)."""
        return self._slopes[-1]

    def slope_at(self, j: int) -> int:
        """D_j for 0 <= j <= len(word)."""
        return self._slopes[j]

    @property
    def scaled_value(self) -> int:
        """w_k = 2^k times the value at the word's dyadic point."""
        return self._scaled[-1]

    @property
    def value(self) -> Fraction:
        """Exact function value at the word's dyadic point."""
        return Fraction(self._scaled[-1], 1 << len(self._digits))

    def point(self) -> Fraction:
        """The dyadic rational 0.eps_1...eps_k."""
        return Fraction(_word_numerator(self._digits), 1 << len(self._digits))


def walk_of(digits: Sequence[int]) -> tuple[int, ...]:
    """Slope walk D_1..D_k of a word (D_j = sum of +1 for 0, -1 for 1)."""
    word = DigitWord(digits)
    return tuple(word.slope_at(j) for j in range(1, len(word) + 1))


def eval_dyadic(x: Fraction, signs: SignSequence = ALL_PLUS) -> Fraction:
    """The function at a dyadic rational in [0, 1], exactly, via the digit walk."""
    if x.denominator & (x.denominator - 1):
        raise ValueError(f"{x} is not dyadic")
    return eval_rational(x, signs)


def eval_rational(x: Fraction, signs: SignSequence = ALL_PLUS) -> Fraction:
    """The function at any rational in [0, 1] — general denominators welcome.

    Dyadic arguments terminate.  Otherwise both periodicities align past
    q = max(expansion preperiod, sign transient): a block of
    P = lcm(digit period, sign period) digits repeats with the same signs, so
    with t = 0.(c)^inf the block's value, F = 2^-P (w_c + D_c t + F) by
    self-affinity, closes the tail.  One word walks all q + P digits; with
    m = 2^P - 1 and the block's numerator c (t = c / m), over the integers:

        f(x) = ((w_{q+P} - w_q) m + (D_{q+P} - D_q) c) / (m^2 2^q),

    one Fraction at the end, e.g. T(1/3) = 2/3, T(1/6) = 1/2, T(1/5) = 8/15.
    Walks longer than :data:`MAX_EVAL_DIGITS` digits raise ValueError.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if x == 1:
        return ZERO
    expansion = to_binary(x)
    if expansion.is_terminating:
        q, block = len(expansion.preperiod), 0
    else:
        q = max(len(expansion.preperiod), signs.transient)
        block = lcm(len(expansion.period), signs.period_length)
    if q + block > MAX_EVAL_DIGITS:
        raise ValueError(
            f"the expansion needs a walk of {q + block} digits, over the limit of {MAX_EVAL_DIGITS}"
        )
    digits = tuple(islice(chain(expansion.preperiod, cycle(expansion.period)), q + block))
    word = DigitWord(digits[:q], signs)
    if not block:
        return word.value
    w_q, d_q = word.scaled_value, word.slope
    for bit in digits[q:]:
        word.push(bit)
    m = (1 << block) - 1
    c = _word_numerator(digits[q:])
    numerator = (word.scaled_value - w_q) * m + (word.slope - d_q) * c
    return Fraction(numerator, m * m << q)


def eval_approx(x: Fraction, depth: int) -> tuple[Fraction, Fraction]:
    """Value at the depth-digit truncation of x, with a certified error bound.

    Returns (T(x_n), bound) where x_n keeps the first ``depth`` digits and
    |T(x) - T(x_n)| <= bound = (|D_n| + 2/3) * 2^-n.  The bound is per-input:
    a blanket 2^(1-n) would be wrong near 0, where D_n ~ n.  When the
    expansion terminates within ``depth`` digits the truncation is exact and
    the bound is 0.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if x == 1:
        return ZERO, ZERO
    head, rest = divmod(x.numerator << depth, x.denominator)
    word = DigitWord(_word_digits(head, depth))
    if not rest:
        return word.value, ZERO
    bound = (abs(word.slope) + TWO_THIRDS) / (1 << depth)
    return word.value, bound


def signed_constant(signs: SignSequence = ALL_PLUS) -> Fraction:
    """C(r) = sum_n r_n 2^-(n+2), exactly: 1/2 for all-plus, 1/6 alternating."""
    head = sum(Fraction(s, 1 << n) for n, s in enumerate(signs.preperiod))
    block = sum(Fraction(s, 1 << i) for i, s in enumerate(signs.period))
    tail = block / (1 << signs.transient) / (1 - Fraction(1, 1 << signs.period_length))
    return (head + tail) / 4


def d_expression_residual(x: Fraction, terms: int, signs: SignSequence = ALL_PLUS) -> Fraction:
    """Defect of the partial slope-series identity at x, truncated after ``terms``.

    The identity f(x) = C(r) - (1/4) sum_{n>=1} (-1)^(eps_{n+1}) D_n 2^-n,
    with C = 1/2 for T (:func:`signed_constant`), holds for every x in
    [0, 1); the returned residual |f(x) - partial sum| obeys
    residual <= (terms + 2) * 2^-terms whatever the signs, since |D_n| <= n
    (for T at x = 0 exactly a quarter of that, which the tests pin down).
    Needs digits up to eps_{terms+1}.
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
    return abs(eval_rational(x, signs) - partial)
