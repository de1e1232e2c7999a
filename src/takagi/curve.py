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
Fraction is built only when a value is read, and a whole integer word is
walked a nibble at a time from a table (:func:`_walk`).  From the walk one
also gets a closed form on eventually periodic expansions, i.e. exact values
at every rational (one integer expression read off the walks of the
preperiod and one aligned period), and certified two-sided truncation error
at any depth.

The same walk with step i weighted by a sign r_{i-1} = +-1 computes the
signed relatives f_r = sum_n r_n 2^-n dist(2^n x, Z) of :mod:`takagi.signed`:
D moves by +r_{i-1} on a 0 and by -r_{i-1} on a 1, and
w_i = 2 w_{i-1} + eps_i (D_{i-1} + r_{i-1}).
Every evaluator here (``eval_rational``, ``eval_dyadic``,
``d_expression_residual``) takes the signs, with T as the all-plus case and
the default, so each computation has one implementation for the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

from .rationals import MAX_EVAL_DIGITS, ZERO, _expansion_words, _word_numerator, to_binary

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

    @cached_property
    def _minus_words(self) -> tuple[int, int]:
        """Preperiod and period as integers, a 1 per minus sign, leading first."""
        return tuple(_word_numerator(s < 0 for s in run) for run in (self.preperiod, self.period))


ALL_PLUS = SignSequence((), (1,))
ALTERNATING = SignSequence((), (1, -1))


def _nibble_step(i: int) -> tuple[int, int]:
    """(w, D) from the zero state over the 4 digits in the low bits of i
    under the 4 signs in its high bits (1 = minus), leading digit first."""
    w = d = 0
    for b in (3, 2, 1, 0):
        r = 1 - 2 * (i >> (b + 4) & 1)
        w, d = (2 * w + d + r, d - r) if i >> b & 1 else (2 * w, d + r)
    return w, d


_NIBBLE_STEPS = [_nibble_step(i) for i in range(256)]
_HEX = b"0123456789abcdef"
_NIBBLES = bytes.maketrans(_HEX, bytes(range(16)))  # a hex digit's nibble n
_SIGN_NIBBLES = bytes.maketrans(_HEX, bytes(range(0, 256, 16)))  # 16 n


def _walk(word: int, sign_word: int, length: int) -> tuple[int, int]:
    """(w, D) from the zero state over the ``length`` digits of ``word``,
    leading digit first, each step signed by the matching bit of
    ``sign_word`` (1 = minus), both below 2^length: the digit walk of the
    module docstring, step i weighted by its sign r_{i-1}, a nibble at a
    time.

    Four steps from (w, D) end at (16 w + D n + w_n, D + D_n), where n is
    the nibble's value and (w_n, D_n) its walk from the zero state, tabled
    for every 4 signs and 4 digits.  From D = -pad, leading 0-digits under
    + signs reach the zero state: that pads the length to whole nibbles.
    """
    width = length // 4 + 1  # 1 to 4 pad digits, so the hex strings are never empty
    digits = f"{word:0{width}x}".encode().translate(_NIBBLES)
    signs = f"{sign_word:0{width}x}".encode().translate(_SIGN_NIBBLES)
    w, d = 0, length - 4 * width
    for s, n in zip(signs, digits):
        step_w, step_d = _NIBBLE_STEPS[s | n]
        w = (w << 4) + d * n + step_w
        d += step_d
    return w, d


def _prefix_word(head: int, k: int, c: int, p: int, n: int) -> int:
    """The first n digits of the sequence head (c)^inf as an integer, with k
    digits in ``head`` and p >= 1 in ``c``: the tail past the head is the
    top of c (2^(p reps) - 1) / (2^p - 1), c repeated."""
    if n <= k:
        return head >> (k - n)
    reps = -(-(n - k) // p)
    run = c * ((1 << reps * p) - 1) // ((1 << p) - 1)
    return (head << (n - k)) | (run >> (reps * p - (n - k)))


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
    self-affinity, closes the tail.  The digits and signs of the q + P
    positions are built as integers, the head and the block are each walked
    from the zero state (:func:`_walk`), and with m = 2^P - 1 and the
    block's numerator c (t = c / m), over the integers:

        f(x) = ((w_q m + D_q c + w_c) m + D_c c) / (m^2 2^q),

    one Fraction at the end, e.g. T(1/3) = 2/3, T(1/6) = 1/2, T(1/5) = 8/15.
    Walks longer than :data:`MAX_EVAL_DIGITS` digits raise ValueError.
    """
    if not 0 <= x.numerator <= x.denominator:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if x.numerator == x.denominator:
        return ZERO
    k, head, p, period_word = _expansion_words(x)
    if p:
        q, block = max(k, signs.transient), lcm(p, signs.period_length)
    else:
        q, block = k, 0
    if q + block > MAX_EVAL_DIGITS:
        raise ValueError(
            f"the expansion needs a walk of {q + block} digits, over the limit of {MAX_EVAL_DIGITS}"
        )
    word = _prefix_word(head, k, period_word, p, q + block) if p else head
    minus_pre, minus_per = signs._minus_words
    sign_word = _prefix_word(minus_pre, signs.transient, minus_per, signs.period_length, q + block)
    w_q, d_q = _walk(word >> block, sign_word >> block, q)
    if not block:
        return Fraction(w_q, 1 << q)
    m = (1 << block) - 1
    c = word & m
    w_c, d_c = _walk(c, sign_word & m, block)
    return Fraction((w_q * m + d_q * c + w_c) * m + d_c * c, m * m << q)


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
    w, d = _walk(head, 0, depth)
    value = Fraction(w, 1 << depth)
    if not rest:
        return value, ZERO
    return value, (abs(d) + TWO_THIRDS) / (1 << depth)


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
    digits = to_binary(x).digits(terms + 1)
    # after step n: d = D_n and acc = 2^terms sum_{j<=n} (-1)^(eps_{j+1}) D_j 2^-j
    acc = d = 0
    for n in range(1, terms + 1):
        r = signs.term(n - 1)
        d += -r if digits[n - 1] else r
        acc += (-d if digits[n] else d) << (terms - n)
    partial = signed_constant(signs) - Fraction(acc, 4 << terms)
    return abs(eval_rational(x, signs) - partial)
