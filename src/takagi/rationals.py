"""Exact rational scaffolding: binary expansions, "p/q" parsing and formatting.

Everything downstream works with :class:`fractions.Fraction` values of any
denominator.  :func:`to_binary` gives the canonical eventually periodic
expansion of a rational, refused past :data:`MAX_EVAL_DIGITS` digits, and
:func:`ordinate_depth` reads the depth tag of the state machine off the
2-adic valuation of an ordinate's denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

ZERO = Fraction(0)

#: Most digits an expansion may have (preperiod plus period), and so most
#: digits an exact evaluation walks: the walk's state w_j has about j bits,
#: so memory grows linearly and time with the square of the walk's length.
MAX_EVAL_DIGITS = 2**15


def split_denominator(x: Fraction) -> tuple[int, int]:
    """Return (k, odd) with denominator(x) = 2^k * odd, odd odd."""
    den = x.denominator
    k = (den & -den).bit_length() - 1
    return k, den >> k


def ordinate_depth(y: Fraction) -> int:
    """(k + 1) // 2 for den(y) = 2^k * odd: the depth tag of the state machine.

    For den = 2^k or 3*2^k, after 2n doubling steps (n the depth) the
    classification walk lands on a lattice where the rescaled offset is an
    integer (dyadic y) or has denominator exactly three.  Other odd parts
    get the same tag from k alone.  Examples: depth(1/8) = 2,
    depth(2/3) = 0, depth(3/128) = 4, depth(7/20) = 1.
    """
    k, _ = split_denominator(y)
    return (k + 1) // 2


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Render as 'p/q' (always with the slash, so 0 -> '0/1')."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class BinaryExpansion:
    """Eventually periodic binary expansion 0.u(c)^inf of a rational in [0, 1].

    Any preperiod u and period c are allowed, so one rational can have
    several expansions: 0.0000000000(0110) and 0.000000000(0011) are both
    1/2560, and x = 1 is the pure period (1,).  :func:`to_binary` returns the
    canonical one.  A terminating (dyadic) expansion has an empty period, and
    digits past the end are read as zeros — the all-zeros tail convention
    used throughout.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def digit(self, i: int) -> int:
        """i-th binary digit, 1-based."""
        if i < 1:
            raise IndexError("digits are 1-based")
        q = len(self.preperiod)
        if i <= q:
            return self.preperiod[i - 1]
        if not self.period:
            return 0
        return self.period[(i - q - 1) % len(self.period)]

    def digits(self, count: int) -> tuple[int, ...]:
        """First ``count`` digits."""
        return tuple(self.digit(i) for i in range(1, count + 1))

    @property
    def is_terminating(self) -> bool:
        return not self.period

    def value(self) -> Fraction:
        """(head (2^p - 1) + period) / ((2^p - 1) 2^q), or head / 2^q when p = 0."""
        q, p = len(self.preperiod), len(self.period)
        head = _word_numerator(self.preperiod)
        if not p:
            return Fraction(head, 1 << q)
        m = (1 << p) - 1
        return Fraction(head * m + _word_numerator(self.period), m << q)

    def render(self) -> str:
        """Human form: '0.101', '0.(01)', '0.0(01)'."""
        head = "".join(map(str, self.preperiod))
        if not self.period:
            return f"0.{head}" if head else "0."
        cyc = "".join(map(str, self.period))
        return f"0.{head}({cyc})"


# the bytes 0 and 1 to the characters "0" and "1", every other byte to "2"
_BINARY_DIGITS = b"01" + b"2" * 254
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # "0" and "1" back to the bytes 0 and 1


def _word_numerator(word: Iterable[int]) -> int:
    """The integer whose binary digits are ``word``: (1, 0, 1) -> 5.
    Digits may be ints or bools; any other digit raises ValueError."""
    text = bytes(word).translate(_BINARY_DIGITS)
    return int(text, 2) if text else 0


def _word_digits(n: int, width: int) -> tuple[int, ...]:
    """The ``width`` binary digits of 0 <= n < 2^width: (5, 4) -> (0, 1, 0, 1)."""
    return tuple(f"{n:0{width}b}".encode().translate(_DIGIT_BYTES)) if width else ()


@lru_cache(maxsize=1024)
def _period_of_two(odd: int) -> int:
    """The order of 2 modulo the odd number ``odd`` > 1: the least p >= 1 with
    2^p = 1 (mod odd), the period of every fraction c / odd in lowest terms.
    Kept across calls; an order over :data:`MAX_EVAL_DIGITS` raises
    ValueError, which is never kept."""
    p, r = 1, 2 % odd
    while r != 1:
        if p == MAX_EVAL_DIGITS:
            raise ValueError(f"the expansion has more than {MAX_EVAL_DIGITS} digits")
        p, r = p + 1, (r << 1) % odd
    return p


def _expansion_words(x: Fraction) -> tuple[int, int, int, int]:
    """The canonical expansion of x in [0, 1) as integers (k, head, p, c):
    x = (head + c / (2^p - 1)) / 2^k, the k-digit preperiod ``head`` and the
    p-digit period ``c``.  With den(x) = 2^k * odd and (head, start) =
    divmod(num, odd), p is the order of 2 mod odd (:func:`_period_of_two`,
    0 when odd = 1), since gcd(start, odd) = 1, and c = start (2^p - 1) / odd
    exactly.  Expansions of more than :data:`MAX_EVAL_DIGITS` digits raise
    ValueError.
    """
    if not 0 <= x.numerator < x.denominator:
        raise ValueError(f"expansion needs 0 <= x < 1, got {x}")
    k, odd = split_denominator(x)
    head, start = divmod(x.numerator, odd)
    p = _period_of_two(odd) if odd > 1 else 0
    if k + p > MAX_EVAL_DIGITS:
        raise ValueError(f"the expansion has more than {MAX_EVAL_DIGITS} digits")
    return k, head, p, start * ((1 << p) - 1) // odd


def to_binary(x: Fraction) -> BinaryExpansion:
    """Canonical binary expansion of any rational in [0, 1).

    With den(x) = 2^k * odd, the preperiod is the k-digit binary of
    num // odd, and the period is the long division of r = num % odd by
    odd, which ends when r first comes back, e.g. 5/8 -> 0.101,
    1/3 -> 0.(01), 1/6 -> 0.0(01).  The preperiod is minimal and the period
    primitive; both are unique, so equal rationals always produce identical
    expansions.  The digits of :func:`_expansion_words`, with its refusals.
    """
    k, head, p, c = _expansion_words(x)
    return BinaryExpansion(_word_digits(head, k), _word_digits(c, p))
