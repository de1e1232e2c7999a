"""Exact rational scaffolding: supported denominators and binary expansions.

Everything downstream works with :class:`fractions.Fraction` values that are
either dyadic (denominator a power of two) or a power of two times three.
Those are exactly the denominators for which the classification machinery
stays on a finite lattice; general rationals are still allowed where a
function explicitly says so (plain curve evaluation does not care).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)


class UnsupportedDenominatorError(ValueError):
    """Raised when an ordinate's reduced denominator is not 2^k or 3*2^k."""


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


def split_denominator(x: Fraction) -> tuple[int, int]:
    """Return (k, odd) with denominator(x) = 2^k * odd, odd odd."""
    den = x.denominator
    k = (den & -den).bit_length() - 1
    return k, den >> k


def is_supported(x: Fraction) -> bool:
    """True when the reduced denominator is a power of two or three times one."""
    _, odd = split_denominator(x)
    return odd in (1, 3)


def make_rational(numerator: int, denominator: int = 1) -> Fraction:
    """Build a supported rational, reducing first: make_rational(2, 48) == 1/24.

    Raises :class:`UnsupportedDenominatorError` if the reduced denominator is
    not of the form 2^k or 3 * 2^k (so make_rational(1, 5) fails even though
    the curve itself is defined there).
    """
    x = Fraction(numerator, denominator)
    return require_supported(x)


def require_supported(value: RationalLike) -> Fraction:
    x = _as_fraction(value)
    if not is_supported(x):
        raise UnsupportedDenominatorError(
            f"denominator {x.denominator} is not 2^k or 3*2^k (value {x})"
        )
    return x


def ordinate_depth(y: RationalLike) -> int:
    """Dyadic depth n of a supported ordinate: den = 2^k or 3*2^k -> (k+1)//2.

    After n doubling steps the classification walk lands on a lattice where
    the rescaled offset is an integer (dyadic y) or has denominator exactly
    three.  Examples: depth(1/8) = 2, depth(2/3) = 0, depth(3/128) = 4.
    """
    y = require_supported(y)
    k, _ = split_denominator(y)
    return (k + 1) // 2


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction (no supportedness check)."""
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
        q, p = len(self.preperiod), len(self.period)
        head = _word_numerator(self.preperiod)
        total = Fraction(head, 1 << q) if q else ZERO
        if p:
            tail = Fraction(_word_numerator(self.period), (1 << p) - 1)
            total += tail / (1 << q)
        return total

    def render(self) -> str:
        """Human form: '0.101', '0.(01)', '0.0(01)'."""
        head = "".join(map(str, self.preperiod))
        if not self.period:
            return f"0.{head}" if head else "0."
        cyc = "".join(map(str, self.period))
        return f"0.{head}({cyc})"


def _word_numerator(word: Iterable[int]) -> int:
    """The integer whose binary digits are ``word``: (1, 0, 1) -> 5."""
    n = 0
    for b in word:
        n = (n << 1) | b
    return n


def to_binary(x: Fraction) -> BinaryExpansion:
    """Canonical binary expansion of any rational in [0, 1) by long division.

    The first repeated remainder marks the preperiod and the cycle of
    remainders gives the period, e.g. 5/8 -> 0.101, 1/3 -> 0.(01),
    1/6 -> 0.0(01).  The preperiod is minimal and the period primitive; both
    are unique, so equal rationals always produce identical expansions.
    """
    if not 0 <= x < 1:
        raise ValueError(f"expansion needs 0 <= x < 1, got {x}")
    num, den = x.numerator, x.denominator
    digits: list[int] = []
    seen: dict[int, int] = {}
    r = num
    while r and r not in seen:
        seen[r] = len(digits)
        r <<= 1
        d, r = divmod(r, den)
        digits.append(d)
    if not r:
        return BinaryExpansion(tuple(digits), ())
    start = seen[r]
    return BinaryExpansion(tuple(digits[:start]), tuple(digits[start:]))
