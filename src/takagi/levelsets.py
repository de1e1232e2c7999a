"""Local level sets at the word level: partner words and their count.

Two prefixes belong to the same local level set when their slope walks
agree in absolute value, and the partners of a word are produced by flipping
whole blocks between returns of the walk to zero.  Classification itself
(state graph, verdicts, exact preimages and the number of local level sets
of a finite L(y)) lives in :mod:`takagi.machine`.
"""

from __future__ import annotations

from typing import Sequence

from .curve import DigitWord


def _zero_positions(word: DigitWord) -> list[int]:
    # Positions j < len with D_j = 0; j = 0 always qualifies, so every word
    # has at least one flippable block.
    return [j for j in range(len(word)) if word.slope_at(j) == 0]


def local_partners(word: Sequence[int]) -> list[tuple[int, ...]]:
    """All words sharing the |D_j| profile of ``word``, sorted.

    Between consecutive zeros of the slope walk the sign of D is constant,
    so the digits there can only be kept or complemented wholesale; each of
    the 2^blocks choices is a partner and nothing else is.
    Examples: "01" -> {01, 10}; "0110" -> {0101, 0110, 1001, 1010}.
    """
    w = DigitWord(word)
    n = len(w)
    starts = _zero_positions(w)
    bounds = starts + [n]
    digits = list(w.digits)
    partners = set()
    for mask in range(1 << len(starts)):
        candidate = digits[:]
        for i in range(len(starts)):
            if mask >> i & 1:
                for k in range(bounds[i], bounds[i + 1]):
                    candidate[k] ^= 1
        partners.add(tuple(candidate))
    return sorted(partners)


def local_partner_count(word: Sequence[int]) -> int:
    """2^(number of blocks) without materializing the partner list."""
    return 1 << len(_zero_positions(DigitWord(word)))
