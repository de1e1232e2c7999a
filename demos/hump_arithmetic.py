#!/usr/bin/env python3
"""Humps, Catalan numbers, and three series with very different fates."""

from math import comb

from takagi.humps import ROOT_HUMP, analyze_word, census, count_balanced
from takagi.stats import (
    catalan,
    catalan_series_partial,
    expected_cardinality_series_partial,
    expected_local_series_partial,
)

# The graph over [0,1] is tiled by shrunken affine copies of itself, one per
# balanced binary word (as many 0s as 1s).  The word picks the corner, the
# walk it traces fixes the box.

w = (0, 1)
hump = analyze_word(w)
print(f"word 01 -> corner {hump.corner}, box {hump.x_interval} x {hump.y_projection}")
print(f"root hump for comparison:       box {ROOT_HUMP.x_interval} x {ROOT_HUMP.y_projection}")
print()

# Counting them is pure lattice-path combinatorics: binom(2m, m) humps of
# order m, of which the Catalan number C_m stay "leading" (walk never dips
# below zero).  The package counts the walks; the closed forms must agree.

print(f"{'m':>2} {'humps':>8} {'binom':>8} {'leading':>8} {'catalan':>8}")
for m in range(9):
    total, leading = census(m)
    assert total == comb(2 * m, m) and leading == catalan(m)
    print(f"{m:>2} {total:>8} {comb(2 * m, m):>8} {leading:>8} {catalan(m):>8}")
print()

# Generation 1 = humps that return to axis level for the first time at their
# own corner; first-return paths, so 2 * C_{m-1} of them.
for m in range(1, 6):
    gen1 = count_balanced(m, generation=1)
    assert gen1 == 2 * catalan(m - 1)
print("generation-1 counts match 2 * C_(m-1) for m = 1..5")
print()

# Three series built on the same Catalan weights C_m / 4^m:
#   S(M)            -> 2          (the hump-measure normalizer)
#   (3/4) * S(M)    -> 3/2        (mean number of local clusters)
#   sum of C_m 2^-m -> infinity   (mean cardinality diverges)
print(f"{'M':>6} {'S(M)':>10} {'local':>10} {'cardinality':>12}")
for M in (1, 4, 16, 64, 1024, 10_000):
    print(
        f"{M:>6} {catalan_series_partial(M):>10.6f} "
        f"{expected_local_series_partial(M):>10.6f} "
        f"{expected_cardinality_series_partial(M):>12.3f}"
    )
print()
print("S and the local mean settle at 2 and 1.5; the cardinality column is")
print("still climbing at M = 10^4 and never stops — the average level set")
print("is infinite even though a typical one has exactly two points.")
