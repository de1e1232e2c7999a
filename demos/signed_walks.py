#!/usr/bin/env python3
"""Reweighting the series with signs: extrema via first-passage times."""

import random
from fractions import Fraction

from takagi.curve import eval_rational, signed_constant
from takagi.signed import (
    ALL_PLUS,
    ALTERNATING,
    SignSequence,
    first_passage,
    first_passages,
    signed_extrema,
)

FLAGSHIPS = [ALL_PLUS, ALTERNATING, SignSequence.parse("++-"), SignSequence.parse("+--")]

# Attach a sign r_n to each term of the series.  The maximum of the result is
# controlled by how fast the sign partial sums climb: each level j > 0 that
# the sums reach contributes 2^-tau_j, where tau_j is the first-passage time.

for signs in FLAGSHIPS:
    e = signed_extrema(signs)
    print(f"{str(signs):>8}: max {e.maximum}  min {e.minimum}  height {e.height}")
print()

# The alternating sequence never reaches level 3 — its sums oscillate 1, 0,
# 1, 0, ...  The progression records that as an explicit None.
prog = first_passages(ALTERNATING, 1)
print(f"alternating passages: levels {prog.levels} at times {prog.times}")
prog = first_passages(SignSequence.parse("++-"), 1)
print(f"(++-) passages:       levels {prog.levels} at times {prog.times},")
print(f"                      then arithmetic: +{prog.level_stride} level per +{prog.time_stride} steps")
assert first_passage(SignSequence.parse("++-"), 7) == 17
print()

# Whatever the signs, the oscillation band has height between 1/2 and 2/3:
# no sign pattern can flatten the curve below 1/2 or stretch it past the
# unsigned 2/3.
rng = random.Random(8128)
lo = hi = None
for _ in range(500):
    period = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 8)))
    height = signed_extrema(SignSequence((), period)).height
    lo = height if lo is None or height < lo else lo
    hi = height if hi is None or height > hi else hi
print(f"500 random periodic sign patterns: heights span [{lo}, {hi}]")
assert Fraction(1, 2) <= lo and hi <= Fraction(2, 3)
print()

# Each sequence also owns a constant C(r) = sum r_n / 2^(n+2), the mean of
# the signed curve's endpoint slopes; a few exact values:
for signs in FLAGSHIPS:
    v = eval_rational(Fraction(1, 3), signs)
    print(f"{str(signs):>8}: C = {signed_constant(signs)},  f(1/3) = {v}")
