#!/usr/bin/env python3
"""A walking tour of level sets: two points, four points, infinity and beyond.

Every number printed here is exact.  The classifier decides, for any
rational ordinate y, whether the horizontal line at height y cuts the curve
in finitely many points (and if so, exactly which), in countably many, or in
a full Cantor set's worth.
"""

from fractions import Fraction

from takagi.curve import eval_rational
from takagi.machine import Verdict, classify
from takagi.stats import grid_experiment


def show(y: Fraction) -> None:
    report = classify(y)
    line = f"y = {y}: {report.verdict.value}"
    if report.verdict is Verdict.FINITE:
        line += f", {report.cardinality} preimages in {report.n_local} local cluster(s)"
    print(line)
    if report.preimages is not None:
        for x in report.preimages:
            check = eval_rational(x)
            print(f"    T({x}) = {check}  {'ok' if check == y else 'WRONG'}")
    elif report.witness_preimage is not None:
        print(f"    witness: T({report.witness_preimage}) = {eval_rational(report.witness_preimage)}")


print("-- the easy endpoints " + "-" * 40)
show(Fraction(0))          # only 0 and 1 land on the x-axis
show(Fraction(2, 3))       # the global maximum: a Cantor set of preimages

print()
print("-- small finite sets " + "-" * 41)
show(Fraction(1, 8))       # the classic two-point level
show(Fraction(7, 12))      # four points, still one local cluster

print()
print("-- the first split cluster " + "-" * 35)
# Scanning ordinates j/(3*4^4) upward, j = 193 is the first whose finite
# level set breaks into TWO local clusters: six points, grouped 4 + 2.
show(Fraction(193, 768))

print()
print("-- countable infinity " + "-" * 40)
# Heights attained at a dyadic rational have infinite level sets; the
# classifier hands back one dyadic witness instead of a list.
show(Fraction(1, 2))

print()
print("-- a census of the depth-2 lattice " + "-" * 27)
report = grid_experiment(2)
for verdict, count in report.verdict_counts.items():
    print(f"{verdict:>20}: {count:3d} of {report.ordinate_count}")
print(f"{'two-point share':>20}: {report.fraction_cardinality_two:.3f} of the finite ones")
