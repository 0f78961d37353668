#!/usr/bin/env python3
"""Exact slope-stability verdicts on decomposable curve fixtures.

Fixtures are direct sums of line bundles with integer Chern numbers and a
combinatorial section support; every inequality is decided in rational
arithmetic over the finite lattice of summand subsheaves, and random
multi-step weight vectors always decompose over the two-eigenvalue
generators, which is what keeps the verdicts finite.
"""
from fractions import Fraction

import numpy as np

from gpwb.fixtures import CurveFixture, ssc_reduction_equiv, verdict

print("pair: V1 = L(2)+L(0), section in the L(0) summand, c = 1")
f = CurveFixture("pair_tensor", ((2, 0), (0,)), ((1, 0),), (1, 0))
v = verdict(f)
print(f"  stable={v.stable}, slack={v.slack}, witness={v.witness}")
print("  (the L(2) summand has slope 2 > c: destabilizing)\n")

print("same data, c = 5/2:")
f = CurveFixture("pair_tensor", ((2, 0), (0,)), ((1, 0),), (Fraction(5, 2), 0))
print(f"  {verdict(f)}\n")

print("rank-1 triple with an isomorphism, scanning c:")
for c in (Fraction(-1, 2), Fraction(0), Fraction(1, 2)):
    f = CurveFixture("triple_fixed_E2", ((0,), (0,)), ((0, 0),), (c, 0))
    v = verdict(f)
    label = "marginal" if v.marginal else ("stable" if v.stable else "unstable")
    print(f"  c = {str(c):>4}: {label} (slack {v.slack})")
print()

print("twisted triple with trivial rank-1 twist reduces to the plain triple:")
c1 = Fraction(3, 2)
c2 = Fraction(1) - c1
tw = CurveFixture("twisted_triple", ((1,), (0,), (0,)), ((0, 0, 0),), (c1, c2, 0))
tr = CurveFixture("triple_fixed_E2", ((1,), (0,)), ((0, 0),), (c1, 0))
print(f"  twisted: {verdict(tw).stable}, "
      f"plain: {verdict(tr).stable}\n")

print("generator reduction on random weight cones (all five kinds):")
rng = np.random.default_rng(3)
for f in [
    CurveFixture("pair_tensor", ((1, 0), (0,)), ((1, 0),), (Fraction(5, 2), 0)),
    CurveFixture("triple_fixed_E2", ((1, -1), (0,)), ((0, 0),), (Fraction(3, 2), 0)),
    CurveFixture("coherent_system", ((1,), (0,)), ((0, 0),), (2, -1)),
    tw,
    CurveFixture("higgs", ((0, 0), (0,)), ((0, 1), (1, 0)), (0, 0)),
]:
    ok, v = ssc_reduction_equiv(f, trials=300, rng=rng)
    print(f"  {f.kind:18s}: reduction ok={ok}, verdict stable={v.stable}")
