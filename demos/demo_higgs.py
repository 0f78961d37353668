#!/usr/bin/env python3
"""Endomorphism-valued fields on the torus: slope condition and heat flow.

On the flat torus the holomorphic cotangent line is trivial, so the field
is an endomorphism-valued section and the interaction term is the
pointwise commutator [Theta, Theta^+], which is traceless; integrating
the trace of the equation forces the central level to equal the slope.
"""
import numpy as np

from gpwb.fixtures import CurveFixture, verdict
from gpwb.flows import FlowOpts, assemble_example, constraint_diagnostics, heat_flow

# stable: flat O + O with both off-diagonal components present, so no
# summand subsheaf is invariant
fx = CurveFixture("higgs", ((0, 0), (0,)), ((0, 1), (1, 0)), (0, 0))
print("flat O+O, two-sided off-diagonal field:", verdict(fx))

st = assemble_example("higgs", {"deg": [0, 0], "theta": [[0, 2.0], [0.5, 0]]}, lattice_n=16)
rep = heat_flow(st, FlowOpts(max_iter=20000, tol=1e-10))
u = rep.state.u[0].mean(axis=(0, 1))
print(f"flow converged in {rep.iterations} iterations; "
      f"balancing exponent difference u11-u22 = {float(u[0,0].real - u[1,1].real):.4f} "
      f"(expect {0.5*np.log(0.5/2.0):.4f})")

# unstable: split L(1) + L(-1) with zero field; L(1) is invariant with
# slope above the average
fx0 = CurveFixture("higgs", ((1, -1), (0,)), (), (0, 0))
print("\nsplit L(1)+L(-1), zero field:", verdict(fx0))
st0 = assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [0, 0]]}, lattice_n=16)
rep0 = heat_flow(st0, FlowOpts(max_iter=20000, tol=1e-8, metric_cutoff=25.0))
print(f"flow outcome: converged={rep0.converged} ({rep0.reason}), "
      f"sup|log h| = {rep0.sup_log_metric:.1f}")

# the integrated trace obstruction when the level is detuned from the slope
st_bad = assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [0, 0]], "cm": 0.7},
                          lattice_n=16)
diag = constraint_diagnostics(st_bad)
print(f"\ndetuned level: integrated residual trace = {diag['integrated_trace']:.6f} "
      f"(= rank x (slope - cm) = {2*(0-0.7):.6f})")
