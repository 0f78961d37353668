#!/usr/bin/env python3
"""Coherent systems: a bundle equation coupled to a global Gram condition.

The gauge group is the full unitary gauge group of the bundle times the
group of constant transformations of the trivial rank-k factor, so the
moment map has a per-site block and a site-averaged block.  Solving
drives both
    i Lambda F + Phi Phi^+ = c1 I     (per site)
    <phi_i, phi_j>_L2      = -c2 I_k  (global)
and the trace constraint deg(E) = c1 rk + c2 k is an exact discrete sum
identity at every configuration, solved or not.
"""
from gpwb.fixtures import CurveFixture, verdict
from gpwb.flows import FlowOpts, assemble_example, constraint_diagnostics, heat_flow
from gpwb.lattice import TWO_PI

d, k = 1, 1
c1 = 2 * TWO_PI
c2 = TWO_PI * d - c1  # constraint deg = c1 rk + c2 k, so c2 < 0 here

fx = CurveFixture("coherent_system", ((d,), (0,) * k), ((0, 0),), (2, -1))
v = verdict(fx)
print(f"algebraic verdict (Chern units, c = (2, -1)): stable={v.stable}, slack={v.slack}")

st = assemble_example("coherent_system", {"deg": [d], "k": k, "c1": c1, "c2": c2},
                      lattice_n=16, seed=2)
diag = constraint_diagnostics(st)
print(f"integrated residual trace (exact identity): {diag['integrated_trace']:.3e}")
print(f"constraint slack deg - c1 rk - c2 k:        {diag['constraint_slack']:.3e}\n")

rep = heat_flow(st, FlowOpts(max_iter=30000, tol=1e-9))
print(f"flow converged: {rep.converged} in {rep.iterations} iterations")
print(f"  bundle equation residual:   {rep.constraint['eq_bundle_residual']:.2e}")
print(f"  sections equation residual: {rep.constraint['eq_sections_residual']:.2e}")

# violating the constraint leaves an exact residual floor
bad = assemble_example("coherent_system", {"deg": [d], "k": k, "c1": c1, "c2": c2 + 0.5},
                       lattice_n=16, seed=2)
print("\nwith the constraint violated by 0.5:")
print(f"  constraint slack deg - c1 rk - c2 k: {constraint_diagnostics(bad)['constraint_slack']:.3e}")
rep2 = heat_flow(bad, FlowOpts(max_iter=4000, tol=1e-9))
print(f"  flow outcome: converged={rep2.converged}, residual {rep2.final_residual:.3e}")
