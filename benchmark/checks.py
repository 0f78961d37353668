"""Correctness checks computed outside the program, with numpy alone.

Each check takes the program's outputs as plain values and returns a list
of failure messages; an empty list means the output is correct.  The
expected values come from closed forms and hand-derived slope verdicts,
never from gpwb itself.
"""
from __future__ import annotations

import numpy as np

KN_REL_TOL = 1e-8        # kn_functional against its closed form
LEVEL_SET_TOL = 1e-7     # |(hM)(hM)^dagger - c I| on converged point flows
BRACKET_WIDTH = 0.05     # threshold bracket, in multiples of 2 pi d
ORACLE_TOL = 1e-6        # tight heat flow against the Newton metric
OBSTRUCTION_TOL = 1e-9   # Newton obstruction against c - 2 pi d
GAP_MIN = 1e3            # singular-value gap above the section kernel
ORTHO_TOL = 1e-10        # Gram matrix of the returned sections
DRIFT_TOL = 1e-9         # degree drift along a lattice flow


def _expm_hermitian(h):
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.exp(w)) @ v.conj().T


def matrix_rank(m, rel=1e-10):
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > rel * sv[0])) if sv.size and sv[0] > 0 else 0


def kn_closed_form(m, s1, c1):
    """Integral of the moment map for x = M in C^2 (x) C^n2 with factor 2
    frozen: 1/2 (|e^H M|^2 - |M|^2) - c1 Tr H, where H = i s1."""
    h = 1j * np.asarray(s1)
    return float(0.5 * (np.linalg.norm(_expm_hermitian(h) @ m) ** 2
                        - np.linalg.norm(m) ** 2) - c1 * np.trace(h).real)


def check_point(m, c1, s1, simple, stable, converged, h_blocks, kn_value):
    """A full-rank 2 x n2 matrix M has g M M^dagger g^dagger = c I solvable
    exactly when c > 0, so both the algebraic test and the descent flow
    must say "stable" exactly then."""
    fails = []
    if matrix_rank(m) != 2:
        fails.append(f"rank M = {matrix_rank(m)}, expected 2")
    expect = c1 > 0
    if not simple:
        fails.append("full-rank fixture reported as not simple")
    if stable != expect:
        fails.append(f"stability_test.stable = {stable}, expected {expect} (c1 = {c1})")
    if converged != expect:
        fails.append(f"gradient_flow.converged = {converged}, expected {expect} (c1 = {c1})")
    if converged:
        hm = h_blocks[0] @ m @ h_blocks[1].T
        dev = float(np.linalg.norm(hm @ hm.conj().T - c1 * np.eye(m.shape[0])))
        if not dev <= LEVEL_SET_TOL:
            fails.append(f"|(hM)(hM)^dagger - c I| = {dev:.2e} > {LEVEL_SET_TOL:g}")
    want = kn_closed_form(m, s1, c1)
    if not abs(kn_value - want) <= KN_REL_TOL * max(abs(want), 1.0):
        fails.append(f"kn_functional = {kn_value!r}, closed form {want!r}")
    return fails


def check_bracket(lo, hi):
    """The Bradlow threshold c = 2 pi d sits at multiple 1.0 on the
    volume-1 torus."""
    fails = []
    if not lo <= 1.0 <= hi:
        fails.append(f"bracket [{lo}, {hi}] excludes 1.0")
    if not hi - lo <= BRACKET_WIDTH:
        fails.append(f"bracket width {hi - lo} > {BRACKET_WIDTH}")
    return fails


def check_solvable(flow_converged, newton_converged, u_flow, u_newton):
    fails = []
    if not (flow_converged and newton_converged):
        fails.append(f"solvable side: flow converged {flow_converged}, "
                     f"Newton converged {newton_converged}")
        return fails
    sup = float(np.max(np.abs(np.asarray(u_flow) - np.asarray(u_newton))))
    if not sup < ORACLE_TOL:
        fails.append(f"flow and Newton metrics differ by {sup:.2e}")
    return fails


def check_unsolvable(flow_converged, newton_converged, obstruction, c, d):
    fails = []
    if flow_converged or newton_converged:
        fails.append(f"unsolvable side: flow converged {flow_converged}, "
                     f"Newton converged {newton_converged}")
    want = c - 2.0 * np.pi * d
    if obstruction is None or not abs(obstruction - want) <= OBSTRUCTION_TOL:
        fails.append(f"Newton obstruction {obstruction}, expected c - 2 pi d = {want}")
    return fails


def check_sections(secs, d, gap_ratio):
    """Riemann-Roch on the torus: a degree-d line bundle has exactly d
    sections.  Sections are orthonormal for the volume-1 weighting."""
    fails = []
    secs = np.asarray(secs)
    if secs.shape[0] != d:
        fails.append(f"{secs.shape[0]} sections returned, expected {d}")
    if not gap_ratio > GAP_MIN:
        fails.append(f"gap ratio {gap_ratio:.3e} <= {GAP_MIN:g}")
    flat = secs.reshape(secs.shape[0], -1)
    gram = flat.conj() @ flat.T / (secs.shape[1] * secs.shape[2])
    dev = float(np.max(np.abs(gram - np.eye(secs.shape[0]))))
    if not dev <= ORTHO_TOL:
        fails.append(f"sections not orthonormal: Gram deviation {dev:.2e}")
    return fails


def check_lattice_flow(expect, converged, stable, degrees_before, degrees_after):
    """Hand-derived expectation against the flow outcome and, where the
    program gives one, its rational verdict; degrees must not drift."""
    fails = []
    if converged != expect:
        fails.append(f"flow.converged = {converged}, expected {expect}")
    if stable is not None and stable != expect:
        fails.append(f"verdict.stable = {stable}, expected {expect}")
    for k, before in degrees_before.items():
        drift = abs(degrees_after[k] - before)
        if not drift <= DRIFT_TOL:
            fails.append(f"degree of factor {k} drifted by {drift:.2e}")
    return fails
