"""Metric heat flow and Newton oracle for the lattice vortex equations,
plus assembly of the example classes of ``fixtures.KINDS``.

The flow works in the metric picture: holomorphic links and section are
fixed, and per-site Hermitian exponents u evolve by
u <- u - step * (I + step L_A)^{-1} (i * residual) on gauge-varying
factors, with L_A the linear curvature response (FFT solve at rank 1,
sparse LU at rank > 1, kept for the last three step values, the cycle
s/2, s, 2s that the step policy settles into); frozen factors are never
touched and constant-mode factors move by one global step.  The step
policy and the stop reasons are those of ``kempf_ness.descend``, which
the point flow shares; each residual takes one spectral split of the
exponents, and its metric thunk reads sup_log off that split.  The
Newton solver drives the exact same discrete residual for a single
abelian gauge factor, so on the solvable side both produce the same
metric to solver tolerance.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fixtures import KINDS
from .groups import CONSTANT, FROZEN, FULL, ProductGroupSpec, SubgroupSetting
from .kempf_ness import descend
from .lattice import (
    LatticePairState,
    TWO_PI,
    _metric_splits,
    _sup_log,
    build_torus,
    corrected_links,
    curvature_field,
    curvature_response_matrix,
    direct_sum_bundle,
    holomorphic_sections,
    lattice_degree,
    pointwise_residual,
    require_unitary,
    section_transport,
)
from .reps import ADJOINT, AXES, RepSpec, Slot, _hermitian_part, moment_block, summand_weights


@dataclass
class FlowOpts:
    max_iter: int = 20000
    step: float = 0.1
    tol: float = 1e-8
    step_cap: float = 1.0
    metric_cutoff: float = 50.0


@dataclass
class LatticeFlowReport:
    converged: bool
    iterations: int
    final_residual: float
    final_residual_linf: float
    trajectory: list                      # rows (iteration, l2, linf, sup_log_metric)
    sup_log_metric: float
    degrees_before: dict
    degrees_after: dict
    constraint: dict = field(default_factory=dict)
    rejections: list = field(default_factory=list)
    reason: str = ""
    state: LatticePairState = None
    marginal: bool = False
    obstruction: float = None


@functools.lru_cache(maxsize=None)
def _response_symbol(n: int):
    """2-D Fourier symbol of the abelian curvature response operator."""
    L = curvature_response_matrix(build_torus(n))
    return np.fft.fft2(np.asarray(L[:, 0].todense()).reshape(n, n))


def _semi_implicit_scalar(d, step, n):
    """(I + step L)^{-1} d for a real scalar field d via the FFT."""
    sym = _response_symbol(n)
    out = np.fft.ifft2(np.fft.fft2(d) / (1.0 + step * sym)).real
    return out


def unfrozen_degrees(state: LatticePairState):
    return {i: lattice_degree(corrected_links(b.links, state.u[i]))
            for i, (b, mode) in enumerate(zip(state.bundles, state.setting.modes))
            if mode == FULL}


def _constraint_slack(state: LatticePairState, sign):
    """sign * (deg - sum_f c_f rk_f) over the gauge-varying factors, in
    physical units (degree 2 pi per Chern unit)."""
    gauge = state.setting.unfrozen()
    terms = [state.setting.central_scalars[i] * state.spec.factor_dims[i] for i in gauge]
    deg = sum(sum(state.bundles[i].summand_degrees) for i in gauge) * TWO_PI
    # the two signs keep the summation order of the reported diagnostics
    return deg - terms[0] - sum(terms[1:]) if sign > 0 else sum(terms) - deg


def constraint_diagnostics(state: LatticePairState, blocks=None):
    """Example-class diagnostics: integrated trace identities, the kind's
    trace constraint, the per-equation norms when a factor is in constant
    mode, and the trace of the moment map of an adjoint factor."""
    diag = {}
    if blocks is None:
        blocks, _, _ = pointwise_residual(state)
    trace_sum = 0.0
    for r in blocks.values():
        trace_sum += float(np.mean(np.trace(_hermitian_part(1j * r), axis1=-2, axis2=-1).real))
    diag["integrated_trace"] = trace_sum
    modes = state.setting.modes
    if CONSTANT in modes:
        i_full, i_const = modes.index(FULL), modes.index(CONSTANT)
        diag["eq_bundle_residual"] = float(
            np.sqrt(np.mean(np.sum(np.abs(_hermitian_part(1j * blocks[i_full])) ** 2, axis=(2, 3))))
        )
        diag["eq_sections_residual"] = float(np.linalg.norm(_hermitian_part(1j * blocks[i_const])))
    entry = KINDS.get(state.kind)
    if entry is not None and entry.constraint:
        diag[entry.constraint[0]] = _constraint_slack(state, entry.constraint[1])
    adjoint = [sl.factor for sl in state.rep.slots if sl.action == ADJOINT]
    if adjoint:
        mu = moment_block(state.metric_frame_section(), state.rep, adjoint[0])
        diag["interaction_trace_sup"] = float(
            np.max(np.abs(np.trace(mu, axis1=2, axis2=3)))
        )
    return diag


def heat_flow(state: LatticePairState, opts: FlowOpts = None) -> LatticeFlowReport:
    """Descent of the metric exponents onto the shifted moment-map zero set.

    Every gauge-varying (FULL) factor takes a semi-implicit step: the
    descent direction d is replaced by (I + step L_A)^{-1} d, with L_A the
    linear curvature response of ``curvature_response_matrix`` for the
    factor's links.  That removes the stiffness of the curvature term, so
    the step count does not grow with N.  Rank-1 factors solve by FFT;
    at rank > 1 the sparse LUs of I + step L_A are kept for the last three
    step values.  The step policy halves the step on a rejection and
    doubles it after a run of accepts, so a converging flow cycles over
    three consecutive powers of two, s/2, s and 2s, and factors each of
    them once; with room for two, every turn of the cycle would evict an
    LU it needs again.  The fixed points are those of the explicit
    flow.  The step policy is that of ``kempf_ness.descend``; a flow that
    does not converge is reported with its reason, never raised.
    """
    opts = opts or FlowOpts()
    work = state.copy()
    # the raw links never change during the flow: check them once, and let
    # every residual invert them by their adjoint
    for b, mode in zip(work.bundles, work.setting.modes):
        if mode == FULL:
            require_unitary(b.links)
    deg_before = unfrozen_degrees(work)
    # L_A of every rank > 1 FULL factor (rank 1 solves by FFT) in CSC, and
    # the identity, the two operands of every I + step L_A.  The sum drops
    # the zeros L_A stores, so dropping them here first changes no entry.
    responses = {}
    for i, (b, mode) in enumerate(zip(work.bundles, work.setting.modes)):
        if mode == FULL and work.u[i].shape[-1] > 1:
            responses[i] = curvature_response_matrix(work.lattice, b.links).tocsc()
            responses[i].eliminate_zeros()
    eye = {i: sp.identity(a.shape[0], format="csc") for i, a in responses.items()}
    # factor -> {step: LU of I + step L_A} for the last three step values,
    # least recently used first: three, because the step policy's cycle
    # visits s/2, s and 2s.  Steps only halve and double, so the float keys
    # repeat exactly.  The oldest LU is released before a new one is
    # factorized, so at most three are alive at once.
    lus = {i: {} for i in responses}

    def implicit(i, d, step):
        if d.shape[-1] == 1:
            delta = _semi_implicit_scalar(d[:, :, 0, 0].real, step, work.lattice.n)
            return delta[:, :, None, None].astype(complex)
        lu = lus[i].pop(step, None)
        if lu is None:
            if len(lus[i]) > 2:
                del lus[i][next(iter(lus[i]))]  # release the oldest LU before factorizing
            lu = spla.splu(eye[i] + step * responses[i])
        lus[i][step] = lu
        return _hermitian_part(lu.solve(d.reshape(-1)).reshape(d.shape))

    def residual(u):
        splits = _metric_splits(u)
        blocks, l2, linf = pointwise_residual(replace(work, u=u), splits)
        return blocks, (l2, linf), lambda: _sup_log(splits)

    def move(u, blocks, step):
        trial = dict(u)
        for i, r in blocks.items():
            d = _hermitian_part(1j * r)  # the Hermitian descent direction
            # implicit in the stiff linear curvature response only, so the
            # fixed points are those of the explicit step
            if work.setting.modes[i] == FULL:
                d = implicit(i, d, step)
            trial[i] = u[i] - step * d
        return trial

    d = descend(work.u, residual, move, opts.step, opts.tol, opts.step_cap, opts.metric_cutoff,
                opts.max_iter)
    work.u = d.x
    return LatticeFlowReport(
        converged=d.converged,
        iterations=d.iterations,
        final_residual=d.norms[0],
        final_residual_linf=d.norms[1],
        trajectory=d.rows,
        sup_log_metric=d.sup_log,
        degrees_before=deg_before,
        degrees_after=unfrozen_degrees(work),
        constraint=constraint_diagnostics(work, d.r),
        rejections=d.rejections,
        reason=d.reason,
        state=work,
    )


# ---------------------------------------------------------------------------
# Newton / scalar reduction oracle


def newton_abelian(state: LatticePairState, tol=1e-12, max_iter=60) -> LatticeFlowReport:
    """Independent solver for a single abelian gauge factor.

    Solves the same discrete equation as ``heat_flow`` (identical residual
    code path) by a damped Newton iteration on the scalar exponent field;
    the curvature Jacobian is the exact response operator of the link
    correction.  Reports the integral obstruction when the equation is
    insolvable instead of iterating.
    """
    full = state.setting.unfrozen()
    if len(full) != 1 or state.setting.modes[full[0]] != FULL:
        raise ValueError("newton_abelian needs exactly one gauge-varying factor")
    i0 = full[0]
    if state.spec.factor_dims[i0] != 1:
        raise ValueError(f"factor {i0} is non-abelian (rank {state.spec.factor_dims[i0]})")
    if any(state.rep.axes[axis][1] != 1 for axis in state.rep.factor_slots[i0]):
        raise ValueError("scalar reduction assumes the gauge factor acts standardly")
    work = state.copy()
    n = work.lattice.n
    lat = work.lattice
    c = work.setting.central_scalars[i0]
    f0 = curvature_field(work.bundles[i0].links, n)[:, :, 0, 0].real
    rho = np.sum(np.abs(work.section) ** 2, axis=-1)
    obstruction = float(np.mean(c - f0))
    deg = float(np.mean(f0))
    if obstruction <= 1e-12:
        marginal = abs(obstruction) <= 1e-12
        return LatticeFlowReport(
            converged=False, iterations=0,
            final_residual=float(np.sqrt(np.mean((f0 + rho - c) ** 2))),
            final_residual_linf=float(np.max(np.abs(f0 + rho - c))),
            trajectory=[], sup_log_metric=0.0,
            degrees_before={i0: deg}, degrees_after={i0: deg},
            reason="marginal" if marginal else "integral obstruction",
            marginal=marginal, obstruction=obstruction, state=work,
        )

    L = curvature_response_matrix(lat)

    def residual(u):
        work.u[i0][:, :, 0, 0] = u
        _, l2, linf = pointwise_residual(work)
        lam = f0 + (L @ u.ravel()).reshape(n, n)
        r = lam + np.exp(2 * u) * rho - c
        return r, l2, linf

    u = np.zeros((n, n))
    r, l2, linf = residual(u)
    traj = [(0, l2, linf, 0.0)]
    it = 0
    while np.isfinite(l2) and it < max_iter and l2 > tol:
        it += 1
        J = L + sp.diags((2 * np.exp(2 * u) * rho).ravel())
        delta = spla.spsolve(J.tocsc(), -r.ravel()).reshape(n, n)
        lam_dn = 1.0
        for _ in range(40):
            r2, l2_2, linf2 = residual(u + lam_dn * delta)
            if l2_2 < l2:
                break
            lam_dn *= 0.5
        u = u + lam_dn * delta
        r, l2, linf = r2, l2_2, linf2
        traj.append((it, l2, linf, 2 * float(np.max(np.abs(u)))))
    work.u[i0][:, :, 0, 0] = u
    return LatticeFlowReport(
        converged=bool(l2 <= tol), iterations=it, final_residual=l2,
        final_residual_linf=linf, trajectory=traj,
        sup_log_metric=2 * float(np.max(np.abs(u))),
        degrees_before={i0: deg}, degrees_after={i0: float(np.mean(f0 + (L @ u.ravel()).reshape(n, n)))},
        reason="" if l2 <= tol else "max_iter" if np.isfinite(l2) else "non-finite residual",
        obstruction=obstruction, state=work,
    )


# ---------------------------------------------------------------------------
# example assembly


def build_section(lat, rep: RepSpec, bundles, support, rng, scale=1.0):
    """Holomorphic section on the lattice ``lat`` supported on the given
    V-summands, each a multi-index with one index per tensor axis of V.

    Per supported summand the scalar dbar kernel is extracted and a seeded
    unit combination of its canonical basis is placed there; the summand
    must have non-negative degree.
    """
    n = lat.n
    dimv = rep.dim
    out = np.zeros((n, n, dimv), complex)
    shape = rep.shape
    total_res = 0.0
    degrees = summand_weights([b.summand_degrees for b in bundles], rep)
    vlinks = section_transport(rep, [b.links for b in bundles])
    for idx in map(tuple, support):
        deg = int(round(degrees[idx]))
        if deg < 0:
            raise ValueError(f"summand {idx} has negative degree {deg}: no sections")
        flat = int(np.ravel_multi_index(idx, shape))
        links = vlinks[..., flat:flat + 1, flat:flat + 1]
        count = max(deg, 1)
        secs, res, _ = holomorphic_sections(lat, links, count)
        total_res = max(total_res, float(res.max()))
        w = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        w /= np.linalg.norm(w)
        out[:, :, flat] = scale * np.tensordot(w, secs[:, :, :, 0], axes=(0, 0))
    return out, total_res


def assemble_example(kind: str, params: dict, lattice_n=16, seed=0) -> LatticePairState:
    """Build a LatticePairState for one example class of ``fixtures.KINDS``.

    Each degree row and central scalar is read from the parameter the
    kind's entry names for it: a frozen factor defaults to the trivial
    line, a constant-mode factor's parameter is its rank, and a missing
    central scalar is the slope of its factor.  ``support`` lists support
    indices of the kind (default: the summands of non-negative degree, or
    none where the kind says so); ``theta`` instead gives a constant
    section, one value per coordinate of V.

    Central parameters are in the same units as ``lattice_degree`` (a
    Chern-number-d line bundle has degree 2*pi*d).  Inconsistent constraint
    parameters attach a warning entry in ``state.params`` instead of
    failing: the violating configuration is itself a useful fixture.
    """
    entry = KINDS.get(kind)
    if entry is None:
        raise ValueError(f"unknown example kind {kind!r}")
    rng = np.random.default_rng(seed)
    lat = build_torus(lattice_n)
    params = dict(params)
    rows, scalars = [], []
    for mode, dname, cname in zip(entry.factor_modes, entry.degree_params, entry.scalar_params):
        row = params.get(dname, [0]) if mode == FROZEN else params[dname]
        rows.append([0] * int(row) if mode == CONSTANT else list(row))
        c = params.get(cname)
        scalars.append(0.0 if mode == FROZEN else
                       float(TWO_PI * sum(rows[-1]) / len(rows[-1]) if c is None else c))
    spec = ProductGroupSpec(tuple(len(r) for r in rows))
    rep = RepSpec(spec, tuple(Slot(len(rows[f]) ** len(AXES[action]), action, f)
                              for action, f in entry.slots))
    setting = SubgroupSetting(spec, entry.factor_modes, tuple(scalars))
    bundles = [direct_sum_bundle(lat, r) for r in rows]
    weights = summand_weights([b.summand_degrees for b in bundles], rep)
    theta = params.get("theta")
    if theta is not None:
        theta = np.asarray(theta, dtype=complex).reshape(rep.shape)
        bad = np.argwhere((theta != 0) & (weights < 0))
        if len(bad):
            idx = tuple(int(i) for i in bad[0])
            raise ValueError(f"constant section component {idx} needs non-negative "
                             f"degree, got {int(round(weights[idx]))}")
        phi = np.zeros((lat.n, lat.n, rep.dim), complex)
        phi[:, :, :] = theta.reshape(-1)
        res = 0.0
    else:
        support = params.get("support")
        if support is None:
            support = np.argwhere(weights >= 0).tolist() if entry.default_support else []
        else:
            support = [entry.slot_index(s) for s in support]
        phi, res = build_section(lat, rep, bundles, support, rng,
                                 scale=params.get("scale", 1.0))
    st = LatticePairState(lat, rep, setting, bundles, phi,
                          construction_residual=res, kind=kind, params=params)
    if entry.constraint:
        _, sign, note = entry.constraint
        slack = _constraint_slack(st, sign)
        if abs(slack) > 1e-12:
            st.params["constraint_warning"] = note.format(
                slack=f"{slack:.3e}", per_rank=f"{slack / len(rows[0]):.3e}") + ": no solutions"
    return st
