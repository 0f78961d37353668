"""Metric heat flow and Newton oracle for the lattice vortex equations,
plus assembly of the five example classes.

The flow works in the metric picture: holomorphic links and section are
fixed, and per-site Hermitian exponents u evolve by
u <- u - step * (i * residual); frozen factors are never touched and
constant-mode factors move by one global step.  The Newton solver drives
the exact same discrete residual for a single abelian gauge factor, so on
the solvable side both produce the same metric to solver tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fixtures import KINDS
from .groups import CONSTANT, FROZEN, FULL, ProductGroupSpec, SubgroupSetting
from .lattice import (
    DEFAULT_STENCIL,
    FactorState,
    LatticePairState,
    TWO_PI,
    build_torus,
    curvature_field,
    curvature_response_matrix,
    direct_sum_bundle,
    holomorphic_sections,
    lattice_degree,
    mu_factor_field,
    pointwise_residual,
    section_transport,
    trivial_bundle,
)
from .reps import ADJOINT, DUAL, STANDARD, RepSpec, Slot, summand_weights


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
    residual_snapshot: np.ndarray = None  # per-site residual norm
    constraint: dict = field(default_factory=dict)
    rejections: list = field(default_factory=list)
    reason: str = ""
    state: LatticePairState = None
    marginal: bool = False
    obstruction: float = None


def _herm(b):
    return 0.5 * (b + np.swapaxes(b, -1, -2).conj())


def _descent_blocks(blocks, factors):
    """Hermitian descent directions i*R per unfrozen factor."""
    out = {}
    for i, r in blocks.items():
        if factors[i].mode == CONSTANT:
            out[i] = _herm(1j * r[0, 0])
        else:
            out[i] = _herm(1j * r)
    return out


_RESPONSE_SYMBOL_CACHE = {}


def _response_symbol(n: int):
    """2-D Fourier symbol of the abelian curvature response operator."""
    if n not in _RESPONSE_SYMBOL_CACHE:
        L = curvature_response_matrix(build_torus(n))
        col0 = np.asarray(L[:, 0].todense()).reshape(n, n)
        _RESPONSE_SYMBOL_CACHE[n] = np.fft.fft2(col0)
    return _RESPONSE_SYMBOL_CACHE[n]


def _semi_implicit_scalar(d, step, n):
    """(I + step L)^{-1} d for a real scalar field d via the FFT."""
    sym = _response_symbol(n)
    out = np.fft.ifft2(np.fft.fft2(d) / (1.0 + step * sym)).real
    return out


def unfrozen_degrees(state: LatticePairState):
    out = {}
    for i, f in enumerate(state.factors):
        if f.mode == FULL:
            out[i] = lattice_degree(state.corrected_links(i))
    return out


def constraint_diagnostics(state: LatticePairState, blocks=None):
    """Example-class diagnostics: integrated trace identities and the
    per-equation norms for constant-mode factors."""
    diag = {}
    if blocks is None:
        blocks, _, _ = pointwise_residual(state)
    trace_sum = 0.0
    for i, r in blocks.items():
        if state.factors[i].mode == CONSTANT:
            trace_sum += float(np.trace(_herm(1j * r[0, 0])).real)
        else:
            trace_sum += float(np.mean(np.trace(_herm(1j * r), axis1=2, axis2=3).real))
    diag["integrated_trace"] = trace_sum
    if state.kind == "coherent_system":
        i_full = [i for i, f in enumerate(state.factors) if f.mode == FULL][0]
        i_const = [i for i, f in enumerate(state.factors) if f.mode == CONSTANT][0]
        diag["eq_bundle_residual"] = float(
            np.sqrt(np.mean(np.sum(np.abs(_herm(1j * blocks[i_full])) ** 2, axis=(2, 3))))
        )
        diag["eq_sections_residual"] = float(np.linalg.norm(_herm(1j * blocks[i_const][0, 0])))
        n = state.spec.factor_dims[i_full]
        k = state.spec.factor_dims[i_const]
        c1 = state.setting.central_scalars[i_full]
        c2 = state.setting.central_scalars[i_const]
        deg = sum(state.factors[i_full].bundle.summand_degrees) * TWO_PI
        diag["constraint_slack"] = deg - c1 * n - c2 * k
    if state.kind == "twisted_triple":
        n1, n2 = state.spec.factor_dims[0], state.spec.factor_dims[1]
        c1, c2 = state.setting.central_scalars[0], state.setting.central_scalars[1]
        degs = sum(state.factors[0].bundle.summand_degrees) + sum(
            state.factors[1].bundle.summand_degrees
        )
        diag["sum_rule_slack"] = n1 * c1 + n2 * c2 - degs * TWO_PI
    if state.kind == "higgs":
        i_full = 0
        m = state.spec.factor_dims[0]
        cm = state.setting.central_scalars[0]
        deg = sum(state.factors[0].bundle.summand_degrees) * TWO_PI
        diag["trace_obstruction"] = deg - m * cm
        psi = state.metric_frame_section()
        mu = mu_factor_field(psi, state.rep, 0)
        diag["interaction_trace_sup"] = float(
            np.max(np.abs(np.trace(mu, axis1=2, axis2=3)))
        )
    return diag


def heat_flow(state: LatticePairState, opts: FlowOpts = None) -> LatticeFlowReport:
    """Descent of the metric exponents onto the shifted moment-map zero set.

    Step control: halve on residual increase, double after five straight
    accepts, cap at ``opts.step_cap``; divergence is reported when the
    metric exponent or the iteration budget runs out, never raised.
    """
    opts = opts or FlowOpts()
    work = state.copy()
    deg_before = unfrozen_degrees(work)
    blocks, l2, linf = pointwise_residual(work)
    sup_log = work.sup_log_metric()  # of the last accepted state
    trajectory = [(0, l2, linf, sup_log)]
    rejections = []
    step = opts.step
    accepted = 0
    it = 0
    reason = ""
    while it < opts.max_iter and l2 > opts.tol:
        it += 1
        desc = _descent_blocks(blocks, work.factors)
        trial = {}
        for i, d in desc.items():
            # solve the stiff linear curvature response implicitly (exact FFT
            # solve of the translation-invariant response operator) on abelian
            # factors; fixed points and the step-control policy are unchanged
            if work.factors[i].mode == FULL and d.shape[-1] == 1:
                delta = _semi_implicit_scalar(d[:, :, 0, 0].real, step, work.lattice.n)
                d = delta[:, :, None, None].astype(complex)
            trial[i] = work.u[i] - step * d
        saved = {i: work.u[i] for i in trial}
        work.u.update(trial)
        blocks_new, l2_new, linf_new = pointwise_residual(work)
        if not np.isfinite(l2_new):
            work.u.update(saved)
            reason = "non-finite residual"
            break
        # strict decrease required: equal-residual steps are limit cycles
        # (period-2 orbits have exactly equal residuals), not progress
        if l2_new <= l2 * (1.0 - 1e-13) or l2_new <= opts.tol:
            blocks, l2, linf = blocks_new, l2_new, linf_new
            sup_log = work.sup_log_metric()
            trajectory.append((it, l2, linf, sup_log))
            accepted += 1
            if accepted >= 5:
                step = min(2.0 * step, opts.step_cap)
                accepted = 0
        else:
            work.u.update(saved)
            rejections.append(it)
            accepted = 0
            step *= 0.5
            if step < 1e-15:
                reason = "step underflow"
                break
        if sup_log > opts.metric_cutoff:
            reason = "metric blow-up"
            break
    converged = bool(l2 <= opts.tol)
    if not converged and not reason:
        reason = "max_iter"
    snapshot = None
    if blocks:
        n = work.lattice.n
        acc = np.zeros((n, n))
        for r in blocks.values():
            acc += np.sum(np.abs(r) ** 2, axis=(2, 3))
        snapshot = np.sqrt(acc)
    return LatticeFlowReport(
        converged=converged,
        iterations=it,
        final_residual=l2,
        final_residual_linf=linf,
        trajectory=trajectory,
        sup_log_metric=sup_log,
        degrees_before=deg_before,
        degrees_after=unfrozen_degrees(work),
        residual_snapshot=snapshot,
        constraint=constraint_diagnostics(work, blocks),
        rejections=rejections,
        reason="" if converged else reason,
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
    full = [i for i, f in enumerate(state.factors) if f.mode != FROZEN]
    if len(full) != 1 or state.factors[full[0]].mode != FULL:
        raise ValueError("newton_abelian needs exactly one gauge-varying factor")
    i0 = full[0]
    if state.spec.factor_dims[i0] != 1:
        raise ValueError(f"factor {i0} is non-abelian (rank {state.spec.factor_dims[i0]})")
    for axis in state.rep.factor_slots(i0):
        if state.rep.slots[axis].action != STANDARD:
            raise ValueError("scalar reduction assumes the gauge factor acts standardly")
    work = state.copy()
    n = work.lattice.n
    lat = work.lattice
    c = work.setting.central_scalars[i0]
    f0 = curvature_field(work.factors[i0].bundle.links, n)[:, :, 0, 0].real
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
    while it < max_iter and l2 > tol:
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
        reason="" if l2 <= tol else "max_iter",
        obstruction=obstruction, state=work,
    )


# ---------------------------------------------------------------------------
# example assembly


def _normalize_support(support, shape):
    out = []
    for s in support:
        idx = tuple(int(v) for v in (s if isinstance(s, (tuple, list)) else (s,)))
        if len(idx) != len(shape):
            raise ValueError(f"support index {idx} does not match slot shape {shape}")
        out.append(idx)
    return out


def build_section(rep: RepSpec, bundles, support, rng, order=DEFAULT_STENCIL,
                  section_index=None, scale=1.0):
    """Holomorphic section supported on the given V-summands.

    Per supported summand the scalar dbar kernel is extracted and a seeded
    unit combination (or the indexed vector) of its canonical basis is
    placed there; the summand must have non-negative degree.
    """
    lat = bundles[0].lattice
    n = lat.n
    dimv = rep.dim
    out = np.zeros((n, n, dimv), complex)
    shape = rep.shape
    support = _normalize_support(support, shape)
    total_res = 0.0
    degrees = summand_weights([b.summand_degrees for b in bundles], rep)
    vlinks = section_transport(rep, [b.links for b in bundles])
    for idx in support:
        deg = int(round(degrees[idx]))
        if deg < 0:
            raise ValueError(f"summand {idx} has negative degree {deg}: no sections")
        flat = int(np.ravel_multi_index(idx, shape))
        links = vlinks[..., flat:flat + 1, flat:flat + 1]
        count = max(deg, 1)
        secs, res, _ = holomorphic_sections(lat, links, count, order=order)
        total_res = max(total_res, float(res.max()))
        if section_index is not None:
            vec = secs[section_index % count][:, :, 0]
        else:
            w = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            w /= np.linalg.norm(w)
            vec = np.tensordot(w, secs[:, :, :, 0], axes=(0, 0))
        out[:, :, flat] = scale * vec
    return out, total_res


def assemble_example(kind: str, params: dict, lattice_n=16, seed=0) -> LatticePairState:
    """Build a LatticePairState for one of the five example classes.

    Central parameters are in the same units as ``lattice_degree`` (a
    Chern-number-d line bundle has degree 2*pi*d).  Inconsistent constraint
    parameters attach a warning entry in ``state.params`` instead of
    failing: the violating configuration is itself a useful fixture.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown example kind {kind!r}")
    rng = np.random.default_rng(seed)
    lat = build_torus(lattice_n)
    params = dict(params)
    notes = {}

    if kind in ("pair_tensor", "triple_fixed_E2"):
        deg1 = list(params["deg1"])
        deg2 = list(params.get("deg2", [0]))
        c = float(params["c"])
        n1, n2 = len(deg1), len(deg2)
        spec = ProductGroupSpec((n1, n2))
        action2 = STANDARD if kind == "pair_tensor" else DUAL
        rep = RepSpec(spec, (Slot(n1, STANDARD, 0), Slot(n2, action2, 1)))
        setting = SubgroupSetting(spec, (FULL, FROZEN), (c, 0.0))
        b1 = direct_sum_bundle(lat, deg1)
        b2 = direct_sum_bundle(lat, deg2)
        factors = [FactorState(b1, FULL), FactorState(b2, FROZEN)]
        support = params.get("support")
        if support is None:
            sign = 1 if kind == "pair_tensor" else -1
            support = [
                (i, j)
                for i in range(n1)
                for j in range(n2)
                if deg1[i] + sign * deg2[j] >= 0
            ]
        phi, res = build_section(rep, [b1, b2], support, rng,
                                 section_index=params.get("section_index"),
                                 scale=params.get("scale", 1.0))
        return LatticePairState(lat, spec, rep, setting, factors, phi,
                                construction_residual=res, kind=kind, params=params)

    if kind == "coherent_system":
        deg = list(params["deg"])
        k = int(params["k"])
        c1, c2 = float(params["c1"]), float(params["c2"])
        n = len(deg)
        spec = ProductGroupSpec((n, k))
        rep = RepSpec(spec, (Slot(n, STANDARD, 0), Slot(k, DUAL, 1)))
        setting = SubgroupSetting(spec, (FULL, CONSTANT), (c1, c2))
        b1 = direct_sum_bundle(lat, deg)
        b2 = trivial_bundle(lat, k)
        factors = [FactorState(b1, FULL), FactorState(b2, CONSTANT)]
        slack = TWO_PI * sum(deg) - c1 * n - c2 * k
        if abs(slack) > 1e-12:
            notes["constraint_warning"] = (
                f"deg(E) - c1 rk - c2 k = {slack:.3e}: no exact solutions exist"
            )
        support = params.get("support")
        if support is None:
            support = [(i, j) for i in range(n) for j in range(k) if deg[i] >= 0]
        phi, res = build_section(rep, [b1, b2], support, rng,
                                 section_index=params.get("section_index"),
                                 scale=params.get("scale", 1.0))
        st = LatticePairState(lat, spec, rep, setting, factors, phi,
                              construction_residual=res, kind=kind, params=params)
        st.params.update(notes)
        return st

    if kind == "twisted_triple":
        deg1, deg2 = list(params["deg1"]), list(params["deg2"])
        deg3 = list(params.get("deg3", [0]))
        c1, c2 = float(params["c1"]), float(params["c2"])
        n1, n2, n3 = len(deg1), len(deg2), len(deg3)
        spec = ProductGroupSpec((n1, n2, n3))
        rep = RepSpec(spec, (Slot(n1, STANDARD, 0), Slot(n2, DUAL, 1), Slot(n3, DUAL, 2)))
        setting = SubgroupSetting(spec, (FULL, FULL, FROZEN), (c1, c2, 0.0))
        b1, b2, b3 = (direct_sum_bundle(lat, d) for d in (deg1, deg2, deg3))
        factors = [FactorState(b1, FULL), FactorState(b2, FULL), FactorState(b3, FROZEN)]
        slack = n1 * c1 + n2 * c2 - TWO_PI * (sum(deg1) + sum(deg2))
        if abs(slack) > 1e-12:
            notes["constraint_warning"] = f"n1 c1 + n2 c2 - deg = {slack:.3e}"
        support = params.get("support")
        if support is None:
            support = [
                (i, j, l)
                for i in range(n1)
                for j in range(n2)
                for l in range(n3)
                if deg1[i] - deg2[j] - deg3[l] >= 0
            ]
        phi, res = build_section(rep, [b1, b2, b3], support, rng,
                                 section_index=params.get("section_index"),
                                 scale=params.get("scale", 1.0))
        st = LatticePairState(lat, spec, rep, setting, factors, phi,
                              construction_residual=res, kind=kind, params=params)
        st.params.update(notes)
        return st

    # higgs
    deg = list(params["deg"])
    m = len(deg)
    cm = params.get("cm")
    if cm is None:
        cm = TWO_PI * sum(deg) / m
    cm = float(cm)
    spec = ProductGroupSpec((m, 1))
    rep = RepSpec(spec, (Slot(m * m, ADJOINT, 0), Slot(1, STANDARD, 1)))
    setting = SubgroupSetting(spec, (FULL, FROZEN), (cm, 0.0))
    b1 = direct_sum_bundle(lat, deg)
    b2 = trivial_bundle(lat, 1)  # cotangent line of the flat torus
    factors = [FactorState(b1, FULL), FactorState(b2, FROZEN)]
    theta = params.get("theta")
    if theta is not None:
        theta = np.asarray(theta, dtype=complex)
        if not all(d == 0 for d in deg):
            for a in range(m):
                for bq in range(m):
                    if theta[a, bq] != 0 and deg[a] - deg[bq] < 0:
                        raise ValueError(
                            f"constant endomorphism component {(a, bq)} needs "
                            f"non-negative degree, got {deg[a] - deg[bq]}"
                        )
        phi = np.zeros((lat.n, lat.n, rep.dim), complex)
        phi[:, :, :] = theta.reshape(-1)
        res = 0.0
    else:
        support = params.get("support", [])
        phi, res = build_section(rep, [b1, b2],
                                 [(a * m + bq, 0) for a, bq in support], rng,
                                 section_index=params.get("section_index"),
                                 scale=params.get("scale", 1.0))
    st = LatticePairState(lat, spec, rep, setting, factors, phi,
                          construction_residual=res, kind="higgs", params=params)
    mu_e = TWO_PI * sum(deg) / m
    if abs(cm - mu_e) > 1e-12:
        st.params["constraint_warning"] = f"cm - slope = {cm - mu_e:.3e}: no solutions"
    return st
