"""Finite-dimensional stability/flow correspondence (base = point).

Maximal weights of one-parameter subgroups, weighted filtrations and their
two-eigenvalue generators, the algebraic stability test, the integral of
the moment map along metric geodesics, and the descent flow onto the
shifted moment-map level set with ``descend``, the adaptive-step driver
that the lattice heat flow shares.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .groups import (
    FROZEN,
    AlgebraElement,
    GroupElement,
    ProductGroupSpec,
    SubgroupSetting,
    inner_product,
)
from .reps import (
    STANDARD,
    RepSpec,
    act,
    apply_slots,
    infinitesimal_act,
    moment_block,
    mu_shifted,
    slot_matrices,
    summand_weights,
)

MEMBERSHIP_TOL = 1e-10  # component mass outside V^- that still counts as inside


@dataclass(frozen=True)
class WeightedFiltration:
    """Increasing chain of subspaces of one factor with increasing weights.

    ``chain[k]`` is an orthonormal column basis of the k-th subspace; the
    last entry spans the whole factor space.  The associated algebra
    element has eigenvalue -i*alpha_k on the k-th graded piece, i.e.
    i*chi has the increasing real eigenvalues alpha_1 < ... < alpha_r.
    """

    factor: int
    chain: tuple
    weights: tuple

    def __post_init__(self):
        chain = tuple(np.asarray(q, dtype=complex) for q in self.chain)
        weights = tuple(float(a) for a in self.weights)
        if len(chain) != len(weights):
            raise ValueError("one weight per chain step required")
        if any(b >= a for a, b in zip(weights[1:], weights)):
            raise ValueError(f"weights must be strictly increasing, got {weights}")
        dims = [q.shape[1] for q in chain]
        if any(b >= a for a, b in zip(dims[1:], dims)):
            raise ValueError("chain must be strictly increasing")
        n = chain[-1].shape[0]
        if chain[-1].shape[1] != n:
            raise ValueError("last chain entry must span the full space")
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "weights", weights)

    @property
    def length(self):
        return len(self.chain)

    def graded_projectors(self):
        prev = None
        out = []
        for q in self.chain:
            p = q @ q.conj().T
            out.append(p - prev if prev is not None else p)
            prev = q @ q.conj().T
        return out

    def element(self, spec: ProductGroupSpec) -> AlgebraElement:
        """chi = -i sum_k alpha_k P_k on the designated factor, 0 elsewhere."""
        blocks = [np.zeros((n, n), complex) for n in spec.factor_dims]
        acc = np.zeros_like(blocks[self.factor])
        for a, p in zip(self.weights, self.graded_projectors()):
            acc += -1j * a * p
        blocks[self.factor] = 0.5 * (acc - acc.conj().T)  # strip roundoff
        return AlgebraElement(tuple(blocks), "compact")


@dataclass
class StabilityVerdict:
    stable: bool
    slack: float
    witness: WeightedFiltration = None
    marginal: bool = False

    def __post_init__(self):
        if self.stable != (self.slack > 0.0):
            raise ValueError(f"verdict stable={self.stable} contradicts slack {self.slack}")


@dataclass
class FlowResult:
    converged: bool
    iterations: int
    final_residual: float
    trajectory: list
    final_group_element: GroupElement
    sup_log_metric: float
    rejections: list = field(default_factory=list)
    reason: str = ""


# ---------------------------------------------------------------------------
# maximal weights


def maximal_weight(x, s: AlgebraElement, rep: RepSpec) -> float:
    """0 if x lies in V^-, the span of the eigenvectors of i*rho(s) with
    eigenvalue <= 0 (within 1e-9), else +inf.

    One ``eigh`` of the Hermitian i*s_f per factor gives an eigenbasis of
    i*rho(s) on V: rotated into it by the adjoint eigenvector blocks, i*rho(s)
    is diagonal with the ``summand_weights`` of the eigenvalues, so V^- is
    a set of coordinates.
    """
    x = np.asarray(x, dtype=complex)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    ws, vs = zip(*(np.linalg.eigh(0.5j * (b - b.conj().T)) for b in s.blocks))
    y = apply_slots(slot_matrices([v.conj().T for v in vs], rep), x.reshape(-1), rep)
    outside = y.reshape(rep.shape)[summand_weights(ws, rep) > 1e-9]
    if np.linalg.norm(outside) <= MEMBERSHIP_TOL * nx:
        return 0.0
    return np.inf


def total_weight(x, filt: WeightedFiltration, c: AlgebraElement, rep: RepSpec,
                 degrees=None) -> float:
    """deg(chi) + lambda(x; chi) - <chi, c>.

    ``degrees``: optional per-step degree data (deg W^1, ..., deg W^r); the
    degree of chi is alpha_r*deg(W^r) + sum_{k<r}(alpha_k - alpha_{k+1})*deg(W^k).
    Defaults to zero (base = point).
    """
    spec = rep.spec
    chi = filt.element(spec)
    alphas = filt.weights
    r = filt.length
    deg = 0.0
    if degrees is not None:
        if len(degrees) != r:
            raise ValueError("one degree per chain step required")
        deg = alphas[-1] * degrees[-1]
        for k in range(r - 1):
            deg += (alphas[k] - alphas[k + 1]) * degrees[k]
    lam = maximal_weight(x, chi, rep)
    if np.isinf(lam):
        return np.inf
    return deg + lam - inner_product(chi, c, spec)


# ---------------------------------------------------------------------------
# SSC generators


def chain_generator_weights(r):
    """The 2r two-eigenvalue generators of the admissible weights of a chain
    of length r, as weight vectors over its steps: first the lowering ones
    (-1 on steps 1..i, 0 after), then the raising ones (0 before step j, 1
    from it on), for i and j = 1..r."""
    return ([[-1] * i + [0] * (r - i) for i in range(1, r + 1)]
            + [[0] * (j - 1) + [1] * (r - j + 1) for j in range(1, r + 1)])


def ssc_generators(filt_chain, factor=0):
    """Two-eigenvalue generators of the admissible weight cone of a chain.

    ``filt_chain`` is the increasing list of orthonormal bases; r = len.
    Each weight vector of ``chain_generator_weights`` becomes the filtration
    by the steps where its weight rises, closed off with the full space:
    weights (-1, 0) on a truncation, (0, 1) on a co-truncation, or one
    weight -1 or 1 on the full space.  The elements have eigenvalues in
    {0, +-i}.
    """
    r = len(filt_chain)
    gens = []
    for alpha in chain_generator_weights(r):
        keep = [k for k in range(r) if k == r - 1 or alpha[k] != alpha[k + 1]]
        gens.append(WeightedFiltration(factor, tuple(filt_chain[k] for k in keep),
                                       tuple(alpha[k] for k in keep)))
    return gens


def _nested_chains(subspaces, dim_full):
    """All strictly increasing chains of the supplied subspaces, each chain
    closed off with the full space."""
    full = np.eye(dim_full, dtype=complex)
    items = []
    seen_proj = []
    for q in subspaces:
        q = np.asarray(q, dtype=complex)
        if q.ndim != 2 or q.shape[1] == 0 or q.shape[1] >= dim_full:
            continue
        p = q @ q.conj().T
        if any(np.linalg.norm(p - p0) < 1e-10 for p0 in seen_proj):
            continue
        seen_proj.append(p)
        items.append(q)
    items.sort(key=lambda q: q.shape[1])

    def contains(big, small):
        proj = big @ (big.conj().T @ small)
        return np.linalg.norm(proj - small) < 1e-10

    out = []

    def grow(prefix, start):
        out.append(prefix + [full])
        for k in range(start, len(items)):
            if not prefix or (
                items[k].shape[1] > prefix[-1].shape[1] and contains(items[k], prefix[-1])
            ):
                grow(prefix + [items[k]], k + 1)

    grow([], 0)
    return out


def default_subspace_lattice(x, rep: RepSpec, factor=0):
    """Invariant-subspace candidates on one factor for desk-scale fixtures:
    coordinate subspaces plus the column space of x along the factor slot.
    The factor must act on V through exactly one standard slot."""
    n = rep.spec.factor_dims[factor]
    axes = rep.factor_slots(factor)
    actions = [rep.slots[k].action for k in axes]
    if actions != [STANDARD]:
        raise ValueError(f"factor {factor} must act through exactly one standard slot, "
                         f"got {actions}")
    t = np.asarray(x, dtype=complex).reshape(rep.shape)
    mat = np.moveaxis(t, axes[0], 0).reshape(n, -1)
    eye = np.eye(n, dtype=complex)
    subspaces = [eye[:, :k] for k in range(1, n)]
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(sv > 1e-10 * (sv[0] if sv.size and sv[0] > 0 else 1.0)))
    if 0 < rank < n:
        subspaces.append(u[:, :rank])
    return subspaces


def stability_test(x, rep: RepSpec, spec: ProductGroupSpec, setting: SubgroupSetting,
                   factor=None) -> StabilityVerdict:
    """Algebraic stability of x for the subgroup action (base = point).

    Enumerates chains over ``default_subspace_lattice`` on the designated
    unfrozen factor, reduces each chain to its ``ssc_generators``,
    evaluates the total weight of every generator, and returns the
    minimal-slack verdict.  A generator whose V^- does not contain x has
    total weight +inf and so never wins.  Chains run over one factor only,
    so ``factor`` may be left out only when a single factor is unfrozen.
    """
    if factor is None:
        nf = [i for i, m in enumerate(setting.modes) if m != FROZEN]
        if len(nf) > 1:
            raise ValueError(f"factors {nf} are unfrozen: stability_test examines the "
                             f"chains of one factor, so name it with factor=")
        factor = nf[0]
    n = spec.factor_dims[factor]
    c = setting.central_shift
    best = np.inf
    witness = None
    for chain in _nested_chains(default_subspace_lattice(x, rep, factor), n):
        for gen in ssc_generators(chain, factor):
            w = total_weight(x, gen, c, rep)
            if w < best:
                best = w
                witness = gen
    stable = bool(best > 0.0)
    marginal = bool(abs(best) <= 1e-9) if np.isfinite(best) else False
    return StabilityVerdict(stable=stable, slack=float(best), witness=witness,
                            marginal=marginal)


# ---------------------------------------------------------------------------
# simplicity


def compact_stabilizer_dimension(x, rep: RepSpec, setting: SubgroupSetting, tol=1e-8):
    """Dimension of {s in h (compact) : rho(s) x = 0}.

    A nonzero solution is a semisimple infinitesimal stabilizer, so the
    configuration is not simple.  Works over the real span of a
    skew-Hermitian basis of the unfrozen blocks.
    """
    spec = rep.spec
    basis = []
    for f in setting.unfrozen():
        n = spec.factor_dims[f]
        for i in range(n):
            e = [np.zeros((m, m), complex) for m in spec.factor_dims]
            e[f][i, i] = 1j
            basis.append(AlgebraElement(tuple(e), "compact"))
        for i in range(n):
            for j in range(i + 1, n):
                e = [np.zeros((m, m), complex) for m in spec.factor_dims]
                e[f][i, j] = 1.0
                e[f][j, i] = -1.0
                basis.append(AlgebraElement(tuple(e), "compact"))
                e2 = [np.zeros((m, m), complex) for m in spec.factor_dims]
                e2[f][i, j] = 1j
                e2[f][j, i] = 1j
                basis.append(AlgebraElement(tuple(e2), "compact"))
    cols = [infinitesimal_act(s, x, rep) for s in basis]
    A = np.stack([np.concatenate([c.real, c.imag]) for c in cols], axis=1)
    sv = np.linalg.svd(A, compute_uv=False)
    scale = sv[0] if sv.size and sv[0] > 0 else 1.0
    return int(np.sum(sv <= tol * scale)) + (len(basis) - len(sv) if A.shape[0] < len(basis) else 0)


def is_simple(x, rep: RepSpec, setting: SubgroupSetting) -> bool:
    """No semisimple element of the subalgebra fixes x infinitesimally."""
    return compact_stabilizer_dimension(x, rep, setting) == 0


# ---------------------------------------------------------------------------
# integral of the moment map


def kn_functional(x, s: AlgebraElement, rep: RepSpec, spec: ProductGroupSpec,
                  setting: SubgroupSetting, quadrature_steps: int = 512) -> float:
    """Integral over t in [0,1] of <mu_h(e^{i t s} x) - c_h, s> for compact s.

    Composite Simpson quadrature with at least ``quadrature_steps`` panels
    is the definition.  One ``eigh`` of the Hermitian i*s_f per factor gives
    e^{i t s_f} at every node as one stacked array; ``act`` runs once per
    node on those blocks, and the moment maps and pairings of all nodes are
    taken on the stacked images, one ``moment_block`` per unfrozen factor.
    """
    if s.flavor != "compact":
        raise ValueError("kn_functional needs a compact (skew-Hermitian) direction s")
    spec.check_blocks(s.blocks)
    m = max(int(quadrature_steps), 2)
    if m % 2:
        m += 1
    ts = np.linspace(0.0, 1.0, m + 1)
    exps = []
    for b in s.blocks:
        w, v = np.linalg.eigh(0.5j * (b - b.conj().T))  # i*s_f
        exps.append((v * np.exp(np.outer(ts, w))[:, None, :]) @ v.conj().T)
    ys = np.stack([act(GroupElement(tuple(e[k] for e in exps)), x, rep) for k in range(m + 1)])
    unfrozen = setting.unfrozen()
    # mu_h - c_h per node, c_h = -i c_f I, flattened side by side over the unfrozen factors
    mh = np.concatenate([
        (moment_block(ys, rep, i) + 1j * setting.central_scalars[i] * np.eye(spec.factor_dims[i]))
        .reshape(m + 1, -1) for i in unfrozen], axis=1)
    sv = np.concatenate([s.blocks[i].reshape(-1) for i in unfrozen])
    vals = np.einsum("tk,k->t", mh, sv.conj()).real
    h = 1.0 / m
    return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()))


def metric_exponent(g: GroupElement, setting: SubgroupSetting) -> AlgebraElement:
    """The compact-flavor w with g = k e^{i w}: i*w = (1/2) log(g^dagger g),
    the log taken on the eigenvalues of the positive-definite g^dagger g."""
    blocks = []
    for i, b in enumerate(g.blocks):
        if setting.modes[i] == FROZEN:
            blocks.append(np.zeros_like(b))
            continue
        lam, v = np.linalg.eigh(b.conj().T @ b)
        w = -0.5j * ((v * np.log(lam)) @ v.conj().T)
        blocks.append(0.5 * (w - w.conj().T))
    return AlgebraElement(tuple(blocks), "compact")


def kn_functional_group(x, g: GroupElement, rep: RepSpec, spec: ProductGroupSpec,
                        setting: SubgroupSetting, quadrature_steps: int = 512) -> float:
    """Integral of the moment map at a general subgroup element, via the
    polar decomposition g = k e^{i w} (left-unitary part dropped)."""
    w = metric_exponent(g, setting)
    return kn_functional(x, w, rep, spec, setting, quadrature_steps)


# ---------------------------------------------------------------------------
# descent flow


@dataclass
class Descent:
    """What ``descend`` returns: the last accepted point with its residual,
    norms and sup_log, one row (iteration, *norms, sup_log) for the start
    and for each accepted step, the rejected iterations, and the reason a
    flow that did not converge stopped for ("" when it converged)."""

    x: object
    r: object
    norms: tuple
    sup_log: float
    rows: list
    rejections: list
    iterations: int
    converged: bool
    reason: str


def descend(x, residual, move, sup_log, step, tol, step_cap, metric_cutoff,
            max_iter) -> Descent:
    """Adaptive-step descent of a residual norm, shared by the point and the
    lattice flows.

    ``residual(x)`` returns (r, norms) and norms[0] drives the policy;
    ``move(x, r, step)`` returns the trial point; ``sup_log(x)`` measures the
    metric of an accepted point.  A trial is accepted when it lowers norms[0]
    by a relative 1e-13 or reaches ``tol``: equal-residual steps are cycles
    (period-2 orbits have exactly equal residuals), not progress.  The step
    halves on a rejection and doubles after five straight accepts, up to
    ``step_cap``.  A flow that does not converge stops with its reason:
    "non-finite residual", "stationary residual" (two consecutive trials, at
    step s and s/2, give exactly the current residual; one tie alone may be
    a period-2 orbit), "step underflow" (step below 1e-15), "metric blow-up"
    (sup_log passes ``metric_cutoff``) or "max_iter".  Converged means the
    final norms[0] is at most ``tol``.
    """
    r, norms = residual(x)
    slog = sup_log(x)
    rows = [(0, *norms, slog)]
    rejections = []
    accepted = ties = it = 0
    reason = ""
    while it < max_iter and norms[0] > tol:
        it += 1
        cand = move(x, r, step)
        rc, nc = residual(cand)
        if not np.isfinite(nc[0]):
            reason = "non-finite residual"
            break
        if nc[0] <= norms[0] * (1.0 - 1e-13) or nc[0] <= tol:
            x, r, norms = cand, rc, nc
            slog = sup_log(x)
            rows.append((it, *norms, slog))
            accepted += 1
            if accepted >= 5:
                step = min(2.0 * step, step_cap)
                accepted = 0
            ties = 0
        else:
            rejections.append(it)
            accepted = 0
            step *= 0.5
            ties = ties + 1 if nc[0] == norms[0] else 0
            if ties >= 2:
                reason = "stationary residual"
                break
            if step < 1e-15:
                reason = "step underflow"
                break
        if slog > metric_cutoff:
            reason = "metric blow-up"
            break
    converged = bool(norms[0] <= tol)
    return Descent(x, r, norms, slog, rows, rejections, it, converged,
                   "" if converged else reason or "max_iter")


def gradient_flow(x, rep: RepSpec, spec: ProductGroupSpec, setting: SubgroupSetting,
                  max_iter=5000, step=0.1, tol=1e-9, h0: GroupElement = None,
                  step_cap=1.0, metric_cutoff=50.0) -> FlowResult:
    """Descent on the integral of the moment map.

    Each accepted step multiplies the accumulated element by
    exp(-i*step*residual) on the unfrozen factors; ``descend`` holds the
    step policy and the stop reasons.  The trajectory lists the residual
    norm of the start and of each accepted step.
    """
    def residual(hh):
        r = mu_shifted(act(hh, x, rep), rep, spec, setting)
        return r, (float(np.sqrt(max(inner_product(r, r, spec), 0.0))),)

    def move(hh, r, step):
        return GroupElement(
            tuple(
                expm(-1j * step * b) if setting.modes[i] != FROZEN else np.eye(b.shape[0], dtype=complex)
                for i, b in enumerate(r.blocks)
            ),
            "complexified",
        ).compose(hh)

    def sup_log(hh):
        worst = 0.0
        for i, b in enumerate(hh.blocks):
            if setting.modes[i] == FROZEN:
                continue
            ev = np.linalg.eigvalsh(b.conj().T @ b)
            ev = np.clip(ev, 1e-300, None)
            worst = max(worst, 0.5 * float(np.max(np.abs(np.log(ev)))))
        return worst

    h = h0 if h0 is not None else GroupElement.identity(spec, "complexified")
    d = descend(h, residual, move, sup_log, step, tol, step_cap, metric_cutoff, max_iter)
    return FlowResult(d.converged, d.iterations, d.norms[0], [row[1] for row in d.rows],
                      d.x, d.sup_log, d.rejections, d.reason)
