"""Finite-dimensional stability/flow correspondence (base = point).

Maximal weights of one-parameter subgroups, weighted filtrations and their
two-eigenvalue generators, the algebraic stability test, the compact
stabilizer count behind simplicity, the integral of the moment map along
metric geodesics, and the descent flow onto the shifted moment-map level
set with ``descend``, the adaptive-step driver that the lattice heat flow
shares.

Directions and group elements enter as validated ``AlgebraElement`` and
``GroupElement``.  A weighted filtration's generator is its eigen-split,
read off the chain (``WeightedFiltration.split``), and never built as an
element: the maximal weight of a direction and the total weight of a
filtration share one V^- test on eigen-splits.  The point flow and the
stabilizer count check x once and then compute on tuples and stacks of
plain factor blocks through the slot kernel of ``reps``, as the lattice
does.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .groups import (
    FROZEN,
    AlgebraElement,
    DimensionMismatchError,
    GroupElement,
    ProductGroupSpec,
    SubgroupSetting,
    compact_basis,
    trace_pairing,
)
from .reps import (
    RepSpec,
    _flat_v,
    _hermitian_part,
    _spectral_split,
    act,
    apply_slots,
    generator_action,
    shifted_moment_blocks,
    slot_matrices,
    summand_weights,
)

MEMBERSHIP_TOL = 1e-10  # mass outside V^-, or outside the next chain entry, that counts as inside
STABILIZER_TOL = 1e-8  # relative singular value below which a stabilizer direction counts


@dataclass(frozen=True)
class WeightedFiltration:
    """Increasing chain of subspaces of one factor with increasing weights.

    ``chain[k]`` is an orthonormal column basis of the k-th subspace, which
    lies in the next one (projection residual below ``MEMBERSHIP_TOL``); the
    last entry spans the whole factor space.  The generator chi has
    eigenvalue -i*alpha_k on the k-th graded piece, i.e. i*chi has the
    increasing real eigenvalues alpha_1 < ... < alpha_r; ``split`` gives
    that eigen-split.
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
        if any(q.shape[0] != n for q in chain):
            raise ValueError(f"chain entries must have the {n} rows of the last one, "
                             f"got {[q.shape[0] for q in chain]}")
        # every entry lies in the last one, which spans the space
        for k, (a, b) in enumerate(zip(chain[:-2], chain[1:-1])):
            if np.linalg.norm(b @ (b.conj().T @ a) - a) > MEMBERSHIP_TOL:
                raise ValueError(f"chain entry {k} does not lie in entry {k + 1}")
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "weights", weights)

    @property
    def length(self):
        return len(self.chain)

    def split(self):
        """(w, v) with i*chi = v diag(w) v^dagger: w holds alpha_k once per
        dimension of the k-th graded piece, and v is a unitary adapted to the
        chain, its first dim chain[k] columns spanning chain[k].  v starts as
        chain[0]; each later step adds the leading left singular vectors of
        what the earlier columns leave of it."""
        v = self.chain[0]
        for q in self.chain[1:]:
            u = np.linalg.svd(q - v @ (v.conj().T @ q), full_matrices=False)[0]
            v = np.concatenate([v, u[:, :q.shape[1] - v.shape[1]]], axis=1)
        dims = [q.shape[1] for q in self.chain]
        return np.repeat(self.weights, [b - a for a, b in zip([0] + dims, dims)]), v


@dataclass
class StabilityVerdict:
    """A stability verdict at a point or on a curve: ``slack`` is the least
    total weight (a float, or an exact Fraction; None when vacuous or
    unsolvable) and ``witness`` describes a direction that attains it."""

    stable: bool
    slack: object = None
    witness: object = None
    marginal: bool = False
    unsolvable: bool = False
    note: str = ""

    def __post_init__(self):
        if self.slack is not None and not self.unsolvable and self.stable != (self.slack > 0):
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


def _v_minus_weight(x, splits, rep: RepSpec) -> float:
    """0 if x lies in V^-, the span of the eigenvectors of i*rho(s) with
    eigenvalue <= 0 (within 1e-9), else +inf, for s given per factor by the
    eigen-split (w, v) of i*s_f (v None: not rotated).  Rotated into those
    eigenbases, i*rho(s) is diagonal with the ``summand_weights`` of the w,
    so V^- is a set of coordinates."""
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    rotations = [None if v is None else v.conj().T for _, v in splits]
    y = apply_slots(slot_matrices(rotations, rep), x, rep)
    outside = y.reshape(rep.shape)[summand_weights([w for w, _ in splits], rep) > 1e-9]
    return 0.0 if np.linalg.norm(outside) <= MEMBERSHIP_TOL * nx else np.inf


def maximal_weight(x, s: AlgebraElement, rep: RepSpec) -> float:
    """The maximal weight of x for s, 0 or +inf by the V^- test: one ``eigh``
    of the Hermitian i*s_f per factor, none for a zero block (weights 0)."""
    x = _flat_v(x, rep)
    rep.spec.check_blocks(s.blocks)
    return _v_minus_weight(x, [np.linalg.eigh(_hermitian_part(1j * b)) if b.any()
                               else (np.zeros(len(b)), None) for b in s.blocks], rep)


def total_weight(x, filt: WeightedFiltration, c: AlgebraElement, rep: RepSpec) -> float:
    """lambda(x; chi) - <chi, c>: the total weight over a point, where the
    degree term is zero (the curve's degree term lives in the exact weights
    of ``fixtures``).  The filtration's own eigen-split goes to the V^- test,
    and chi = -i v diag(w) v^dagger is paired with c on its one factor."""
    x = _flat_v(x, rep)
    dims = rep.spec.factor_dims
    rep.spec.check_blocks(c.blocks)
    f = filt.factor
    if f not in range(len(dims)):
        raise DimensionMismatchError(f, len(dims), "factor count")
    if filt.chain[-1].shape[0] != dims[f]:
        raise DimensionMismatchError(f, dims[f], filt.chain[-1].shape[0])
    w, v = filt.split()
    lam = _v_minus_weight(x, [(w, v) if i == f else (np.zeros(n), None)
                              for i, n in enumerate(dims)], rep)
    if np.isinf(lam):
        return np.inf
    return lam - trace_pairing([-1j * (v * w) @ v.conj().T], [c.blocks[f]])


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
    weight -1 or 1 on the full space.  Their generators have eigenvalues
    in {0, +-i}.
    """
    r = len(filt_chain)
    gens = []
    for alpha in chain_generator_weights(r):
        keep = [k for k in range(r) if k == r - 1 or alpha[k] != alpha[k + 1]]
        gens.append(WeightedFiltration(factor, tuple(filt_chain[k] for k in keep),
                                       tuple(alpha[k] for k in keep)))
    return gens


def default_subspace_lattice(x, rep: RepSpec, factor=0):
    """Invariant-subspace candidates on one factor for desk-scale fixtures:
    the proper coordinate subspaces, plus the column space of x along the
    factor slot when it is proper and no coordinate subspace (projectors
    within 1e-10).  The factor must act on V through exactly one standard
    slot."""
    n = rep.spec.factor_dims[factor]
    axes = rep.factor_slots[factor]
    signs = [rep.axes[k][1] for k in axes]
    if signs != [1]:
        raise ValueError(f"factor {factor} must act through exactly one standard slot, "
                         f"got axis signs {signs}")
    t = np.asarray(x, dtype=complex).reshape(rep.shape)
    mat = np.moveaxis(t, axes[0], 0).reshape(n, -1)
    eye = np.eye(n, dtype=complex)
    subspaces = [eye[:, :k] for k in range(1, n)]
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(sv > 1e-10 * (sv[0] if sv.size and sv[0] > 0 else 1.0)))
    if 0 < rank < n:
        q = u[:, :rank]
        if np.linalg.norm(q @ q.conj().T - eye[:, :rank] @ eye[:rank]) >= 1e-10:
            subspaces.append(q)
    return subspaces


def stability_test(x, rep: RepSpec, spec: ProductGroupSpec, setting: SubgroupSetting,
                   factor=None) -> StabilityVerdict:
    """Algebraic stability of x for the subgroup action (base = point).

    The admissible weights of a chain form the cone spanned by its
    ``ssc_generators`` and the total weight is additive on that cone, so
    the generators decide its sign.  Each generator is a single step
    W < full with weights (-1, 0) or (0, 1), W one member of the chain, or
    the full space with weight -1 or 1.  So the least weight over every
    chain of the candidates is the least over single candidates: the test
    evaluates the central pair (the full space with weight -1 or 1) once
    and the lowering and the raising of W < full for each W of
    ``default_subspace_lattice`` on the designated unfrozen factor, and
    returns the minimal-slack verdict.  A generator whose V^- does not
    contain x has total weight +inf and so never wins.  The candidates lie
    in one factor, so ``factor`` may be left out only when a single factor
    is unfrozen.
    """
    if factor is None:
        nf = setting.unfrozen()
        if len(nf) > 1:
            raise ValueError(f"factors {nf} are unfrozen: stability_test examines the "
                             f"subspaces of one factor, so name it with factor=")
        factor = nf[0]
    x = _flat_v(x, rep)
    full = np.eye(spec.factor_dims[factor], dtype=complex)
    c = setting.central_shift
    best, witness = np.inf, None
    # the central pair once, then the lowering (-1, 0) and the raising (0, 1)
    # of each W < full; the other two generators of [W, full] are the central pair
    gens = ssc_generators([full], factor)
    for q in default_subspace_lattice(x, rep, factor):
        gens += [WeightedFiltration(factor, (q, full), alpha) for alpha in ((-1, 0), (0, 1))]
    for gen in gens:
        w = total_weight(x, gen, c, rep)
        if w < best:
            best, witness = w, gen
    return StabilityVerdict(stable=bool(best > 0.0), slack=float(best), witness=witness,
                            marginal=bool(abs(best) <= 1e-9))


# ---------------------------------------------------------------------------
# simplicity


def compact_stabilizer_dimension(x, rep: RepSpec, setting: SubgroupSetting):
    """Dimension of {s in h (compact) : rho(s) x = 0}.

    A nonzero solution is a semisimple infinitesimal stabilizer, so the
    configuration is not simple.  Each unfrozen factor applies its stacked
    ``compact_basis`` to x in one ``generator_action``; the dimension is the
    basis size minus the numerical rank (singular values above
    ``STABILIZER_TOL`` of the largest) of the real images.
    """
    x = _flat_v(x, rep)
    images = []
    for f in setting.unfrozen():
        basis = compact_basis(rep.spec.factor_dims[f])
        blocks = [basis if i == f else None for i in range(rep.spec.num_factors)]
        images.append(generator_action(blocks, np.broadcast_to(x, (len(basis), rep.dim)), rep))
    y = np.concatenate(images)
    sv = np.linalg.svd(np.concatenate([y.real, y.imag], axis=1), compute_uv=False)
    scale = sv[0] if sv[0] > 0 else 1.0
    return len(y) - int(np.sum(sv > STABILIZER_TOL * scale))


def is_simple(x, rep: RepSpec, setting: SubgroupSetting) -> bool:
    """No semisimple element of the subalgebra fixes x infinitesimally."""
    return compact_stabilizer_dimension(x, rep, setting) == 0


# ---------------------------------------------------------------------------
# integral of the moment map


def kn_functional(x, s: AlgebraElement, rep: RepSpec, spec: ProductGroupSpec,
                  setting: SubgroupSetting, quadrature_steps: int = 512) -> float:
    """Integral over t in [0,1] of <mu_h(e^{i t s} x) - c_h, s> for compact s.

    Composite Simpson quadrature with at least ``quadrature_steps`` panels
    is the definition.  One ``_spectral_split`` of the Hermitian i*s_f per
    factor gives e^{i t s_f} at every node as one stacked array; one
    ``act`` per node fills a preallocated (nodes, D) array, and the shifted
    moment maps (``shifted_moment_blocks``) and pairings of all nodes are
    taken on it.
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
        w, rebuild = _spectral_split(_hermitian_part(1j * b))  # i*s_f
        exps.append(rebuild(np.exp(np.outer(ts, w))))
    ys = np.empty((m + 1, rep.dim), dtype=complex)
    for k, blocks in enumerate(zip(*exps)):
        ys[k] = act(GroupElement(blocks), x, rep)
    # <mu_h - c_h, s> per node, summed over the unfrozen factors
    vals = sum(np.einsum("tij,ij->t", b, s.blocks[i].conj())
               for i, b in shifted_moment_blocks(ys, rep, setting).items()).real
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


STEP, STEP_CAP = 0.1, 1.0  # the first step of ``descend`` and the cap of its doubling


def descend(x, residual, move, tol, metric_cutoff, max_iter) -> Descent:
    """Adaptive-step descent of a residual norm, shared by the point and the
    lattice flows.

    ``residual(x)`` returns (r, norms, metric): norms[0] drives the policy
    and ``metric()`` measures the sup_log of that same x, called for the
    start and for each accepted trial only; ``move(x, r, step)`` returns the
    trial point.  A trial is accepted when it lowers norms[0]
    by a relative 1e-13 or reaches ``tol``: equal-residual steps are cycles
    (period-2 orbits have exactly equal residuals), not progress.  The step
    starts at ``STEP``, halves on a rejection and doubles after five
    straight accepts, up to ``STEP_CAP``.  A flow that does not converge
    stops with its reason: "non-finite residual", "stationary residual"
    (two consecutive trials, at step s and s/2, give exactly the current
    residual; one tie alone may be a period-2 orbit), "step underflow"
    (step below 1e-15), "metric blow-up" (sup_log passes ``metric_cutoff``)
    or "max_iter".  Converged means the final norms[0] is at most ``tol``.
    """
    r, norms, metric = residual(x)
    slog = metric()
    rows = [(0, *norms, slog)]
    rejections = []
    step = STEP
    accepted = ties = it = 0
    reason = "" if np.isfinite(norms[0]) else "non-finite residual"
    while not reason and it < max_iter and norms[0] > tol:
        it += 1
        cand = move(x, r, step)
        rc, nc, mc = residual(cand)
        if not np.isfinite(nc[0]):
            reason = "non-finite residual"
            break
        if nc[0] <= norms[0] * (1.0 - 1e-13) or nc[0] <= tol:
            x, r, norms = cand, rc, nc
            slog = mc()
            rows.append((it, *norms, slog))
            accepted += 1
            if accepted >= 5:
                step = min(2.0 * step, STEP_CAP)
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
                  max_iter=5000, tol=1e-9, h0: GroupElement = None,
                  metric_cutoff=50.0) -> FlowResult:
    """Descent on the integral of the moment map.

    The flow iterates on the tuple of factor blocks h, like the lattice heat
    flow: the residual is the ``shifted_moment_blocks`` of h x, its norm the
    ``trace_pairing``, and each accepted step multiplies the unfrozen blocks
    by exp(-i*step*residual) and passes the frozen ones through.
    ``descend`` holds the step policy and the stop reasons.  The trajectory
    lists the residual norm of the start and of each accepted step; one
    ``GroupElement`` is built, for the final h.
    """
    x = _flat_v(x, rep)
    unfrozen = setting.unfrozen()

    def residual(h):
        r = shifted_moment_blocks(apply_slots(slot_matrices(h, rep), x, rep), rep, setting)
        norm = float(np.sqrt(max(trace_pairing(r.values(), r.values()), 0.0)))
        return r, (norm,), lambda: sup_log(h)

    def move(h, r, step):
        return tuple(expm(-1j * step * r[i]) @ b if i in r else b for i, b in enumerate(h))

    def sup_log(h):  # half the largest |log| of an eigenvalue of h_f^dagger h_f
        evs = (np.clip(np.linalg.eigvalsh(h[i].conj().T @ h[i]), 1e-300, None) for i in unfrozen)
        return max(0.5 * float(np.max(np.abs(np.log(ev)))) for ev in evs)

    h = h0.blocks if h0 is not None else tuple(np.eye(n, dtype=complex) for n in spec.factor_dims)
    spec.check_blocks(h)
    d = descend(h, residual, move, tol, metric_cutoff, max_iter)
    return FlowResult(d.converged, d.iterations, d.norms[0], [row[1] for row in d.rows],
                      GroupElement(d.x), d.sup_log, d.rejections, d.reason)
