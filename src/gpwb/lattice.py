"""Flat-torus lattice gauge layer: link fields, curvature, dbar operators,
holomorphic sections, and the pointwise moment-map residual.

Conventions fixed here and relied on everywhere else:

* N x N periodic grid, spacing 1/N, total volume 1; site (s, t), axis 0
  hops s -> s+1, axis 1 hops t -> t+1.
* ``U[mu][s, t]`` transports fiber(x) -> fiber(x + mu_hat); covariant
  forward difference is U^-1 s(x + mu_hat) - s(x).
* links are unitary, and their inverse is taken as their adjoint
  (``require_unitary`` checks a link field once per flow and on loading).
* plaquette P(x) = U1(x)^-1 U0(x+t)^-1 U1(x+s) U0(x); the Hermitian
  curvature block is i N^2 log P(x), and the constant-curvature bundle
  with d holomorphic sections has i*Lambda F = +2 pi d.
* degrees are reported in units where a Chern-number-d line bundle has
  degree 2 pi d.

Transports, gauge and metric actions on V and the sitewise moment maps
all come from the slot kernel of ``gpwb.reps``, batched over the sites.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .groups import CONSTANT, FROZEN, FULL, ProductGroupSpec, SubgroupSetting
from .reps import (RepSpec, _batched_kron, apply_slots, moment_block, slot_matrices,
                   slot_operator)

TWO_PI = 2.0 * np.pi

# one-sided first-derivative stencils; order 3 keeps the symbol free of
# spurious zeros while order 1 reproduces the plain forward difference
STENCILS = {
    1: (-1.0, 1.0),
    3: (-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0),
}
DEFAULT_STENCIL = 3


@dataclass(frozen=True)
class TorusLattice:
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"lattice needs at least 4 sites per side, got {self.n}")

    @property
    def spacing(self):
        return 1.0 / self.n

    @property
    def sites(self):
        return self.n * self.n


def build_torus(n: int) -> TorusLattice:
    return TorusLattice(int(n))


@dataclass
class LatticeBundle:
    """Rank-r bundle: links[mu, s, t] is the r x r transport matrix."""

    lattice: TorusLattice
    rank: int
    links: np.ndarray  # (2, N, N, r, r) complex
    summand_degrees: tuple = ()  # intended Chern numbers when decomposable

    def copy(self):
        return LatticeBundle(self.lattice, self.rank, self.links.copy(), self.summand_degrees)


# largest entry of U Uᴴ - I accepted of a link field; the links are
# inverted by their adjoint, so a larger defect would be a wrong inverse
UNITARY_TOL = 1e-10


def require_unitary(links: np.ndarray, what="links"):
    """Raise ``ValueError`` unless every matrix of the stack is unitary to
    ``UNITARY_TOL`` (max |U Uᴴ - I|)."""
    eye = np.eye(links.shape[-1])
    defect = float(np.max(np.abs(links @ np.swapaxes(links, -1, -2).conj() - eye)))
    if not defect <= UNITARY_TOL:
        raise ValueError(f"{what} are not unitary: max |U Uᴴ - I| = {defect:.3e} "
                         f"> {UNITARY_TOL:g}")


def link_frame(links: np.ndarray):
    """The raw-link data every metric correction reuses: (the links, their
    inverses, the links shifted back one site along their own axis, and the
    inverses of those), each of shape (2, N, N, r, r).  The links must be
    unitary (``require_unitary``); their inverses are their adjoints."""
    require_unitary(links)
    inv = np.swapaxes(links, -1, -2).conj()
    back = np.stack([np.roll(links[mu], 1, axis=mu) for mu in (0, 1)])
    back_inv = np.stack([np.roll(inv[mu], 1, axis=mu) for mu in (0, 1)])
    return links, inv, back, back_inv


def trivial_bundle(lat: TorusLattice, rank=1) -> LatticeBundle:
    n = lat.n
    links = np.broadcast_to(np.eye(rank, dtype=complex), (2, n, n, rank, rank)).copy()
    return LatticeBundle(lat, rank, links, (0,) * rank)


def make_constant_curvature_line_bundle(lat: TorusLattice, d: int) -> LatticeBundle:
    """Abelian configuration with uniform plaquette phase and degree 2 pi d.

    Twisted-boundary construction: the s-links carry a t-dependent phase
    and one row of t-links closes the twist.  Guarded so each plaquette
    phase stays well inside the principal branch.
    """
    d = int(d)
    n = lat.n
    if abs(d) > n * n / 4:
        raise ValueError(f"degree {d} too large for an {n}x{n} lattice (|d| <= N^2/4)")
    s = np.arange(n)[:, None] * np.ones(n)[None, :]
    t = np.ones(n)[:, None] * np.arange(n)[None, :]
    u0 = np.exp(2j * np.pi * d * t / n**2)
    u1 = np.ones((n, n), dtype=complex)
    u1[:, n - 1] = np.exp(-2j * np.pi * d * s[:, n - 1] / n)
    links = np.zeros((2, n, n, 1, 1), dtype=complex)
    links[0, :, :, 0, 0] = u0
    links[1, :, :, 0, 0] = u1
    return LatticeBundle(lat, 1, links, (d,))


def direct_sum_bundle(lat: TorusLattice, degrees) -> LatticeBundle:
    """Block-diagonal sum of constant-curvature line bundles."""
    parts = [make_constant_curvature_line_bundle(lat, d) for d in degrees]
    r = len(parts)
    n = lat.n
    links = np.zeros((2, n, n, r, r), dtype=complex)
    for k, p in enumerate(parts):
        links[:, :, :, k, k] = p.links[:, :, :, 0, 0]
    return LatticeBundle(lat, r, links, tuple(int(d) for d in degrees))


def plaquette_field(links: np.ndarray) -> np.ndarray:
    """P(x) = U1(x)^-1 U0(x+t)^-1 U1(x+s) U0(x), shape (N, N, r, r)."""
    inv = np.swapaxes(links, -1, -2).conj()  # unitary links: inverse = adjoint
    return inv[1] @ np.roll(inv[0], -1, axis=1) @ np.roll(links[1], -1, axis=0) @ links[0]


def _log_unitary(p: np.ndarray) -> np.ndarray:
    """Principal log of a stack of (nearly) unitary matrices."""
    r = p.shape[-1]
    if r == 1:
        return 1j * np.angle(p)
    w, v = np.linalg.eig(p)
    lw = 1j * np.angle(w)
    out = v @ (lw[..., None] * np.linalg.inv(v))
    return 0.5 * (out - np.swapaxes(out, -1, -2).conj())


def _warn_near_branch_cut(angles):
    """Warn when a plaquette angle lies within 0.1 pi of the branch cut of
    the principal log, where curvature and degree may have wrapped."""
    if np.max(np.abs(angles)) > 0.9 * np.pi:
        warnings.warn("plaquette phase near the branch cut; degree may be ambiguous")


def curvature_field(bundle_links: np.ndarray, n: int) -> np.ndarray:
    """Hermitian blocks i N^2 log P(x) of shape (N, N, r, r)."""
    log_p = _log_unitary(plaquette_field(bundle_links))
    _warn_near_branch_cut(np.linalg.eigvalsh(-1j * log_p))
    return (1j * n * n) * log_p


def lattice_degree(bundle_or_links) -> float:
    """Integrated trace of i*Lambda F: minus the sum over plaquettes of
    arg det P in this orientation; equals 2 pi * (Chern number) for smooth
    configurations."""
    links = bundle_or_links.links if isinstance(bundle_or_links, LatticeBundle) else bundle_or_links
    p = plaquette_field(links)
    if p.shape[-1] == 1:
        ang = np.angle(p[..., 0, 0])
    else:
        ang = np.angle(np.linalg.det(p))
    _warn_near_branch_cut(ang)
    return float(-np.sum(ang))


# ---------------------------------------------------------------------------
# induced transports on V


def section_transport(rep: RepSpec, factor_links) -> np.ndarray:
    """Per-site, per-direction transport matrices on V, shape (2,N,N,D,D).

    ``factor_links[i]`` is the (2,N,N,n_i,n_i) link field of factor i.
    """
    return slot_operator(slot_matrices(factor_links, rep), rep, lead=factor_links[0].shape[:3])


# ---------------------------------------------------------------------------
# dbar operator and holomorphic sections


def dbar_matrix(lat: TorusLattice, vlinks: np.ndarray, order=DEFAULT_STENCIL) -> sp.csr_matrix:
    """Sparse forward covariant-difference operator D0 + i D1 on section
    fields, scaled by 1/spacing.

    ``order=1`` is the plain two-point forward difference
    (U^-1 s(x+mu) - s(x)) * N; ``order=3`` uses the four-point one-sided
    stencil with multi-step transports.
    """
    coef = STENCILS[order]
    n = lat.n
    dimv = vlinks.shape[-1]
    nsite = n * n
    rows, cols, vals = [], [], []
    eye = np.eye(dimv, dtype=complex)
    site_index = np.arange(nsite).reshape(n, n)

    for mu, weight in ((0, 1.0), (1, 1j)):
        # cumulative transports along direction mu: T[j] maps fiber(x) -> fiber(x+j mu)
        transport = np.broadcast_to(eye, (n, n, dimv, dimv)).copy()
        shifted = vlinks[mu].copy()
        for j, cj in enumerate(coef):
            if j == 0:
                blocks = (weight * cj * n) * np.broadcast_to(eye, (n, n, dimv, dimv))
                tgt = site_index
            else:
                transport = shifted @ transport if j > 1 else vlinks[mu].copy()
                blocks = (weight * cj * n) * np.linalg.inv(transport)
                tgt = np.roll(site_index, -j, axis=mu)
                shifted = np.roll(vlinks[mu], -j, axis=mu)
            src = site_index
            for a in range(dimv):
                for b in range(dimv):
                    rows.append((src * dimv + a).ravel())
                    cols.append((tgt * dimv + b).ravel())
                    vals.append(blocks[:, :, a, b].ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    out = sp.coo_matrix((vals, (rows, cols)), shape=(nsite * dimv, nsite * dimv))
    return out.tocsr()


# shift of the shift-invert solve: DᴴD + SECTION_SHIFT is positive definite,
# its inverse maps the kernel to 1 and the lowest nonzero mode of a line
# bundle of degree d >= 1 (eigenvalue 4 pi d of DᴴD) below 0.08
SECTION_SHIFT = 1.0


def _fixed_phases(size):
    """A fixed unit-modulus vector with pseudo-random phases: the ARPACK start
    vector and the phase reference of ``canonical_basis``.  A smooth section
    has an overlap with it of order one, unlike with a plane wave."""
    return np.exp(TWO_PI * 1j * np.random.default_rng(0).random(size))


def canonical_basis(kernel: np.ndarray, n: int, dimv: int) -> np.ndarray:
    """Orthonormal basis of the column span of ``kernel`` (shape
    (N*N*D, m), orthonormal columns) that depends only on that span.

    The columns are the eigenvectors of a fixed real weight on (site,
    component) compressed to the span, in ascending order of eigenvalue,
    each phased so that its overlap with ``_fixed_phases`` is real and
    positive.  The basis is unique whenever the compressed weight has a
    simple spectrum.  The weight is smooth, so the compressed spectrum of
    smooth sections is spread over O(1), and no lattice translation or
    reflection leaves it invariant, since such symmetries permute the
    sections of a constant-curvature bundle.
    """
    s, t, a = np.meshgrid(np.arange(n) / n, np.arange(n) / n, np.arange(dimv),
                          indexing="ij")
    w = (np.cos(TWO_PI * s) + 0.7 * np.sin(TWO_PI * t)
         + 0.3 * np.cos(TWO_PI * (s + 2 * t)) + a).ravel()
    _, c = np.linalg.eigh(kernel.conj().T @ (w[:, None] * kernel))
    basis = kernel @ c
    overlap = _fixed_phases(len(w)).conj() @ basis
    return basis * (overlap.conj() / np.abs(overlap))


def holomorphic_sections(lat: TorusLattice, vlinks: np.ndarray, count: int,
                         strict=False, gap_tol=1e-6):
    """Orthonormal numerical kernel vectors of the dbar operator D.

    Returns (sections, residuals, gap_ratio) where ``sections`` has shape
    (count, N, N, D), ``residuals`` are the ``count`` smallest singular
    values of D and ``gap_ratio`` is the next one over the largest residual.
    With ``strict`` the call fails when the requested count exceeds the
    numerical kernel (gap test at ``gap_tol``).

    Sparse path: shift-invert ARPACK on DᴴD (sparse LU of DᴴD +
    SECTION_SHIFT, fixed start vector) gives the ``count + 1`` lowest modes;
    QR makes them orthonormal (ARPACK drifts inside a degenerate kernel),
    and a thin SVD of D on that block gives the singular values to full
    accuracy (the eigenvalues of DᴴD carry only sqrt(eps)).  The kernel is
    returned in ``canonical_basis``, so the sections depend only on the
    kernel subspace, not on the solver, the BLAS or the thread count.  The
    tests keep the dense SVD of D as the reference.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = lat.n
    dimv = vlinks.shape[-1]
    D = dbar_matrix(lat, vlinks)
    size = D.shape[1]
    gram = (D.conj().T @ D).tocsc()
    # a minimum-degree ordering of the symmetric pattern: at N = 64 the LU
    # holds 1.5M nonzeros against 2.7M with the default COLAMD, 4x faster
    lu = spla.splu(gram + SECTION_SHIFT * sp.identity(size, format="csc"),
                   permc_spec="MMD_AT_PLUS_A")
    inverse = spla.LinearOperator((size, size), matvec=lu.solve, dtype=complex)
    _, modes = spla.eigsh(gram, k=count + 1, sigma=-SECTION_SHIFT, OPinv=inverse,
                          v0=_fixed_phases(size))
    q, _ = np.linalg.qr(modes)
    _, svals, wh = np.linalg.svd(D @ q, full_matrices=False)
    svals = svals[::-1]
    block = q @ wh[::-1].conj().T
    residuals = svals[:count]
    nxt = svals[count]
    gap_ratio = float(nxt / max(residuals[-1], 1e-300))
    if strict and (residuals[-1] > gap_tol * nxt):
        raise ValueError(
            f"requested {count} sections but numerical kernel is smaller; "
            f"residuals {residuals}, next singular value {nxt:.3e}"
        )
    secs = canonical_basis(block[:, :count], n, dimv).T.reshape(count, n, n, dimv)
    # L2-normalise with volume weight 1/N^2
    return secs * n, residuals, gap_ratio


# ---------------------------------------------------------------------------
# pair state


@dataclass
class FactorState:
    bundle: LatticeBundle
    mode: str  # full / frozen / constant

    def copy(self):
        return FactorState(self.bundle.copy(), self.mode)


@dataclass
class LatticePairState:
    """Holomorphic data (links + section) with per-factor metric exponents.

    The holomorphic pair never changes; flows act on the metric exponents
    ``u`` (Hermitian per site for mode "full", one global Hermitian matrix
    for mode "constant", absent for frozen factors).
    """

    lattice: TorusLattice
    spec: ProductGroupSpec
    rep: RepSpec
    setting: SubgroupSetting
    factors: list
    section: np.ndarray  # (N, N, D)
    construction_residual: float = 0.0
    kind: str = ""
    params: dict = field(default_factory=dict)
    u: dict = field(default_factory=dict)  # factor index -> exponent array

    def __post_init__(self):
        for i, f in enumerate(self.factors):
            if i in self.u:
                continue
            n = self.spec.factor_dims[i]
            if f.mode == FULL:
                self.u[i] = np.zeros((self.lattice.n, self.lattice.n, n, n), complex)
            elif f.mode == CONSTANT:
                self.u[i] = np.zeros((n, n), complex)

    def copy(self):
        st = LatticePairState(
            self.lattice, self.spec, self.rep, self.setting,
            [f.copy() for f in self.factors], self.section.copy(),
            self.construction_residual, self.kind, dict(self.params),
            {k: v.copy() for k, v in self.u.items()},
        )
        return st

    def corrected_links(self, i, frame=None):
        """Metric-corrected unitary links of factor i (transverse-gradient
        phase correction; exact curvature response for abelian factors).
        ``frame`` is the ``link_frame`` of its raw links, if the caller
        keeps one."""
        f = self.factors[i]
        if f.mode != FULL:
            return f.bundle.links
        return corrected_links(f.bundle.links, self.u[i], frame)

    def metric_frame_section(self):
        """Section in the metric-orthonormal frame: act(e^{u(x)}, Phi(x))."""
        return apply_metric_exponents(self.section, self.rep, self.u, self.factors)

    def sup_log_metric(self):
        worst = 0.0
        for i, f in enumerate(self.factors):
            if f.mode == FROZEN:
                continue
            uu = self.u[i]
            if uu.shape[-1] == 1:
                ev = uu.real  # the eigenvalue of the Hermitian part of a 1 x 1 block
            else:
                ev = np.linalg.eigvalsh(0.5 * (uu + np.swapaxes(uu, -1, -2).conj()))
            if ev.size:
                worst = max(worst, 2.0 * float(np.max(np.abs(ev))))
        return worst


def corrected_links(links: np.ndarray, u: np.ndarray, frame=None) -> np.ndarray:
    """Multiply links by exp(-i * kappa * transverse centered difference of u).

    kappa = -1: the s-links pick up the centered t-difference and the
    t-links minus the centered s-difference, transported to the base site.
    The induced change of i N^2 log P is, to first order where the
    plaquettes are trivial, the operator ``curvature_response_matrix(lat,
    links)`` (exactly, for abelian factors).  ``frame`` is the
    ``link_frame`` of ``links``, when the caller keeps one; at rank 1 the
    transports cancel (G^-1 u G = u) and neither is needed.
    """
    if links.shape[-1] == 1:
        diff = [0.5 * (np.roll(u, -1, axis=nu) - np.roll(u, 1, axis=nu)) for nu in (0, 1)]
    else:
        _, inv, back, back_inv = link_frame(links) if frame is None else frame
        # neighbour values of u along direction nu, transported to the base site
        diff = [0.5 * (inv[nu] @ np.roll(u, -1, axis=nu) @ links[nu]
                       - back[nu] @ np.roll(u, 1, axis=nu) @ back_inv[nu]) for nu in (0, 1)]

    # both directions through one exponential
    return links @ _expm_herm(np.stack((-1j * diff[1], 1j * diff[0])))


def _expm_herm(a):
    """exp of a stack of anti-Hermitian matrices i*H (returns unitaries)."""
    r = a.shape[-1]
    if r == 1:
        return np.exp(a)
    h = 0.5 * (a - np.swapaxes(a, -1, -2).conj()) / 1j
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def _response_transports(frame, mu, hops):
    """(G^-1, G) per site for the transport G of fiber(x) to fiber(x + hops
    mu) along axis mu, for hops in {-1, 1, 2}; ``frame`` is a ``link_frame``."""
    links, inv, back, back_inv = frame
    if hops == 1:
        return inv[mu], links[mu]
    if hops == -1:
        return back[mu], back_inv[mu]
    return (inv[mu] @ np.roll(inv[mu], -1, axis=mu),
            np.roll(links[mu], -1, axis=mu) @ links[mu])


def curvature_response_matrix(lat: TorusLattice, links=None) -> sp.csr_matrix:
    """Linear response L_A of the curvature i N^2 log P to the metric
    exponent u under ``corrected_links``, on fields flattened over (site,
    a, b).

    Each neighbour value u(x+o) enters transported to the base site,
    G^-1 u(x+o) G with G the product of the raw links along the axis, so
    its block is kron(G^-1, G^T) times the stencil weight; L_A is gauge
    covariant and, for unitary links, its Hermitian part is positive
    semidefinite.  It is the exact response where the plaquettes are
    trivial.  Without ``links``, or at rank 1, the transports cancel and
    this is the real, translation-invariant stencil of the abelian
    response, exact at every curvature.
    """
    n = lat.n
    n2 = n * n
    r = 1 if links is None else links.shape[-1]
    r2 = r * r
    shape = (n2, r2, r2)
    idx = np.arange(n2).reshape(n, n)
    comp = np.arange(r2)
    frame = link_frame(links) if r > 1 else None
    row = np.broadcast_to(idx.reshape(n2, 1, 1) * r2 + comp[:, None], shape).ravel()
    # stencil of -N^2 * gamma * circ with gamma = -1 (see corrected_links):
    # (axis, signed number of hops along it) -> weight; zero hops is the centre
    offsets = {(0, 0): 1.0, (0, 1): 0.5, (1, 1): 0.5, (0, -1): -0.5,
               (1, -1): -0.5, (0, 2): -0.5, (1, 2): -0.5}
    rows, cols, vals = [], [], []
    for (mu, hops), w in offsets.items():
        tgt = np.roll(idx, -hops, axis=mu)
        if r == 1 or hops == 0:
            block = np.eye(r2)
        else:
            ginv, g = _response_transports(frame, mu, hops)
            block = _batched_kron(ginv, np.swapaxes(g, -1, -2)).reshape(shape)
        rows.append(row)
        cols.append(np.broadcast_to(tgt.reshape(n2, 1, 1) * r2 + comp, shape).ravel())
        vals.append(np.broadcast_to(w * n * n * block, shape).ravel())
    L = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n2 * r2, n2 * r2),
    )
    return L.tocsr()


# ---------------------------------------------------------------------------
# metric-frame section and batched moment maps


def apply_metric_exponents(section, rep: RepSpec, u: dict, factors) -> np.ndarray:
    """act(e^{u(x)}, Phi(x)) sitewise, for the tuple of metric exponents;
    constant-mode exponents broadcast over the sites."""
    blocks = [_expm_pos(u[i]) if i in u else None for i in range(len(factors))]
    return apply_slots(slot_matrices(blocks, rep), section, rep)


def _expm_pos(u):
    """exp of a stack of Hermitian matrices (positive result)."""
    r = u.shape[-1]
    if r == 1:
        return np.exp(u.real)
    h = 0.5 * (u + np.swapaxes(u, -1, -2).conj())
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def random_unitary_gauge(spec: ProductGroupSpec, lat: TorusLattice, rng):
    """Site-dependent unitary gauge transformation, one field per factor."""
    out = []
    for n in spec.factor_dims:
        a = rng.standard_normal((lat.n, lat.n, n, n)) + 1j * rng.standard_normal(
            (lat.n, lat.n, n, n)
        )
        q, r = np.linalg.qr(a)
        d = np.einsum("xyii->xyi", r)
        q = q * (d / np.abs(d))[..., None, :]
        out.append(q)
    return out


def gauge_transform(state: LatticePairState, kfields) -> LatticePairState:
    """Apply a sitewise unitary gauge transformation to the whole state:
    links conjugate, the section transforms through the representation and
    metric exponents conjugate."""
    new = state.copy()
    for i, f in enumerate(new.factors):
        k = kfields[i]
        for mu in (0, 1):
            kf = np.roll(k, -1, axis=mu)
            f.bundle.links[mu] = kf @ f.bundle.links[mu] @ np.swapaxes(k, -1, -2).conj()
        if f.mode == FULL:
            new.u[i] = k @ new.u[i] @ np.swapaxes(k, -1, -2).conj()
    new.section = apply_slots(slot_matrices(kfields, new.rep), new.section, new.rep)
    return new


def pointwise_residual(state: LatticePairState, frames=None):
    """Skew-Hermitian residual blocks of the shifted subgroup moment map.

    Per site and unfrozen factor: N^2 log P + mu_f(Psi) + i c_f I, with the
    constant-mode blocks replaced by their site average.  Returns
    (blocks dict, l2 norm, linf norm); norms use the volume-1 weighting.
    ``frames`` maps each FULL factor to the ``link_frame`` of its raw
    links, for callers that evaluate the residual many times.
    """
    n = state.lattice.n
    psi = state.metric_frame_section()
    blocks = {}
    for i, f in enumerate(state.factors):
        if f.mode == FROZEN:
            continue
        ni = state.spec.factor_dims[i]
        c_i = state.setting.central_scalars[i]
        mu = moment_block(psi, state.rep, i)
        if f.mode == CONSTANT:
            r = np.mean(mu, axis=(0, 1)) + 1j * c_i * np.eye(ni)
            blocks[i] = np.broadcast_to(r, (n, n, ni, ni)).copy()
        else:
            links = state.corrected_links(i, frames[i] if frames else None)
            lam = _log_unitary(plaquette_field(links)) * (n * n)
            r = lam + mu + 1j * c_i * np.eye(ni)
            blocks[i] = r
    sq = 0.0
    linf = 0.0
    for i, r in blocks.items():
        if state.factors[i].mode == CONSTANT:
            sq += float(np.sum(np.abs(r[0, 0]) ** 2))
            linf = max(linf, float(np.linalg.norm(r[0, 0])))
        else:
            persite = np.sum(np.abs(r) ** 2, axis=(2, 3))
            sq += float(np.mean(persite))
            linf = max(linf, float(np.sqrt(np.max(persite))))
    return blocks, float(np.sqrt(sq)), linf
