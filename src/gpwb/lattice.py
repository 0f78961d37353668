"""Flat-torus lattice gauge layer: link fields, curvature, dbar operators,
holomorphic sections, and the pointwise moment-map residual.

Conventions fixed here and relied on everywhere else:

* N x N periodic grid, spacing 1/N, total volume 1; site (s, t), axis 0
  hops s -> s+1, axis 1 hops t -> t+1.  Every neighbour read is
  ``shift(a, mu, k)``, the field x -> a(x + k mu_hat).
* ``U[mu][s, t]`` transports fiber(x) -> fiber(x + mu_hat); covariant
  forward difference is U^-1 s(x + mu_hat) - s(x).
* links are unitary, and their inverse is taken as their adjoint
  (``require_unitary`` checks the raw links once per flow, at a rank > 1
  curvature response and on loading); only ``dbar_matrix`` inverts its
  transports by ``np.linalg.inv``.
* functions and eigenvalues of Hermitian stacks go through
  ``reps._spectral_split`` (closed forms at rank 1 and 2, eigh above); the
  log of the unitary plaquette, ``_log_unitary``, is closed-form at rank 1
  and 2 (``_pauli``) and takes eig above.
* a transport along an axis is the product of the links crossed
  (``_axis_transport``), and the dbar operator and the curvature
  response are block stencils of such transports (``_stencil_operator``).
* plaquette P(x) = U1(x)^-1 U0(x+t)^-1 U1(x+s) U0(x); the Hermitian
  curvature block is i N^2 log P(x), and the constant-curvature bundle
  with d holomorphic sections has i*Lambda F = +2 pi d.
* degrees are reported in units where a Chern-number-d line bundle has
  degree 2 pi d.
* a ``LatticePairState`` holds each fact once: the lattice, the
  representation (whose ``spec`` is the group), the subgroup setting
  (the mode of each factor), one ``LatticeBundle`` (links and summand
  degrees) per factor, the section and the metric exponents; it refuses
  parts that disagree.  A constant-mode factor's exponent and residual are
  single (n, n) blocks, not per-site copies.

Transports, gauge and metric actions on V, the sitewise shifted moment
maps, stacked products (``_matmul``), Hermitian parts and functions of
Hermitian matrices all come from ``gpwb.reps``, the slot kernel and its
helpers, batched over the sites.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .groups import (CONSTANT, FROZEN, FULL, UNITARY_TOL, ProductGroupSpec, SubgroupSetting,
                     haar_unitary)
from .reps import (RepSpec, _batched_kron, _gram, _hermitian_function, _hermitian_part, _matmul,
                   _pauli, _rebuild, _spectral_split, apply_slots, shifted_moment_blocks,
                   slot_matrices, slot_operator)

TWO_PI = 2.0 * np.pi

# the four-point one-sided first-derivative stencil of the dbar operator; it
# keeps the symbol free of spurious zeros, which the two-point one is not
STENCIL = (-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0)


@dataclass(frozen=True)
class TorusLattice:
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"lattice needs at least 4 sites per side, got {self.n}")

    @property
    def sites(self):
        return self.n * self.n


def build_torus(n: int) -> TorusLattice:
    return TorusLattice(int(n))


def shift(a: np.ndarray, mu: int, k: int = 1) -> np.ndarray:
    """The field x -> a(x + k mu_hat) on the periodic grid (axis ``mu`` of ``a``)."""
    return a.take((np.arange(a.shape[mu]) + k) % a.shape[mu], axis=mu)


@dataclass
class LatticeBundle:
    """Rank-r bundle: links[mu, s, t] is the r x r transport matrix."""

    links: np.ndarray  # (2, N, N, r, r) complex
    summand_degrees: tuple = ()  # intended Chern numbers when decomposable

    def copy(self):
        return LatticeBundle(self.links.copy(), self.summand_degrees)


def require_unitary(links: np.ndarray, what="links"):
    """Raise ``ValueError`` unless every matrix of the stack is unitary to
    ``UNITARY_TOL`` (max |U Uᴴ - I|)."""
    defect = float(np.max(np.abs(_gram(links) - np.eye(links.shape[-1]))))
    if not defect <= UNITARY_TOL:
        raise ValueError(f"{what} are not unitary: max |U Uᴴ - I| = {defect:.3e} "
                         f"> {UNITARY_TOL:g}")


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
    return LatticeBundle(links, (d,))


def direct_sum_bundle(lat: TorusLattice, degrees) -> LatticeBundle:
    """Block-diagonal sum of constant-curvature line bundles."""
    parts = [make_constant_curvature_line_bundle(lat, d) for d in degrees]
    r = len(parts)
    n = lat.n
    links = np.zeros((2, n, n, r, r), dtype=complex)
    for k, p in enumerate(parts):
        links[:, :, :, k, k] = p.links[:, :, :, 0, 0]
    return LatticeBundle(links, tuple(int(d) for d in degrees))


def plaquette_field(links: np.ndarray) -> np.ndarray:
    """P(x) = U1(x)^-1 U0(x+t)^-1 U1(x+s) U0(x), shape (N, N, r, r)."""
    inv = np.swapaxes(links, -1, -2).conj()  # unitary links: inverse = adjoint
    return reduce(_matmul, (inv[1], shift(inv[0], 1), shift(links[1], 0), links[0]))


def _log_unitary(p: np.ndarray) -> np.ndarray:
    """Principal log of a stack of (nearly) unitary matrices.

    Rank 2 in closed form: P = e^{i phi} Q with phi = arg det P / 2, and Q
    has eigenvalues e^{± i theta} on the eigenlines of the Hermitian part of
    -iQ; phi ± theta are wrapped into (-pi, pi].  No inverse is taken.
    """
    r = p.shape[-1]
    if r == 1:
        return 1j * np.angle(p)
    if r == 2:
        phi = 0.5 * np.angle(p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0])
        q = np.exp(-1j * phi)[..., None, None] * p
        _, k, rk = _pauli(_hermitian_part(-1j * q))
        theta = np.arctan2(rk, 0.5 * (q[..., 0, 0] + q[..., 1, 1]).real)
        wrap_p = np.ceil((phi + theta - np.pi) / TWO_PI)  # phi ± theta - 2 pi wrap_±
        wrap_m = np.ceil((phi - theta - np.pi) / TWO_PI)
        return _rebuild(1j * (phi - np.pi * (wrap_p + wrap_m)),
                        1j * (theta - np.pi * (wrap_p - wrap_m)), k, rk)
    w, v = np.linalg.eig(p)
    lw = 1j * np.angle(w)
    out = _matmul(v, lw[..., None] * np.linalg.inv(v))
    return 0.5 * (out - np.swapaxes(out, -1, -2).conj())


def _warn_near_branch_cut(angles):
    """Warn when a plaquette angle lies within 0.1 pi of the branch cut of
    the principal log, where curvature and degree may have wrapped."""
    if np.max(np.abs(angles)) > 0.9 * np.pi:
        warnings.warn("plaquette phase near the branch cut; degree may be ambiguous")


def curvature_field(bundle_links: np.ndarray, n: int) -> np.ndarray:
    """Hermitian blocks i N^2 log P(x) of shape (N, N, r, r)."""
    log_p = _log_unitary(plaquette_field(bundle_links))
    _warn_near_branch_cut(_spectral_split(-1j * log_p)[0])
    return (1j * n * n) * log_p


def lattice_degree(bundle_or_links) -> float:
    """Integrated trace of i*Lambda F: minus the sum over plaquettes of
    arg det P in this orientation; equals 2 pi * (Chern number) for smooth
    configurations."""
    links = bundle_or_links.links if isinstance(bundle_or_links, LatticeBundle) else bundle_or_links
    ang = np.angle(np.linalg.det(plaquette_field(links)))
    _warn_near_branch_cut(ang)
    return float(-np.sum(ang))


# ---------------------------------------------------------------------------
# transports and block stencils


def section_transport(rep: RepSpec, factor_links) -> np.ndarray:
    """Per-site, per-direction transport matrices on V, shape (2,N,N,D,D).

    ``factor_links[i]`` is the (2,N,N,n_i,n_i) link field of factor i.
    """
    return slot_operator(slot_matrices(factor_links, rep), rep, lead=factor_links[0].shape[:3])


def _axis_transport(links: np.ndarray, mu: int, hops: int) -> np.ndarray:
    """Transport of fiber(x) to fiber(x + hops mu_hat) along axis mu, shape
    (N, N, r, r): the product of the links crossed on the way, or for
    hops < 0 of the adjoints of the links crossed backwards.  Its inverse
    is the transport back from the far end, ``shift(_axis_transport(links,
    mu, -hops), mu, hops)``, exact for unitary links."""
    step = links[mu] if hops > 0 else shift(np.swapaxes(links[mu], -1, -2).conj(), mu, -1)
    out = step
    for j in range(1, abs(hops)):
        # ``@``: the stencil operators match their blockwise assembly bit for bit
        out = shift(step, mu, j if hops > 0 else -j) @ out
    return out


def _stencil_operator(n: int, terms) -> sp.csr_matrix:
    """CSR matrix of the block stencil (A f)(x) = sum over the terms (mu,
    hops, block) of block(x) f(x + hops mu_hat), on fields flattened over
    (site, component); each block broadcasts to (N, N, d, d)."""
    site = np.arange(n * n).reshape(n, n, 1, 1)
    rows, cols, vals = [], [], []
    for mu, hops, block in terms:
        d = block.shape[-1]
        comp = np.arange(d)
        shape = (n, n, d, d)
        rows.append(np.broadcast_to(site * d + comp[:, None], shape).ravel())
        cols.append(np.broadcast_to(shift(site, mu, hops) * d + comp, shape).ravel())
        vals.append(np.broadcast_to(block, shape).ravel())
    size = n * n * d
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size)).tocsr()


# ---------------------------------------------------------------------------
# dbar operator and holomorphic sections


def dbar_matrix(lat: TorusLattice, vlinks: np.ndarray) -> sp.csr_matrix:
    """Sparse forward covariant-difference operator D0 + i D1 on section
    fields, scaled by N (one over the spacing).

    Each direction is the four-point one-sided ``STENCIL``, whose j-hop
    term takes s(x + j mu) back to x by the ``np.linalg.inv`` of the
    ``_axis_transport`` of ``vlinks``.
    """
    n = lat.n
    eye = np.eye(vlinks.shape[-1], dtype=complex)
    terms = []
    for mu, weight in ((0, 1.0), (1, 1j)):
        for j, cj in enumerate(STENCIL):
            back = eye if j == 0 else np.linalg.inv(_axis_transport(vlinks, mu, j))
            terms.append((mu, j, (weight * cj * n) * back))
    return _stencil_operator(n, terms)


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


def holomorphic_sections(lat: TorusLattice, vlinks: np.ndarray, count: int):
    """Orthonormal numerical kernel vectors of the dbar operator D.

    Returns (sections, residuals, gap_ratio) where ``sections`` has shape
    (count, N, N, D), ``residuals`` are the ``count`` smallest singular
    values of D and ``gap_ratio`` is the next one over the largest residual,
    small when the requested count exceeds the numerical kernel.  D is
    square, so its near-kernel has the size of its near-cokernel: on each
    line-bundle summand the count of small singular values is the larger of
    h0 and h1.  So a count is h0 only where h1 = 0: L_-1 shows one, like
    L_1, and L_0 + L_-1 two, although h0 = 1.

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
    try:
        _, modes = spla.eigsh(gram, k=count + 1, sigma=-SECTION_SHIFT, OPinv=inverse,
                              v0=_fixed_phases(size))
    except spla.ArpackNoConvergence as err:
        raise ValueError(f"ARPACK did not converge on {count + 1} modes for {count} sections "
                         f"at N = {n}: {err}") from err
    q, _ = np.linalg.qr(modes)
    _, svals, wh = np.linalg.svd(D @ q, full_matrices=False)
    svals = svals[::-1]
    block = q @ wh[::-1].conj().T
    residuals = svals[:count]
    gap_ratio = float(svals[count] / max(residuals[-1], 1e-300))
    secs = canonical_basis(block[:, :count], n, dimv).T.reshape(count, n, n, dimv)
    # L2-normalise with volume weight 1/N^2
    return secs * n, residuals, gap_ratio


# ---------------------------------------------------------------------------
# pair state


def _require_shape(array, shape, what):
    if np.shape(array) != shape:
        raise ValueError(f"{what} has shape {np.shape(array)}, expected {shape}")


@dataclass
class LatticePairState:
    """Holomorphic data (one bundle per factor and a section) with
    per-factor metric exponents.

    Each fact is held once: the group is ``rep.spec`` (read as ``spec``),
    a factor's mode is ``setting.modes[i]`` and its rank is
    ``spec.factor_dims[i]``.  The holomorphic pair never changes; flows act
    on the metric exponents ``u`` (Hermitian per site, (N, N, n, n), for
    mode "full", one global Hermitian (n, n) matrix for mode "constant",
    absent for frozen factors; missing ones start at zero).  Construction
    raises ``ValueError`` when the parts disagree: a setting of another
    group, one bundle too few or too many, a links, section or exponent
    array of the wrong shape, or an exponent of a frozen or absent factor.
    """

    lattice: TorusLattice
    rep: RepSpec
    setting: SubgroupSetting
    bundles: list
    section: np.ndarray  # (N, N, D)
    kind: str = ""
    u: dict = field(default_factory=dict)  # factor index -> exponent array

    def __post_init__(self):
        spec, n = self.rep.spec, self.lattice.n
        if self.setting.spec != spec:
            raise ValueError(f"setting is for factors {self.setting.spec.factor_dims}, "
                             f"the representation for {spec.factor_dims}")
        if len(self.bundles) != spec.num_factors:
            raise ValueError(f"{len(self.bundles)} bundles for {spec.num_factors} factors")
        _require_shape(self.section, (n, n, self.rep.dim), "section")
        shapes = {}
        for i, (b, r, mode) in enumerate(zip(self.bundles, spec.factor_dims, self.setting.modes)):
            _require_shape(b.links, (2, n, n, r, r), f"links of factor {i}")
            if mode != FROZEN:
                shapes[i] = (n, n, r, r) if mode == FULL else (r, r)
        if not set(self.u) <= set(shapes):
            raise ValueError(f"metric exponents for factors {sorted(set(self.u) - set(shapes))}, "
                             f"which are frozen or absent")
        for i, shape in shapes.items():
            if i not in self.u:
                self.u[i] = np.zeros(shape, complex)
            _require_shape(self.u[i], shape, f"metric exponent of factor {i}")

    @property
    def spec(self) -> ProductGroupSpec:
        return self.rep.spec

    def copy(self):
        return LatticePairState(
            self.lattice, self.rep, self.setting, [b.copy() for b in self.bundles],
            self.section.copy(), self.kind,
            {k: v.copy() for k, v in self.u.items()},
        )

    def metric_frame_section(self):
        """Section in the metric-orthonormal frame: act(e^{u(x)}, Phi(x))."""
        return apply_metric_exponents(self.section, self.rep, _metric_splits(self.u))


def corrected_links(links: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Multiply links by exp(-i * kappa * transverse centered difference of u).

    kappa = -1: the s-links pick up the centered t-difference and the
    t-links minus the centered s-difference, transported to the base site.
    The induced change of i N^2 log P is, to first order where the
    plaquettes are trivial, the operator ``curvature_response_matrix(lat,
    links)`` (exactly, for abelian factors).  The links must be unitary: a
    transport is inverted by the adjoint ``adj`` of the links, unchecked
    here (``heat_flow`` checks its raw links once).  At rank 1 the
    transports cancel (G^-1 u G = u) and are skipped.
    """
    # F u' Fᴴ, F = (U0ᴴ, U1ᴴ, U0, U1), u' = (u(x + s), u(x + t), u, u): the
    # neighbour values taken back to the base site, the base value forward
    moved = np.stack((shift(u, 0), shift(u, 1), u, u))
    if links.shape[-1] > 1:
        frame = np.concatenate((np.swapaxes(links, -1, -2).conj(), links))
        moved = _matmul(_matmul(frame, moved), np.swapaxes(frame, -1, -2).conj())
    diff = [0.5 * (moved[nu] - shift(moved[2 + nu], nu, -1)) for nu in (0, 1)]
    # both directions through one exponential
    return _matmul(links, _hermitian_function(_hermitian_part(np.stack((-diff[1], diff[0]))),
                                              lambda w: np.exp(1j * w)))


def curvature_response_matrix(lat: TorusLattice, links=None) -> sp.csr_matrix:
    """Linear response L_A of the curvature i N^2 log P to the metric
    exponent u under ``corrected_links``, on fields flattened over (site,
    a, b).

    Each neighbour value u(x+o) enters transported to the base site,
    G^-1 u(x+o) G with G the ``_axis_transport`` of the raw links, so its
    block is kron(G^-1, G^T) times the stencil weight; the links must be
    unitary (checked at rank > 1), and G^-1 is the transport back, the
    product of the link adjoints in reverse order.  L_A is gauge covariant
    and its Hermitian part is positive semidefinite.  It is the exact
    response where the plaquettes are trivial.  Without ``links``, or at
    rank 1, the transports cancel and this is the real,
    translation-invariant stencil of the abelian response, exact at every
    curvature.
    """
    n = lat.n
    r = 1 if links is None else links.shape[-1]
    if r > 1:
        require_unitary(links)
    # stencil of -N^2 * gamma * circ with gamma = -1 (see corrected_links):
    # (axis, signed number of hops along it) -> weight; zero hops is the centre
    offsets = {(0, 0): 1.0, (0, 1): 0.5, (1, 1): 0.5, (0, -1): -0.5,
               (1, -1): -0.5, (0, 2): -0.5, (1, 2): -0.5}
    terms = []
    for (mu, hops), w in offsets.items():
        if r == 1 or hops == 0:
            block = np.eye(r * r)
        else:
            g = _axis_transport(links, mu, hops)
            ginv = shift(_axis_transport(links, mu, -hops), mu, hops)
            block = _batched_kron(ginv, np.swapaxes(g, -1, -2))
        terms.append((mu, hops, w * n * n * block))
    return _stencil_operator(n, terms)


# ---------------------------------------------------------------------------
# metric-frame section and batched moment maps


def _metric_splits(u: dict) -> dict:
    """factor -> the ``_spectral_split`` (eigenvalues, rebuild) of the
    Hermitian part of its metric exponent."""
    return {i: _spectral_split(_hermitian_part(uu)) for i, uu in u.items()}


def _sup_log(splits: dict) -> float:
    """sup over the sites and factors of |log e^{2u}|: 2 max |eigenvalue of
    u| over the ``_metric_splits`` of the exponents."""
    worst = 0.0
    for ev, _ in splits.values():
        if ev.size:
            worst = max(worst, 2.0 * float(np.max(np.abs(ev))))
    return worst


def apply_metric_exponents(section, rep: RepSpec, splits: dict) -> np.ndarray:
    """act(e^{u(x)}, Phi(x)) sitewise, from the ``_metric_splits`` of the
    dict of metric exponents; constant-mode exponents broadcast over the
    sites."""
    blocks = [splits[i][1](np.exp(splits[i][0])) if i in splits else None
              for i in range(rep.spec.num_factors)]
    return apply_slots(slot_matrices(blocks, rep), section, rep)


def random_unitary_gauge(spec: ProductGroupSpec, lat: TorusLattice, rng):
    """Site-dependent unitary gauge transformation, one field per factor."""
    return [haar_unitary(rng, n, (lat.n, lat.n)) for n in spec.factor_dims]


def gauge_transform(state: LatticePairState, kfields) -> LatticePairState:
    """Apply a sitewise unitary gauge transformation to the whole state:
    links conjugate, the section transforms through the representation and
    metric exponents conjugate.  The gauge group of a constant-mode factor
    is constant, so its field must not vary over the sites (``ValueError``)."""
    new = state.copy()
    for i, (b, k, mode) in enumerate(zip(new.bundles, kfields, new.setting.modes)):
        kh = np.swapaxes(k, -1, -2).conj()
        for mu in (0, 1):
            b.links[mu] = _matmul(_matmul(shift(k, mu), b.links[mu]), kh)
        if mode == CONSTANT:
            if np.any(k != k[0, 0]):
                raise ValueError(f"factor {i} is in constant mode: its gauge must be "
                                 f"the same at every site")
            new.u[i] = _matmul(_matmul(k[0, 0], new.u[i]), kh[0, 0])
        elif mode == FULL:
            new.u[i] = _matmul(_matmul(k, new.u[i]), kh)
    new.section = apply_slots(slot_matrices(kfields, new.rep), new.section, new.rep)
    return new


def pointwise_residual(state: LatticePairState, splits=None):
    """Skew-Hermitian residual blocks of the shifted subgroup moment map.

    Per unfrozen factor: N^2 log P plus the shifted moment map mu_f(Psi) +
    i c_f I at every site, shape (N, N, n, n), or for a constant-mode factor
    the site average of the shifted map, one (n, n) block like its exponent.
    Returns (blocks dict, l2 norm, linf norm); norms use the volume-1
    weighting.  The FULL factors' links go through ``corrected_links``,
    which takes them to be unitary without checking.  ``splits``, if given,
    is ``_metric_splits(state.u)``, which a caller that also measures the
    metric computes once.
    """
    if splits is None:
        splits = _metric_splits(state.u)
    frame = apply_metric_exponents(state.section, state.rep, splits)
    blocks = shifted_moment_blocks(frame, state.rep, state.setting)
    for i, mu in blocks.items():
        if state.setting.modes[i] == CONSTANT:
            blocks[i] = np.mean(mu, axis=(0, 1))
        else:
            links = corrected_links(state.bundles[i].links, state.u[i])
            blocks[i] = _log_unitary(plaquette_field(links)) * state.lattice.sites + mu
    sq = 0.0
    linf = 0.0
    for r in blocks.values():
        persite = np.sum(np.abs(r) ** 2, axis=(-2, -1))
        sq += float(np.mean(persite))
        linf = max(linf, float(np.sqrt(np.max(persite))))
    return blocks, float(np.sqrt(sq)), linf
