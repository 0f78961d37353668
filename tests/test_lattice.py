import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, expm

from gpwb.flows import heat_flow
from gpwb.groups import (
    GroupElement,
    ProductGroupSpec,
    SubgroupSetting,
)
from gpwb import lattice
from gpwb.lattice import (
    STENCIL,
    TWO_PI,
    LatticeBundle,
    LatticePairState,
    build_torus,
    canonical_basis,
    corrected_links,
    curvature_field,
    curvature_response_matrix,
    dbar_matrix,
    direct_sum_bundle,
    gauge_transform,
    holomorphic_sections,
    lattice_degree,
    make_constant_curvature_line_bundle,
    plaquette_field,
    random_unitary_gauge,
    require_unitary,
    section_transport,
    shift,
)
from gpwb.reps import (
    ADJOINT,
    DUAL,
    STANDARD,
    TRIVIAL,
    RepSpec,
    Slot,
    act,
    moment_block,
    mu_full,
    mu_shifted,
    shifted_moment_blocks,
)

LAT = build_torus(16)
U1 = ProductGroupSpec((1,))
REP1 = RepSpec(U1, (Slot(1, STANDARD, 0),))


def scalar_vlinks(bundle):
    return section_transport(REP1, [bundle.links])


def test_build_torus_counts():
    lat = build_torus(4)
    assert lat.sites == 16
    assert plaquette_field(direct_sum_bundle(lat, (0,)).links).shape == (4, 4, 1, 1)


def test_build_torus_rejects_small():
    with pytest.raises(ValueError):
        build_torus(3)


def test_periodic_wrap():
    lat = build_torus(8)
    b = make_constant_curvature_line_bundle(lat, 1)
    # rolling the link field by a full period is the identity
    assert np.array_equal(np.roll(b.links, 8, axis=1), b.links)


@pytest.mark.parametrize("mu", [0, 1])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 6, -6])  # 6 = n + 1 at n = 5
def test_shift_reads_the_value_k_sites_along_mu(rng, mu, k):
    """shift(a, mu, k) is x -> a(x + k mu_hat): bit for bit the independent
    spelling np.roll(a, -k, axis=mu), on a complex (n, n, r, r) stack and on
    an integer (n, n, 1, 1) site array."""
    n = 5
    stack = rng.standard_normal((n, n, 2, 2)) + 1j * rng.standard_normal((n, n, 2, 2))
    for a in (stack, np.arange(n * n).reshape(n, n, 1, 1)):
        got, want = shift(a, mu, k), np.roll(a, -k, axis=mu)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_trivial_bundle_degree_zero():
    assert lattice_degree(direct_sum_bundle(LAT, (0,))) == 0.0


@pytest.mark.parametrize("d", [1, -2, 3])
def test_constant_curvature_degree(d):
    b = make_constant_curvature_line_bundle(LAT, d)
    assert lattice_degree(b) == pytest.approx(TWO_PI * d, abs=1e-10)
    f = curvature_field(b.links, LAT.n)
    assert np.max(np.abs(f - TWO_PI * d)) < 1e-10


def test_resolution_guard():
    with pytest.raises(ValueError):
        make_constant_curvature_line_bundle(build_torus(4), 5)


def test_branch_ambiguity_warning():
    lat = build_torus(4)
    b = direct_sum_bundle(lat, (0,))
    links = b.links.copy()
    t = np.arange(4)[None, :, None, None]
    links[0] = links[0] * np.exp(0.95j * np.pi * t)  # plaquette phases at 0.95 pi
    with pytest.warns(UserWarning):
        lattice_degree(LatticeBundle(links))


@pytest.mark.parametrize("degrees", [[1], [1, 0]])
def test_curvature_field_warns_near_branch_cut(degrees):
    lat = build_torus(8)
    b = direct_sum_bundle(lat, degrees)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curvature_field(b.links, lat.n)
    links = b.links.copy()
    # one s-link of the first summand turns the plaquettes on either side of
    # it by +-0.95 pi
    links[0, 3, 3, 0, 0] *= np.exp(0.95j * np.pi)
    with pytest.warns(UserWarning, match="branch cut"):
        curvature_field(links, lat.n)


def test_degree_additive_under_tensor():
    b1 = make_constant_curvature_line_bundle(LAT, 1)
    b2 = make_constant_curvature_line_bundle(LAT, 2)
    prod = LatticeBundle(b1.links * b2.links, (3,))
    assert lattice_degree(prod) == pytest.approx(lattice_degree(b1) + lattice_degree(b2), abs=1e-10)


def test_direct_sum_degrees():
    b = direct_sum_bundle(LAT, [1, -1])
    assert b.links.shape[-1] == 2 and b.summand_degrees == (1, -1)
    assert lattice_degree(b) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# dbar operator


def test_dbar_constant_section_trivial_bundle():
    D = dbar_matrix(LAT, scalar_vlinks(direct_sum_bundle(LAT, (0,))))
    const = np.ones(LAT.sites, dtype=complex)
    assert np.linalg.norm(D @ const) < 1e-12


def test_dbar_linear():
    D = dbar_matrix(LAT, scalar_vlinks(make_constant_curvature_line_bundle(LAT, 1)))
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(2)
    x = rng.standard_normal(LAT.sites) + 1j * rng.standard_normal(LAT.sites)
    y = rng.standard_normal(LAT.sites) + 1j * rng.standard_normal(LAT.sites)
    assert np.linalg.norm(D @ (a * x + b * y) - a * (D @ x) - b * (D @ y)) < 1e-12


def test_dbar_fourier_mode_continuum_value():
    """A non-holomorphic periodic plane wave is not annihilated; the value
    converges to the continuum 2 pi i (k + i l) as the lattice refines."""
    k, l = 2, -1
    errs = []
    for n in (16, 32):
        lat = build_torus(n)
        D = dbar_matrix(lat, scalar_vlinks(direct_sum_bundle(lat, (0,))))
        s, t = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
        phi = np.exp(2j * np.pi * (k * s + l * t))
        out = (D @ phi.ravel()).reshape(n, n)
        ratio = out / phi
        errs.append(np.max(np.abs(ratio - 2j * np.pi * (k + 1j * l))))
    assert errs[0] < 2.0
    assert errs[1] < errs[0] / 4  # at least second-order decay in the stencil


# ---------------------------------------------------------------------------
# holomorphic sections


def test_sections_trivial_bundle_constant():
    secs, res, _ = holomorphic_sections(LAT, scalar_vlinks(direct_sum_bundle(LAT, (0,))), 1)
    assert res[0] < 1e-12
    v = secs[0][:, :, 0]
    assert np.max(np.abs(v - v.mean())) < 1e-10 * np.abs(v.mean())


@pytest.mark.parametrize("d", [1, 2])
def test_sections_kernel_dimension(d):
    b = make_constant_curvature_line_bundle(LAT, d)
    secs, res, gap = holomorphic_sections(LAT, scalar_vlinks(b), d)
    assert res[-1] < 1e-8  # kernel residuals are tiny in absolute terms
    assert gap > 1e6  # exactly d singular values sit below 1e-6 of the next
    assert holomorphic_sections(LAT, scalar_vlinks(b), d + 1)[2] < 1e6


def test_arpack_non_convergence_is_a_value_error(monkeypatch):
    def fail(*args, **kwargs):
        raise lattice.spla.ArpackNoConvergence("ARPACK error -1: No convergence", None, None)

    monkeypatch.setattr(lattice.spla, "eigsh", fail)
    b = make_constant_curvature_line_bundle(LAT, 2)
    with pytest.raises(ValueError, match="2 sections at N = 16"):
        holomorphic_sections(LAT, scalar_vlinks(b), 2)


def test_sections_orthonormal():
    b = make_constant_curvature_line_bundle(LAT, 2)
    secs, _, _ = holomorphic_sections(LAT, scalar_vlinks(b), 2)
    gram = np.einsum("axyi,bxyi->ab", secs.conj(), secs) / LAT.sites
    assert np.linalg.norm(gram - np.eye(2)) < 1e-10


def test_sections_hom_bundle():
    # Hom(L(0), L(1)) has one section; dual slot flips the degree sign
    spec = ProductGroupSpec((1, 1))
    rep = RepSpec(spec, (Slot(1, STANDARD, 0), Slot(1, DUAL, 1)))
    b1 = make_constant_curvature_line_bundle(LAT, 1)
    b2 = make_constant_curvature_line_bundle(LAT, 0)
    vl = section_transport(rep, [b1.links, b2.links])
    secs, res, gap = holomorphic_sections(LAT, vl, 1)
    assert res[0] < 1e-10
    assert gap > 1e6


def _section_case(lat, case):
    """(vlinks, kernel dimension): the line bundle L_d, or Hom(L_0, L_1)
    through a standard slot on L_1 and a dual slot on L_0."""
    if case == "hom":
        rep = RepSpec(ProductGroupSpec((1, 1)), (Slot(1, STANDARD, 0), Slot(1, DUAL, 1)))
        links = [make_constant_curvature_line_bundle(lat, d).links for d in (1, 0)]
        return section_transport(rep, links), 1
    return scalar_vlinks(make_constant_curvature_line_bundle(lat, case)), case


def _dense_reference(lat, vlinks, count):
    """Kernel from the count + 1 lowest eigenpairs of the dense DᴴD (LAPACK
    eigh), in the same canonical basis, and the count + 1 least singular
    values of D in ascending order."""
    dense = dbar_matrix(lat, vlinks).toarray()
    evals, vecs = eigh(dense.conj().T @ dense, subset_by_index=[0, count])
    n, dimv = lat.n, vlinks.shape[-1]
    secs = canonical_basis(vecs[:, :count], n, dimv).T.reshape(count, n, n, dimv) * n
    return secs, np.sqrt(np.maximum(evals, 0.0))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("case", [1, 2, 3, "hom"])
def test_sparse_sections_match_dense_reference(n, case):
    lat = build_torus(n)
    vl, d = _section_case(lat, case)
    secs, res, gap = holomorphic_sections(lat, vl, d)
    ref, ref_svals = _dense_reference(lat, vl, d)
    assert secs.shape == ref.shape
    assert np.max(np.abs(secs - ref)) < 1e-10
    assert np.max(res) <= 1e-10
    assert gap > 1e6
    # the next singular value agrees with the dense spectrum
    assert gap * res[-1] == pytest.approx(ref_svals[d], rel=1e-10)
    assert holomorphic_sections(lat, vl, d + 1)[2] < 1e6


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("degrees,count", [
    ([-2], 2), ([-1], 1), ([0], 1), ([1], 1), ([2], 2), ([0, -1], 2)])
def test_dense_dbar_counts_h1_as_well_as_h0(n, degrees, count):
    """The square lattice dbar has as many near-zero singular values as
    near-cokernel directions: L_-d shows d like L_d, although h0(L_-d) = 0,
    and L_0 + L_-1 shows 2, although h0 = 1.  So a count is h0 only where
    h1 = 0."""
    lat = build_torus(n)
    r = len(degrees)
    rep = RepSpec(ProductGroupSpec((r,)), (Slot(r, STANDARD, 0),))
    vl = section_transport(rep, [direct_sum_bundle(lat, degrees).links])
    svals = np.linalg.svd(dbar_matrix(lat, vl).toarray(), compute_uv=False)
    assert int(np.sum(svals < 1e-4)) == count


def test_sections_at_n64_exact_count_orthonormal():
    lat = build_torus(64)
    d = 3
    secs, res, gap = holomorphic_sections(lat, scalar_vlinks(
        make_constant_curvature_line_bundle(lat, d)), d)
    assert secs.shape == (d, 64, 64, 1)
    assert np.max(res) <= 1e-10 and gap > 1e6
    gram = np.einsum("axyi,bxyi->ab", secs.conj(), secs) / lat.sites
    assert np.linalg.norm(gram - np.eye(d)) < 1e-12


# ---------------------------------------------------------------------------
# metric correction machinery


def test_curvature_response_exact(rng):
    b = make_constant_curvature_line_bundle(LAT, 1)
    f0 = curvature_field(b.links, LAT.n)
    u = 0.1 * rng.standard_normal((LAT.n, LAT.n, 1, 1))
    f1 = curvature_field(corrected_links(b.links, u), LAT.n)
    L = curvature_response_matrix(LAT)
    pred = (L @ u[:, :, 0, 0].ravel()).reshape(LAT.n, LAT.n)
    assert np.max(np.abs((f1 - f0)[:, :, 0, 0].real - pred)) < 1e-11
    assert np.max(np.abs((f1 - f0)[:, :, 0, 0].imag)) < 1e-13


def test_curvature_response_psd():
    L = curvature_response_matrix(build_torus(8)).toarray()
    h = 0.5 * (L + L.T)
    assert np.linalg.eigvalsh(h).min() > -1e-10


def test_degree_invariant_under_metric(rng):
    b = make_constant_curvature_line_bundle(LAT, 2)
    u = 0.2 * rng.standard_normal((LAT.n, LAT.n, 1, 1))
    b2 = LatticeBundle(corrected_links(b.links, u))
    assert abs(lattice_degree(b2) - lattice_degree(b)) < 1e-9


def test_corrected_links_stay_unitary(rng):
    b = direct_sum_bundle(LAT, [1, 0])
    u = 0.2 * rng.standard_normal((LAT.n, LAT.n, 2, 2))
    u = 0.5 * (u + np.swapaxes(u, -1, -2))
    out = corrected_links(b.links, u.astype(complex))
    prod = np.swapaxes(out, -1, -2).conj() @ out
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_constant_exponent_leaves_links(rng):
    b = direct_sum_bundle(LAT, [1, -1])
    u0 = rng.standard_normal((2, 2))
    u0 = 0.5 * (u0 + u0.T)
    u = np.broadcast_to(u0, (LAT.n, LAT.n, 2, 2)).astype(complex)
    # constant u has zero transverse gradient only when it commutes with
    # the links; diagonal constant exponents on a diagonal bundle do
    ud = np.broadcast_to(np.diag(np.diag(u0)), (LAT.n, LAT.n, 2, 2)).astype(complex)
    out = corrected_links(b.links, ud.copy())
    assert np.max(np.abs(out - b.links)) < 1e-12


def _gauged_links(links, k):
    """Links after the sitewise unitary gauge k: U(x) -> k(x+mu) U(x) k(x)^-1."""
    return np.stack([np.roll(k, -1, axis=mu) @ links[mu] @ np.swapaxes(k, -1, -2).conj()
                     for mu in (0, 1)])


def test_response_operator_is_the_curvature_jacobian_at_rank2(rng):
    # column by column over a real basis of the Hermitian fields: the
    # central-difference Jacobian of u -> i N^2 log P(corrected_links(u))
    # at u = 0 is L_A applied to the basis field
    n, r, eps = 4, 2, 1e-5
    lat = build_torus(n)
    # a gauge-transformed trivial bundle: P = I at every site, no link is I
    links = _gauged_links(direct_sum_bundle(lat, (0,) * r).links,
                          random_unitary_gauge(ProductGroupSpec((r,)), lat, rng)[0])
    assert np.max(np.abs(plaquette_field(links) - np.eye(r))) < 1e-14
    L = curvature_response_matrix(lat, links)
    assert L.shape == (n * n * r * r,) * 2
    worst = 0.0
    for site in range(n * n):
        for a in range(r):
            for b in range(a, r):
                for phase in ((1.0,) if a == b else (1.0, 1j)):
                    e = np.zeros((n * n, r, r), complex)
                    e[site, a, b] = phase
                    e[site, b, a] = np.conj(phase)
                    e = e.reshape(n, n, r, r)
                    jac = (curvature_field(corrected_links(links, eps * e), n)
                           - curvature_field(corrected_links(links, -eps * e), n)) / (2 * eps)
                    pred = (L @ e.ravel()).reshape(n, n, r, r)
                    worst = max(worst, float(np.max(np.abs(jac - pred))))
    assert worst < 1e-6


def _response_matrix_reference(n):
    """The abelian 7-point response stencil, assembled as it was before the
    operator took links."""
    n2 = n * n
    idx = np.arange(n2).reshape(n, n)
    offsets = {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (-1, 0): -0.5,
               (0, -1): -0.5, (2, 0): -0.5, (0, 2): -0.5}
    rows, cols, vals = [], [], []
    for (ds, dt), w in offsets.items():
        tgt = np.roll(np.roll(idx, -ds, axis=0), -dt, axis=1)
        rows.append(idx.ravel())
        cols.append(tgt.ravel())
        vals.append(np.full(n2, w * n * n))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n2, n2)).tocsr()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_rank1_response_operator_is_the_abelian_stencil(n):
    lat = build_torus(n)
    ref = _response_matrix_reference(n)
    for links in (None, make_constant_curvature_line_bundle(lat, 1).links,
                  make_constant_curvature_line_bundle(lat, -2).links):
        L = curvature_response_matrix(lat, links)
        assert L.dtype == ref.dtype
        assert np.array_equal(L.indptr, ref.indptr)
        assert np.array_equal(L.indices, ref.indices)
        assert np.array_equal(L.data, ref.data)


def _dbar_blockwise(lat, vlinks):
    """``dbar_matrix`` assembled one block entry (a, b) at a time, with
    running products of the transports."""
    coef = STENCIL
    n = lat.n
    dimv = vlinks.shape[-1]
    nsite = n * n
    rows, cols, vals = [], [], []
    eye = np.eye(dimv, dtype=complex)
    site_index = np.arange(nsite).reshape(n, n)
    for mu, weight in ((0, 1.0), (1, 1j)):
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
            for a in range(dimv):
                for b in range(dimv):
                    rows.append((site_index * dimv + a).ravel())
                    cols.append((tgt * dimv + b).ravel())
                    vals.append(blocks[:, :, a, b].ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(nsite * dimv, nsite * dimv)).tocsr()


def _response_blockwise(lat, links):
    """``curvature_response_matrix`` with the transport of each hop count,
    and its inverse, written out from the links and their adjoints."""
    n = lat.n
    n2 = n * n
    r = links.shape[-1]
    r2 = r * r
    shape = (n2, r2, r2)
    idx = np.arange(n2).reshape(n, n)
    comp = np.arange(r2)
    inv = np.swapaxes(links, -1, -2).conj()
    back = np.stack([np.roll(links[mu], 1, axis=mu) for mu in (0, 1)])
    back_inv = np.stack([np.roll(inv[mu], 1, axis=mu) for mu in (0, 1)])
    row = np.broadcast_to(idx.reshape(n2, 1, 1) * r2 + comp[:, None], shape).ravel()
    offsets = {(0, 0): 1.0, (0, 1): 0.5, (1, 1): 0.5, (0, -1): -0.5,
               (1, -1): -0.5, (0, 2): -0.5, (1, 2): -0.5}
    rows, cols, vals = [], [], []
    for (mu, hops), w in offsets.items():
        tgt = np.roll(idx, -hops, axis=mu)
        if r == 1 or hops == 0:
            block = np.eye(r2)
        else:
            ginv, g = {1: (inv[mu], links[mu]), -1: (back[mu], back_inv[mu]),
                       2: (inv[mu] @ np.roll(inv[mu], -1, axis=mu),
                           np.roll(links[mu], -1, axis=mu) @ links[mu])}[hops]
            gt = np.swapaxes(g, -1, -2)
            block = (ginv[..., :, None, :, None] * gt[..., None, :, None, :]).reshape(shape)
        rows.append(row)
        cols.append(np.broadcast_to(tgt.reshape(n2, 1, 1) * r2 + comp, shape).ravel())
        vals.append(np.broadcast_to(w * n * n * block, shape).ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n2 * r2, n2 * r2)).tocsr()


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_stencil_operators_match_the_blockwise_assembly(n, r, rng):
    # bit for bit, on raw and on randomly gauged links of L2 (+ L1 (+ L-1))
    lat = build_torus(n)
    links = direct_sum_bundle(lat, [2, 1, -1][:r]).links
    k = random_unitary_gauge(ProductGroupSpec((r,)), lat, rng)[0]
    for lk in (links, _gauged_links(links, k)):
        pairs = ((dbar_matrix(lat, lk), _dbar_blockwise(lat, lk)),
                 (curvature_response_matrix(lat, lk), _response_blockwise(lat, lk)))
        for got, ref in pairs:
            assert got.dtype == ref.dtype
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)


def test_rank2_response_operator_is_covariant_and_accretive(rng):
    # L_A of the gauge-transformed links is L_A conjugated by the gauge, and
    # its Hermitian part is positive semidefinite
    lat = build_torus(6)
    b = direct_sum_bundle(lat, [2, 1])
    k = random_unitary_gauge(ProductGroupSpec((2,)), lat, rng)[0]
    links = _gauged_links(b.links, k)
    u = rng.standard_normal((6, 6, 2, 2)) + 1j * rng.standard_normal((6, 6, 2, 2))
    kh = np.swapaxes(k, -1, -2).conj()
    lu = (curvature_response_matrix(lat, b.links) @ u.ravel()).reshape(u.shape)
    lu_gauged = (curvature_response_matrix(lat, links) @ (k @ u @ kh).ravel()).reshape(u.shape)
    assert np.max(np.abs(lu_gauged - k @ lu @ kh)) < 1e-10
    L = curvature_response_matrix(lat, links).toarray()
    assert np.linalg.eigvalsh(0.5 * (L + L.conj().T)).min() > -1e-9


def _unitary_link_fields(rng):
    """Rank-1 and rank-2 link fields, each also after a random unitary gauge."""
    out = []
    for bundle in (make_constant_curvature_line_bundle(LAT, 3), direct_sum_bundle(LAT, [2, -1])):
        k = random_unitary_gauge(ProductGroupSpec((bundle.links.shape[-1],)), LAT, rng)[0]
        out += [bundle.links, _gauged_links(bundle.links, k)]
    return out


def test_adjoint_inverses_match_the_matrix_inverse(rng):
    # plaquette_field inverts unitary links by their adjoint
    for links in _unitary_link_fields(rng):
        inv = np.linalg.inv(links)
        ref = inv[1] @ np.roll(inv[0], -1, axis=1) @ np.roll(links[1], -1, axis=0) @ links[0]
        assert np.max(np.abs(plaquette_field(links) - ref)) < 1e-13


def test_non_unitary_full_links_are_rejected(rng):
    # a flow checks the raw links of its FULL factors before the first residual
    for links in _unitary_link_fields(rng):
        r = links.shape[-1]
        spec = ProductGroupSpec((r,))
        bent = links.copy()
        bent[1, 3, 5] *= 1.0 + 1e-8
        for bad in (bent, 2 * links):
            with pytest.raises(ValueError, match="not unitary"):
                require_unitary(bad)
            state = LatticePairState(LAT, RepSpec(spec, (Slot(r, STANDARD, 0),)),
                                     SubgroupSetting(spec, ("full",), (0.0,)),
                                     [LatticeBundle(bad)], np.ones((LAT.n, LAT.n, r), complex))
            with pytest.raises(ValueError, match="not unitary"):
                heat_flow(state)


def _pair_parts(n=8):
    """Keyword parts of a consistent rank-2 pair state with a frozen line."""
    lat = build_torus(n)
    spec = ProductGroupSpec((2, 1))
    return dict(lattice=lat, rep=RepSpec(spec, (Slot(2, STANDARD, 0), Slot(1, STANDARD, 1))),
                setting=SubgroupSetting(spec, ("full", "frozen"), (1.0, 0.0)),
                bundles=[direct_sum_bundle(lat, [2, 1]), direct_sum_bundle(lat, (0,))],
                section=np.ones((n, n, 2), complex))


@pytest.mark.parametrize("fault,match", [
    ({"setting": SubgroupSetting(ProductGroupSpec((2, 2)), ("full", "frozen"), (1.0, 0.0))},
     "setting is for factors"),
    ({"bundles": [direct_sum_bundle(build_torus(8), [2, 1])]}, "1 bundles for 2 factors"),
    ({"bundles": [make_constant_curvature_line_bundle(build_torus(8), 1),
                  direct_sum_bundle(build_torus(8), (0,))]}, "links of factor 0"),
    ({"bundles": [direct_sum_bundle(build_torus(4), [2, 1]),
                  direct_sum_bundle(build_torus(8), (0,))]}, "links of factor 0"),
    ({"section": np.ones((4, 8, 2), complex)}, "section has shape"),
    ({"section": np.ones((8, 8, 3), complex)}, "section has shape"),
    ({"u": {0: np.zeros((2, 2), complex)}}, "metric exponent of factor 0"),
    ({"u": {1: np.zeros((8, 8, 1, 1), complex)}}, "frozen or absent"),
])
def test_state_refuses_parts_that_disagree(fault, match):
    LatticePairState(**_pair_parts())
    with pytest.raises(ValueError, match=match):
        LatticePairState(**dict(_pair_parts(), **fault))


def _transported_corrected_links(links, u):
    """``corrected_links`` with the transports written out and the links
    inverted by ``np.linalg.inv``."""
    inv = np.linalg.inv(links)

    def transported_diff(nu):
        back = np.roll(links[nu], 1, axis=nu)
        back_inv = np.roll(inv[nu], 1, axis=nu)
        up = inv[nu] @ np.roll(u, -1, axis=nu) @ links[nu]
        um = back @ np.roll(u, 1, axis=nu) @ back_inv
        return 0.5 * (up - um)

    a = np.stack((-1j * transported_diff(1), 1j * transported_diff(0)))
    return links @ (np.exp(a) if a.shape[-1] == 1 else expm(a))


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("d", [1, 3])
def test_rank1_corrected_links_match_the_transported_formula(n, d, rng):
    lat = build_torus(n)
    links = make_constant_curvature_line_bundle(lat, d).links
    k = random_unitary_gauge(U1, lat, rng)[0]
    u = (0.3 * rng.standard_normal((n, n, 1, 1))).astype(complex)
    for lk in (links, _gauged_links(links, k)):
        ref = _transported_corrected_links(lk, u)
        assert np.max(np.abs(corrected_links(lk, u) - ref)) < 1e-14
    # and a gauged rank-2 L2 + L1, whose transports are inverted by the adjoint
    k2 = random_unitary_gauge(ProductGroupSpec((2,)), lat, rng)[0]
    lk = _gauged_links(direct_sum_bundle(lat, [2, 1]).links, k2)
    u2 = 0.3 * (rng.standard_normal((n, n, 2, 2)) + 1j * rng.standard_normal((n, n, 2, 2)))
    u2 = 0.5 * (u2 + np.swapaxes(u2, -1, -2).conj())
    assert np.max(np.abs(corrected_links(lk, u2) - _transported_corrected_links(lk, u2))) < 1e-13


def test_rank1_sup_log_metric_is_the_eigenvalue_reference(rng):
    # a full and a constant-mode factor, both of rank 1
    lat = build_torus(8)
    spec = ProductGroupSpec((1, 1))
    rep = RepSpec(spec, (Slot(1, STANDARD, 0), Slot(1, DUAL, 1)))
    bundles = [make_constant_curvature_line_bundle(lat, 1), direct_sum_bundle(lat, (0,))]
    state = LatticePairState(lat, rep, SubgroupSetting(spec, ("full", "constant"), (0, 0)),
                             bundles, np.ones((8, 8, 1), complex))
    state.u[0] = rng.standard_normal((8, 8, 1, 1)) + 1j * rng.standard_normal((8, 8, 1, 1))
    for scale in (0.1, 10.0):
        state.u[1] = scale * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
        ref = max(2.0 * float(np.max(np.abs(np.linalg.eigvalsh(
            0.5 * (uu + np.swapaxes(uu, -1, -2).conj()))))) for uu in state.u.values())
        assert lattice._sup_log(lattice._metric_splits(state.u)) == ref


# ---------------------------------------------------------------------------
# the lattice path is the point path applied site by site


def test_lattice_actions_match_point_actions_sitewise(rng):
    lat = build_torus(4)
    spec = ProductGroupSpec((2, 3))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(3, DUAL, 1), Slot(4, ADJOINT, 0),
                         Slot(2, TRIVIAL)))
    n = lat.n

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    links = [cplx(2, n, n, k, k) + 2 * np.eye(k) for k in spec.factor_dims]
    field = cplx(n, n, rep.dim)
    vlinks = section_transport(rep, links)
    kfields = random_unitary_gauge(spec, lat, rng)
    state = LatticePairState(lat, rep, SubgroupSetting(spec, ("full", "full"), (0.0, 0.0)),
                             [LatticeBundle(lk) for lk in links], field)
    gauged = gauge_transform(state, kfields).section
    mus = [moment_block(field, rep, i) for i in range(2)]
    # one frozen and one constant-mode factor, then the other way round
    settings = [SubgroupSetting(spec, modes, c) for modes, c in
                ((("frozen", "constant"), (0.0, -0.7)), (("constant", "frozen"), (1.3, 0.0)))]
    shifted = [shifted_moment_blocks(field, rep, st) for st in settings]
    for s in range(n):
        for t in range(n):
            x = field[s, t]
            for mu in (0, 1):
                g = GroupElement(tuple(lk[mu, s, t] for lk in links))
                assert np.allclose(vlinks[mu, s, t] @ x, act(g, x, rep), atol=1e-12)
            k = GroupElement(tuple(kf[s, t] for kf in kfields))
            assert np.allclose(gauged[s, t], act(k, x, rep), atol=1e-12)
            for i in range(2):
                assert np.allclose(mus[i][s, t], mu_full(x, rep).blocks[i], atol=1e-12)
            for st, blocks in zip(settings, shifted):
                want = mu_shifted(x, rep, spec, st).blocks
                assert set(blocks) == set(st.unfrozen())
                for i, b in blocks.items():
                    assert np.max(np.abs(b[s, t] - want[i])) <= 1e-12
