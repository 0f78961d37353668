import dataclasses

import numpy as np
import pytest

from gpwb.groups import (
    AlgebraElement,
    DimensionMismatchError,
    GroupElement,
    ProductGroupSpec,
    SubgroupSetting,
    exp_element,
    inner_product,
    random_compact,
    random_unitary,
)
from gpwb.reps import (
    ADJOINT,
    DUAL,
    STANDARD,
    TRIVIAL,
    RepSpec,
    Slot,
    act,
    infinitesimal_act,
    moment_block,
    mu_factor,
    mu_full,
    mu_shifted,
    summand_weights,
    symplectic_form,
)


def tensor_rep(n1=2, n2=3):
    spec = ProductGroupSpec((n1, n2))
    return RepSpec(spec, (Slot(n1, STANDARD, 0), Slot(n2, STANDARD, 1)))


def hom_rep(n1=2, n2=3):
    spec = ProductGroupSpec((n1, n2))
    return RepSpec(spec, (Slot(n1, STANDARD, 0), Slot(n2, DUAL, 1)))


def adjoint_rep(m=2, n=1):
    spec = ProductGroupSpec((m, n))
    return RepSpec(spec, (Slot(m * m, ADJOINT, 0), Slot(n, STANDARD, 1)))


def twisted_rep(n1=2, n2=2, n3=2):
    spec = ProductGroupSpec((n1, n2, n3))
    return RepSpec(
        spec,
        (Slot(n1, STANDARD, 0), Slot(n2, DUAL, 1), Slot(n3, DUAL, 2)),
    )


ALL_REPS = [tensor_rep(), hom_rep(), adjoint_rep(), twisted_rep(), hom_rep(3, 2)]


def random_vector(rep, rng):
    return rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)


def test_act_identity(rng):
    rep = tensor_rep()
    x = random_vector(rep, rng)
    g = GroupElement.identity(rep.spec)
    assert np.allclose(act(g, x, rep), x)


def test_act_hom_is_conjugation_pattern(rng):
    rep = hom_rep(2, 3)
    T = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    g = random_unitary(rep.spec, rng)
    out = act(g, T.reshape(-1), rep).reshape(2, 3)
    expect = g.blocks[0] @ T @ np.linalg.inv(g.blocks[1])
    assert np.linalg.norm(out - expect) < 1e-12


def test_act_adjoint_is_matrix_conjugation(rng):
    rep = adjoint_rep(2, 1)
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = random_unitary(rep.spec, rng)
    out = act(g, B.reshape(-1), rep).reshape(2, 2)
    A = g.blocks[0]
    phase = g.blocks[1][0, 0]  # the 1x1 standard slot contributes a phase
    assert np.linalg.norm(out - phase * (A @ B @ np.linalg.inv(A))) < 1e-12


@pytest.mark.parametrize("rep", ALL_REPS)
def test_act_composition(rep, rng):
    for _ in range(10):
        x = random_vector(rep, rng)
        g = random_unitary(rep.spec, rng)
        h = random_unitary(rep.spec, rng)
        lhs = act(g, act(h, x, rep), rep)
        rhs = act(g.compose(h), x, rep)
        assert np.linalg.norm(lhs - rhs) < 1e-11 * (1 + np.linalg.norm(x))


def test_infinitesimal_zero(rng):
    rep = tensor_rep()
    x = random_vector(rep, rng)
    assert np.allclose(infinitesimal_act(AlgebraElement.zero(rep.spec), x, rep), 0)


def test_infinitesimal_standard_is_matvec(rng):
    spec = ProductGroupSpec((3,))
    rep = RepSpec(spec, (Slot(3, STANDARD, 0),))
    s = random_compact(spec, rng)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(infinitesimal_act(s, x, rep), s.blocks[0] @ x)


@pytest.mark.parametrize("rep", ALL_REPS)
def test_infinitesimal_matches_finite_difference(rep, rng):
    eps = 1e-6
    for _ in range(5):
        s = random_compact(rep.spec, rng)
        x = random_vector(rep, rng)
        fd = (act(exp_element(s, eps), x, rep) - x) / eps
        an = infinitesimal_act(s, x, rep)
        assert np.linalg.norm(fd - an) < 1e-4 * (1 + np.linalg.norm(an))


def test_mu_hom_one_by_one():
    spec = ProductGroupSpec((1, 1))
    rep = RepSpec(spec, (Slot(1, STANDARD, 0), Slot(1, DUAL, 1)))
    x = np.array([1.0 + 0j])
    assert mu_factor(x, rep, 0)[0, 0] == pytest.approx(-1j)
    assert mu_factor(x, rep, 1)[0, 0] == pytest.approx(1j)


def test_mu_adjoint_normal_matrix_vanishes(rng):
    rep = adjoint_rep(2, 1)
    # unitary matrices are normal
    A = random_unitary(ProductGroupSpec((2,)), rng).blocks[0]
    assert np.linalg.norm(mu_factor(A.reshape(-1), rep, 0)) < 1e-12


def test_mu_adjoint_nilpotent():
    rep = adjoint_rep(2, 1)
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = mu_factor(A.reshape(-1), rep, 0)
    assert np.allclose(out, -1j * np.diag([1.0, -1.0]))


@pytest.mark.parametrize("lead", [(), (4, 4)], ids=["point", "field"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_moment_block_is_a_sum_of_commutators(n, m, lead, rng):
    # V = End(C^n) (x) C^m holds m matrices B_k; the adjoint block is
    # sum_k -i [B_k, B_k^dagger] and the factor-1 block -i x x^dagger
    rep = adjoint_rep(n, m)
    x = rng.standard_normal(lead + (rep.dim,)) + 1j * rng.standard_normal(lead + (rep.dim,))
    b = x.reshape(lead + (n, n, m))
    want = np.zeros(lead + (n, n), complex)
    for k in range(m):
        bk = b[..., k]
        bkh = np.swapaxes(bk, -1, -2).conj()
        want += -1j * (bk @ bkh - bkh @ bk)
    assert np.max(np.abs(moment_block(x, rep, 0) - want)) <= 1e-12
    phi = x.reshape(lead + (n * n, m))
    want1 = -1j * np.swapaxes(phi, -1, -2) @ phi.conj()
    assert np.max(np.abs(moment_block(x, rep, 1) - want1)) <= 1e-12
    d, e = rng.standard_normal(n), rng.standard_normal(m)
    w = summand_weights([d, e], rep)
    assert w.shape == (n, n, m)
    assert np.allclose(w, (d[:, None] - d[None, :])[:, :, None] + e, rtol=0, atol=1e-14)


def test_mu_twisted_factor1_matches_slice_sum(rng):
    # p=3 Hom(V2 (x) F, V1): factor-1 block is -i sum_j phi_j phi_j^dagger
    rep = twisted_rep(2, 2, 2)
    X = rng.standard_normal(rep.shape) + 1j * rng.standard_normal(rep.shape)
    out = mu_factor(X.reshape(-1), rep, 0)
    expect = np.zeros((2, 2), complex)
    for j in range(2):  # slot 2 (dual of factor 2) index
        for k in range(2):  # slot 3 index
            phi = X[:, j, k]
            expect += -1j * np.outer(phi, phi.conj())
    assert np.linalg.norm(out - expect) < 1e-12


def test_mu_full_zero_vector():
    rep = tensor_rep()
    out = mu_full(np.zeros(rep.dim), rep)
    assert all(np.all(b == 0) for b in out.blocks)


@pytest.mark.parametrize("rep", ALL_REPS)
def test_mu_equivariance(rep, rng):
    for _ in range(30):
        x = random_vector(rep, rng)
        k = random_unitary(rep.spec, rng)
        lhs = mu_full(act(k, x, rep), rep)
        for i, b in enumerate(lhs.blocks):
            kb = k.blocks[i]
            rhs = kb @ mu_full(x, rep).blocks[i] @ kb.conj().T
            assert np.linalg.norm(b - rhs) < 1e-11 * (1 + np.linalg.norm(x) ** 2)


@pytest.mark.parametrize("rep", ALL_REPS)
def test_mu_skew_hermitian(rep, rng):
    for _ in range(20):
        x = random_vector(rep, rng)
        for b in mu_full(x, rep).blocks:
            assert np.linalg.norm(b + b.conj().T) <= 1e-12 * (1 + np.linalg.norm(b))


@pytest.mark.parametrize("rep", ALL_REPS)
def test_mu_hamiltonian_property(rep, rng):
    """Central finite difference of <mu(x), s> against the symplectic pairing."""
    eps = 1e-5
    for _ in range(10):
        x = random_vector(rep, rng)
        v = random_vector(rep, rng)
        s = random_compact(rep.spec, rng)
        hp = inner_product(mu_full(x + eps * v, rep), s, rep.spec)
        hm = inner_product(mu_full(x - eps * v, rep), s, rep.spec)
        fd = (hp - hm) / (2 * eps)
        om = symplectic_form(infinitesimal_act(s, x, rep), v)
        assert abs(fd - om) < 1e-4 * (1 + abs(om))


def test_mu_adjoint_traceless(rng):
    rep = adjoint_rep(2, 1)
    for _ in range(20):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        assert abs(np.trace(mu_factor(x, rep, 0))) < 1e-13 * (1 + np.linalg.norm(x) ** 2)


def test_mu_hom_trace_sum_rule(rng):
    rep = hom_rep(2, 3)
    for _ in range(20):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        m = mu_full(x, rep)
        assert abs(np.trace(m.blocks[0]) + np.trace(m.blocks[1])) < 1e-12 * (
            1 + np.linalg.norm(x) ** 2
        )


def test_mu_shifted_reduces_to_mu_full(rng):
    rep = tensor_rep()
    setting = SubgroupSetting(rep.spec, ("full", "full"))
    x = random_vector(rep, rng)
    a = mu_shifted(x, rep, rep.spec, setting)
    b = mu_full(x, rep)
    for p, q in zip(a.blocks, b.blocks):
        assert np.array_equal(p, q)


def test_mu_shifted_u1_level_set():
    spec = ProductGroupSpec((1,))
    rep = RepSpec(spec, (Slot(1, STANDARD, 0),))
    c0 = 1.7
    setting = SubgroupSetting(spec, ("full",), (c0,))
    x = np.array([np.sqrt(c0) + 0j])
    out = mu_shifted(x, rep, spec, setting)
    assert abs(out.blocks[0][0, 0]) < 1e-14


def test_mu_shifted_frozen_block_zero(rng):
    rep = tensor_rep()
    setting = SubgroupSetting(rep.spec, ("full", "frozen"), (0.3, 0.0))
    for _ in range(10):
        x = random_vector(rep, rng)
        out = mu_shifted(x, rep, rep.spec, setting)
        assert np.all(out.blocks[1] == 0)


def test_mu_factor_trivial_action_errors():
    rep = tensor_rep()
    spec3 = ProductGroupSpec((2, 3, 4))
    rep3 = RepSpec(spec3, (Slot(2, STANDARD, 0), Slot(3, STANDARD, 1), Slot(1, TRIVIAL)))
    x = np.zeros(rep3.dim)
    with pytest.raises(ValueError):
        mu_factor(x, rep3, 2)


def test_mu_basis_independence_of_slicing(rng):
    # re-basing the acted slot by a unitary leaves the factor block unchanged
    rep = hom_rep(2, 3)
    x = random_vector(rep, rng)
    q = random_unitary(ProductGroupSpec((3,)), rng).blocks[0]
    g = GroupElement((np.eye(2), np.linalg.inv(q).T), "complexified")
    # dual slot transforms with (C^-1)^t; choosing C = q^-T acts by q on coefficients
    y = act(g, x, rep)
    assert np.linalg.norm(mu_factor(y, rep, 0) - mu_factor(x, rep, 0)) < 1e-11


def test_slot_must_point_at_a_factor():
    spec = ProductGroupSpec((2, 3))
    with pytest.raises(ValueError, match="points at no factor"):
        RepSpec(spec, (Slot(2, STANDARD, 0), Slot(3, STANDARD)))  # default factor -1
    with pytest.raises(ValueError, match="points at no factor"):
        RepSpec(spec, (Slot(2, STANDARD, 0), Slot(3, STANDARD, 5)))
    assert RepSpec(spec, (Slot(2, STANDARD, 0), Slot(4, TRIVIAL))).dim == 8


@pytest.mark.parametrize("rep", ALL_REPS)
def test_act_rejects_a_vector_of_the_wrong_size(rep, rng):
    g = random_unitary(rep.spec, rng)
    s = random_compact(rep.spec, rng)
    for size in (rep.dim - 1, rep.dim + 1):
        x = np.ones(size, complex)
        with pytest.raises(DimensionMismatchError):
            act(g, x, rep)
        with pytest.raises(DimensionMismatchError):
            infinitesimal_act(s, x, rep)
    x = random_vector(rep, rng)
    assert np.array_equal(act(g, x.reshape(rep.shape), rep), act(g, x, rep))


def test_cached_shape_leaves_repspec_unchanged():
    fresh, read = tensor_rep(2, 3), tensor_rep(2, 3)
    assert (read.shape, read.dim, read.factor_slots) == ((2, 3), 6, ((0,), (1,)))
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert dataclasses.replace(read) == fresh
    wider = dataclasses.replace(read, spec=ProductGroupSpec((2, 4)),
                                slots=(Slot(2, STANDARD, 0), Slot(4, STANDARD, 1)))
    assert (wider.shape, wider.dim) == ((2, 4), 8) and wider != read
    assert (read.shape, read.dim) == ((2, 3), 6)
