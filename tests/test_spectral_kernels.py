"""The rank-2 closed forms of the lattice's spectral kernels against
eig / eigh references, and a rank-3 residual through the eig / eigh path."""
import numpy as np
import pytest
from scipy.linalg import expm, logm

from gpwb import lattice
from gpwb.flows import assemble_example
from gpwb.groups import ProductGroupSpec
from gpwb.lattice import (_expm_herm, _expm_pos, _log_unitary, build_torus, pointwise_residual,
                          random_unitary_gauge)
from gpwb.reps import _matmul

TOL = 1e-12


def _frames(rng, n):
    return random_unitary_gauge(ProductGroupSpec((2,)), build_torus(n), rng)[0]


def _from_spectrum(v, w):
    """v diag(w) vᴴ over a stack."""
    return (v * w[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def _eigh_fn(h, f):
    w, v = np.linalg.eigh(h)
    return _from_spectrum(v, f(w))


def _eig_log(p):
    w, v = np.linalg.eig(p)
    return (v * (1j * np.angle(w))[..., None, :]) @ np.linalg.inv(v)


def _close(got, ref):
    return np.max(np.abs(got - ref)) <= TOL * max(1.0, np.max(np.abs(ref)))


def _hermitian_stack(case, rng, n):
    if case == "scalar":  # u = a I
        return rng.standard_normal((n, n))[..., None, None] * np.eye(2)
    if case == "random":
        a = rng.standard_normal((n, n, 2, 2)) + 1j * rng.standard_normal((n, n, 2, 2))
        return 0.5 * (a + np.swapaxes(a, -1, -2).conj())
    w = rng.standard_normal((n, n, 1)) + np.array([0.0, 1e-9])  # eigen-gap 1e-9
    return _from_spectrum(_frames(rng, n), w)


def _unitary_stack(case, rng, n):
    if case == "scalar":  # P = e^{i phi} I
        return np.exp(1j * rng.uniform(-np.pi, np.pi, (n, n)))[..., None, None] * np.eye(2)
    if case == "random":
        angles = rng.uniform(-np.pi, np.pi, (n, n, 2))
    elif case == "gap":
        angles = rng.uniform(-np.pi, np.pi, (n, n, 1)) + np.array([0.0, 1e-9])
    else:  # one eigen-angle within 1e-6 of +pi or -pi, the other anywhere
        near = rng.choice([-1.0, 1.0], (n, n)) * (np.pi - rng.uniform(0, 1e-6, (n, n)))
        angles = np.stack((near, rng.uniform(-np.pi, np.pi, (n, n))), axis=-1)
    return _from_spectrum(_frames(rng, n), np.exp(1j * angles))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("case", ["random", "scalar", "gap"])
def test_rank2_exponentials_match_eigh(n, case, rng):
    h = _hermitian_stack(case, rng, n)
    assert _close(_expm_pos(h), _eigh_fn(h, np.exp))
    assert _close(_expm_herm(1j * h), _eigh_fn(h, lambda w: np.exp(1j * w)))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("case", ["random", "scalar", "gap"])
def test_rank2_sup_log_metric_matches_eigvalsh(n, case, rng):
    st = assemble_example("pair_tensor", {"deg1": [2, 1], "deg2": [0]}, lattice_n=n, seed=1)
    st.u[0] = _hermitian_stack(case, rng, n)
    ref = 2.0 * np.max(np.abs(np.linalg.eigvalsh(st.u[0])))
    assert abs(st.sup_log_metric() - ref) <= TOL * ref


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("case", ["random", "scalar", "gap", "branch"])
def test_rank2_log_unitary_matches_eig(n, case, rng):
    p = _unitary_stack(case, rng, n)
    assert _close(_log_unitary(p), _eig_log(p))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_matmul_is_the_matrix_product(r, rng):
    # inner dimension r: one pair, square stacks, a non-square right operand
    # (..., r, k) as apply_slots passes it, and a stack times one matrix
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for a, b in ((cplx(3, r), cplx(r, 5)), (cplx(4, 8, 8, r, r), cplx(4, 8, 8, r, r)),
                 (cplx(8, 8, 3, r), cplx(8, 8, r, 5)), (cplx(3, r), cplx(8, 8, r, 5)),
                 (cplx(8, 8, 3, r), cplx(r, 5))):
        assert _close(_matmul(a, b), a @ b)


def _per_matrix(f):
    return lambda x: np.array([f(m) for m in x.reshape(-1, *x.shape[-2:])]).reshape(x.shape)


@pytest.mark.parametrize("degrees", [[2, 1], [2, 1, 0]])
def test_residual_matches_scipy_kernels(degrees, rng, monkeypatch):
    # rank 2 takes the closed forms, rank 3 the eig / eigh path; both against
    # scipy's expm and logm matrix by matrix
    st = assemble_example("pair_tensor", {"deg1": degrees, "deg2": [0]}, lattice_n=8, seed=1)
    a = 0.3 * (rng.standard_normal(st.u[0].shape) + 1j * rng.standard_normal(st.u[0].shape))
    st.u[0] = a + np.swapaxes(a, -1, -2).conj()
    blocks, l2, _ = pointwise_residual(st)
    with monkeypatch.context() as m:
        m.setattr(lattice, "_expm_pos", _per_matrix(lambda x: expm(0.5 * (x + x.conj().T))))
        m.setattr(lattice, "_expm_herm", _per_matrix(lambda x: expm(0.5 * (x - x.conj().T))))
        m.setattr(lattice, "_log_unitary", _per_matrix(logm))
        m.setattr(lattice, "_matmul", np.matmul)
        ref, ref_l2, _ = pointwise_residual(st)
    assert _close(blocks[0] / st.lattice.sites, ref[0] / st.lattice.sites)
    assert abs(l2 - ref_l2) <= 1e-10 * ref_l2
