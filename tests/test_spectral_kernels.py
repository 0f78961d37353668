"""The Hermitian spectral kernel of ``reps`` (closed forms at rank 1 and 2,
eigh above) and the rank-2 plaquette log against eig / eigh references, and
the lattice residual at rank 2 and 3 against scipy's matrix functions."""
import numpy as np
import pytest
from scipy.linalg import funm, logm

from gpwb import lattice
from gpwb.flows import assemble_example
from gpwb.groups import ProductGroupSpec
from gpwb.lattice import (_log_unitary, _metric_splits, _sup_log, build_torus, pointwise_residual,
                          random_unitary_gauge)
from gpwb.reps import _hermitian_function, _hermitian_part, _matmul, _spectral_split

TOL = 1e-12


def _frames(rng, n, r=2):
    return random_unitary_gauge(ProductGroupSpec((r,)), build_torus(n), rng)[0]


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


def _hermitian_stack(case, rng, n, r=2):
    if case == "scalar":  # u = a I
        return rng.standard_normal((n, n))[..., None, None] * np.eye(r)
    if case == "random":
        a = rng.standard_normal((n, n, r, r)) + 1j * rng.standard_normal((n, n, r, r))
        return 0.5 * (a + np.swapaxes(a, -1, -2).conj())
    # eigen-gap 1e-9 between the two lowest eigenvalues
    w = rng.standard_normal((n, n, 1)) + np.array([0.0, 1e-9, 1.0][:r])
    return _from_spectrum(_frames(rng, n, r), w)


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


def _check_kernel(h):
    w, _ = _spectral_split(h)
    assert _close(w, np.linalg.eigvalsh(h))
    assert _close(_hermitian_function(h, np.exp), _eigh_fn(h, np.exp))
    assert _close(_hermitian_function(h, lambda w: np.exp(1j * w)),
                  _eigh_fn(h, lambda w: np.exp(1j * w)))


def _check_sup_log_metric(h):
    degrees = {1: [1], 2: [2, 1], 3: [2, 1, 0]}[h.shape[-1]]
    st = assemble_example("pair_tensor", {"deg1": degrees, "deg2": [0]}, lattice_n=h.shape[0],
                          seed=1)
    st.u[0] = h
    ref = 2.0 * np.max(np.abs(np.linalg.eigvalsh(h)))
    assert abs(_sup_log(_metric_splits(st.u)) - ref) <= TOL * ref


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("case", ["random", "scalar", "gap"])
def test_rank2_exponentials_match_eigh(n, case, rng):
    _check_kernel(_hermitian_stack(case, rng, n))


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("case", ["random", "scalar", "gap"])
def test_rank1_and_rank3_exponentials_match_eigh(r, case, rng):
    _check_kernel(_hermitian_stack(case, rng, 8, r))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("case", ["random", "scalar", "gap"])
def test_rank2_sup_log_metric_matches_eigvalsh(n, case, rng):
    _check_sup_log_metric(_hermitian_stack(case, rng, n))


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("case", ["random", "scalar", "gap"])
def test_rank1_and_rank3_sup_log_metric_matches_eigvalsh(r, case, rng):
    _check_sup_log_metric(_hermitian_stack(case, rng, 8, r))


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


def _funm_metric_splits(u):
    """``_metric_splits`` with eigvalsh eigenvalues and e^h from scipy's funm:
    ``apply_metric_exponents`` rebuilds only the exponentials of the
    eigenvalues, which the rebuild checks it was given."""
    def split(h):
        w = np.linalg.eigvalsh(h)

        def rebuild(fw):
            assert np.array_equal(fw, np.exp(w))
            return _per_matrix(lambda x: funm(x, np.exp))(h)
        return w, rebuild
    return {i: split(_hermitian_part(uu)) for i, uu in u.items()}


@pytest.mark.parametrize("degrees", [[2, 1], [2, 1, 0]])
def test_residual_matches_scipy_kernels(degrees, rng, monkeypatch):
    # rank 2 takes the closed forms, rank 3 the eig / eigh path; both against
    # scipy's funm and logm matrix by matrix
    st = assemble_example("pair_tensor", {"deg1": degrees, "deg2": [0]}, lattice_n=8, seed=1)
    a = 0.3 * (rng.standard_normal(st.u[0].shape) + 1j * rng.standard_normal(st.u[0].shape))
    st.u[0] = a + np.swapaxes(a, -1, -2).conj()
    blocks, l2, _ = pointwise_residual(st)
    with monkeypatch.context() as m:
        m.setattr(lattice, "_hermitian_function", lambda h, f: _per_matrix(
            lambda x: funm(x, f))(h))
        m.setattr(lattice, "_metric_splits", _funm_metric_splits)
        m.setattr(lattice, "_log_unitary", _per_matrix(logm))
        m.setattr(lattice, "_matmul", np.matmul)
        ref, ref_l2, _ = pointwise_residual(st)
    assert _close(blocks[0] / st.lattice.sites, ref[0] / st.lattice.sites)
    assert abs(l2 - ref_l2) <= 1e-10 * ref_l2
