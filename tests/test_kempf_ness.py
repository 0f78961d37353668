import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.optimize import nnls

from gpwb.groups import (
    FROZEN,
    AlgebraElement,
    DimensionMismatchError,
    GroupElement,
    ProductGroupSpec,
    SubgroupSetting,
    inner_product,
    project_subalgebra,
    random_compact,
    random_unitary,
)
from gpwb.kempf_ness import (
    MEMBERSHIP_TOL,
    WeightedFiltration,
    chain_generator_weights,
    compact_stabilizer_dimension,
    default_subspace_lattice,
    descend,
    gradient_flow,
    is_simple,
    kn_functional,
    kn_functional_group,
    maximal_weight,
    metric_exponent,
    ssc_generators,
    stability_test,
    total_weight,
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
    mu_full,
    mu_shifted,
    summand_weights,
)

from chains import nested_chains

U1 = ProductGroupSpec((1,))
REP_U1 = RepSpec(U1, (Slot(1, STANDARD, 0),))


def u2_tensor(n2=3):
    spec = ProductGroupSpec((2, n2))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(n2, STANDARD, 1)))
    return spec, rep


# ---------------------------------------------------------------------------
# maximal weights


def dense_maximal_weight(x, s, rep):
    """Reference maximal weight from the D x D matrix of i*rho(s), built
    column by column from ``infinitesimal_act``, and its ``eigh``; also
    returns the eigenvalues."""
    cols = np.stack([infinitesimal_act(s, e, rep) for e in np.eye(rep.dim)], axis=1)
    vals, vecs = np.linalg.eigh(0.5j * (cols - cols.conj().T))
    basis = vecs[:, vals <= 1e-9]
    outside = x - basis @ (basis.conj().T @ x)
    inside = np.linalg.norm(outside) <= MEMBERSHIP_TOL * np.linalg.norm(x)
    return (0.0 if inside else np.inf), vals, basis


LAYOUTS = {
    "standard": ((2, 3), ((2, STANDARD, 0), (3, STANDARD, 1))),
    "dual": ((2, 3), ((2, DUAL, 0), (3, STANDARD, 1))),
    "adjoint": ((2, 2), ((4, ADJOINT, 0), (2, DUAL, 1))),
    "trivial": ((3, 2), ((3, STANDARD, 0), (2, TRIVIAL, -1), (2, DUAL, 1))),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_maximal_weight_matches_dense_reference(layout, rng):
    """The per-factor eigenbasis of maximal_weight against the D x D
    operator: same spectrum, and the same weight for x inside and outside
    V^- on filtration elements of either factor."""
    dims, slots = LAYOUTS[layout]
    spec = ProductGroupSpec(dims)
    rep = RepSpec(spec, tuple(Slot(*sl) for sl in slots))
    for trial in range(40):
        f = trial % 2
        n = dims[f]
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        k = int(rng.integers(1, n + 1))
        weights = np.sort(rng.choice(np.arange(-2.0, 3.0), size=k, replace=False))
        steps = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist()) + [n]
        s = WeightedFiltration(f, tuple(q[:, :m] for m in steps), weights).element(spec)
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        want, vals, basis = dense_maximal_weight(x, s, rep)
        eig = [np.linalg.eigvalsh(0.5j * (b - b.conj().T)) for b in s.blocks]
        assert np.allclose(np.sort(summand_weights(eig, rep).ravel()), vals, atol=1e-12)
        assert maximal_weight(x, s, rep) == want
        if basis.shape[1]:
            inner = basis @ (rng.standard_normal(basis.shape[1]) + 0j)
            assert dense_maximal_weight(inner, s, rep)[0] == 0.0
            assert maximal_weight(inner, s, rep) == 0.0
            if basis.shape[1] < rep.dim:
                assert maximal_weight(inner + 1e-6 * x, s, rep) == want


def test_maximal_weight_zero_element(rng):
    # every eigenvalue of i*rho(0) is 0, so V^- is all of V
    spec, rep = u2_tensor()
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    assert maximal_weight(x, AlgebraElement.zero(spec), rep) == 0.0


def test_maximal_weight_tensor_split(rng):
    # i*rho(s) has eigenvalues -1 on e1 (x) C^2 and +1 on e2 (x) C^2
    spec, rep = u2_tensor(2)
    s = AlgebraElement((np.diag([1j, -1j]), np.zeros((2, 2))), "compact")
    x = np.zeros((2, 2), complex)
    x[0] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert maximal_weight(x.ravel(), s, rep) == 0.0
    x[1, 1] = 1e-3
    assert np.isinf(maximal_weight(x.ravel(), s, rep))


def test_maximal_weight_adjoint_triangular(rng):
    spec = ProductGroupSpec((2, 1))
    rep = RepSpec(spec, (Slot(4, ADJOINT, 0), Slot(1, STANDARD, 1)))
    s = AlgebraElement((np.diag([-1j, 0]), np.zeros((1, 1))), "compact")
    # eigenvalues of i*ad(s) are {-1, 0, 0, +1}; the +1 direction is the
    # corner E_12 (index 1 in row-major vec) that raises the filtration
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x[1] = 0.0
    assert maximal_weight(x, s, rep) == 0.0
    x[1] = 1e-3
    assert np.isinf(maximal_weight(x, s, rep))


def test_maximal_weight_zero_vector(rng):
    spec, rep = u2_tensor()
    s = random_compact(spec, rng)
    assert maximal_weight(np.zeros(rep.dim), s, rep) == 0.0


def test_maximal_weight_positive_eigenvector():
    # x an eigenvector of eigenvalue +1 of i*rho(s) has weight +inf
    spec, rep = u2_tensor(2)
    s = AlgebraElement((np.diag([-1j, 1j]), np.zeros((2, 2))), "compact")
    x = np.zeros(rep.dim, complex)
    x[0] = 1.0  # e1 (x) e1, i*rho(s)-eigenvalue +1
    assert np.isinf(maximal_weight(x, s, rep))
    x2 = np.zeros(rep.dim, complex)
    x2[2] = 1.0  # e2 (x) e1, eigenvalue -1
    assert maximal_weight(x2, s, rep) == 0.0


def test_maximal_weight_unitary_invariance(rng):
    spec, rep = u2_tensor()
    for _ in range(20):
        s = random_compact(spec, rng)
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        k = random_unitary(spec, rng)
        ks = AlgebraElement(
            tuple(kb @ b @ kb.conj().T for kb, b in zip(k.blocks, s.blocks)), "compact"
        )
        assert maximal_weight(x, s, rep) == maximal_weight(act(k, x, rep), ks, rep)


# ---------------------------------------------------------------------------
# total weight and generators


def test_total_weight_matches_direct_formula(rng):
    spec, rep = u2_tensor(2)
    q1 = np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))[0]
    full = np.eye(2, dtype=complex)
    alphas = np.sort(rng.uniform(-2, 2, size=2))
    alphas[1] = alphas[0] + abs(alphas[1] - alphas[0]) + 0.1
    filt = WeightedFiltration(0, (q1, full), tuple(alphas))
    c0 = rng.standard_normal()
    setting = SubgroupSetting(spec, ("full", "frozen"), (c0, 0.0))
    x = np.zeros(rep.dim)  # inside every V^-: lambda = 0, and the degree is zero at a point
    got = total_weight(x, filt, setting.central_shift, rep)
    # independent evaluation of the central pairing
    pairing = c0 * (alphas[0] * 1 + alphas[1] * 1)  # trace over graded pieces
    assert got == pytest.approx(-pairing, abs=1e-10)


def test_ssc_generator_counts():
    full = np.eye(2, dtype=complex)
    q1 = full[:, :1]
    # a chain of length r has 2r generators: the r lowering ones, then the r raising ones
    assert chain_generator_weights(2) == [[-1, 0], [-1, -1], [1, 1], [0, 1]]
    gens = ssc_generators([full])
    assert [g.weights for g in gens] == [(-1.0,), (1.0,)]
    gens = ssc_generators([q1, full])
    assert [g.weights for g in gens] == [(-1.0, 0.0), (-1.0,), (1.0,), (0.0, 1.0)]
    assert [g.length for g in gens] == [2, 1, 1, 2]
    assert np.array_equal(gens[0].chain[0], q1) and np.array_equal(gens[3].chain[0], q1)
    for r in range(1, 5):
        assert len(ssc_generators([np.eye(5, dtype=complex)[:, :k + 1] for k in range(r - 1)]
                                  + [np.eye(5, dtype=complex)])) == 2 * r


def test_ssc_generator_eigenvalues_in_zero_pm_i():
    spec, rep = u2_tensor(2)
    full = np.eye(2, dtype=complex)
    q1 = full[:, :1]
    for gen in ssc_generators([q1, full]):
        chi = gen.element(spec)
        ev = np.linalg.eigvals(chi.blocks[0])
        for e in ev:
            assert min(abs(e), abs(e - 1j), abs(e + 1j)) < 1e-12


def test_ssc_cone_decomposition(rng):
    """Random admissible weight vectors decompose non-negatively over the
    f/g generator weight vectors (linear-programming oracle)."""
    r = 4
    for p in range(r + 1):
        gens = []
        for i in range(1, r + 1):
            v = np.zeros(r)
            v[:i] = -1.0
            gens.append(v)
        for j in range(p + 1, r + 1):
            v = np.zeros(r)
            v[j - 1:] = 1.0
            gens.append(v)
        G = np.array(gens).T
        for _ in range(250):
            alpha = np.sort(rng.uniform(-3, 3, size=r))
            if p > 0:
                alpha -= max(alpha[p - 1], 0.0)  # force alpha_p <= 0
            if p < r:
                pass  # alpha above p may have any sign
            coef, resid = nnls(G, alpha)
            assert resid < 1e-8


# ---------------------------------------------------------------------------
# stability test


def central(spec, c1, mode2="frozen"):
    return SubgroupSetting(spec, ("full", mode2), (c1, 0.0))


def test_stability_u1_scalar():
    # nonzero x: stable iff c0 > 0
    for c0, want in [(0.8, True), (-0.6, False)]:
        setting = SubgroupSetting(U1, ("full",), (c0,))
        v = stability_test(np.array([1.0 + 0j]), REP_U1, U1, setting)
        assert v.stable is want


def test_stability_zero_vector_not_stable():
    setting = SubgroupSetting(U1, ("full",), (0.0,))
    v = stability_test(np.array([0.0j]), REP_U1, U1, setting)
    assert not v.stable
    assert v.slack == pytest.approx(0.0)
    assert v.marginal


@pytest.mark.parametrize("slots", [
    ((2, DUAL, 0), (2, STANDARD, 1)),
    ((4, ADJOINT, 0), (2, STANDARD, 1)),
    ((2, STANDARD, 0), (2, STANDARD, 0)),
    ((2, STANDARD, 1),),
], ids=["dual", "adjoint", "two-standard", "no-slot"])
def test_stability_needs_one_standard_slot(slots, rng):
    # the subspace lattice reads the column space of x along the factor's slot
    spec = ProductGroupSpec((2, 2))
    rep = RepSpec(spec, tuple(Slot(*sl) for sl in slots))
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    with pytest.raises(ValueError, match="exactly one standard slot"):
        default_subspace_lattice(x, rep, 0)
    with pytest.raises(ValueError):
        stability_test(x, rep, spec, central(spec, 0.7))


def test_stability_needs_the_factor_when_two_are_unfrozen(rng):
    # chains run over one factor; with two gauge-varying factors the other
    # half of the filtrations would go unexamined
    spec, rep = u2_tensor(2)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    setting = SubgroupSetting(spec, ("full", "full"), (0.7, -0.7))
    with pytest.raises(ValueError, match="factor="):
        stability_test(x, rep, spec, setting)
    assert stability_test(x, rep, spec, setting, factor=0).slack is not None


def brute_force_verdict(x, rep, spec, setting, rng, n_grid=7, n_rand=40):
    """Dense alpha-grid over chains built from coordinate and random
    subspaces; direct total-weight evaluation."""
    n = spec.factor_dims[0]
    subs = list(default_subspace_lattice(x, rep, 0))
    for _ in range(n_rand):
        k = rng.integers(1, n)
        q = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
        subs.append(q[:, :k])
    c = setting.central_shift
    worst = np.inf
    grid = np.linspace(-2, 2, n_grid)
    for chain in nested_chains(subs, n):
        r = len(chain)
        for alpha in np.stack(np.meshgrid(*([grid] * r)), axis=-1).reshape(-1, r):
            alpha = np.round(alpha, 9)
            if np.any(np.diff(alpha) <= 1e-12) or np.linalg.norm(alpha) < 1e-9:
                continue
            filt = WeightedFiltration(0, tuple(chain), tuple(alpha))
            w = total_weight(x, filt, c, rep)
            worst = min(worst, w)
    return worst > 0


def test_stability_matches_brute_force(rng):
    spec, rep = u2_tensor(2)
    agree = 0
    for _ in range(40):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        c1 = rng.uniform(-1.5, 1.5)
        if abs(c1) < 0.1:
            continue
        setting = central(spec, c1)
        v = stability_test(x, rep, spec, setting)
        bf = brute_force_verdict(x, rep, spec, setting, rng)
        assert v.stable == bf
        agree += 1
    assert agree > 20


@pytest.mark.parametrize("n1", [3, 4])
def test_single_subspaces_give_the_least_weight_over_all_chains(n1, rng):
    """At n1 >= 3 chains have two or more proper members: the slack over
    single subspaces equals the least total weight of every generator of
    every chain of the same candidates."""
    spec = ProductGroupSpec((n1, n1))
    rep = RepSpec(spec, (Slot(n1, STANDARD, 0), Slot(n1, STANDARD, 1)))
    for case in ("generic", "low rank", "coordinate"):
        for c1 in (0.7, -0.7):
            x = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
            if case == "low rank":
                x = np.outer(x[:, 0], x[0])
            elif case == "coordinate":  # column space span(e1, e2), a lattice member
                x[2:] = 0.0
            setting = central(spec, c1)
            subs = default_subspace_lattice(x.reshape(-1), rep, 0)
            chains = nested_chains(subs, n1)
            assert max(len(ch) for ch in chains) >= 3
            ref = min(total_weight(x.reshape(-1), gen, setting.central_shift, rep)
                      for ch in chains for gen in ssc_generators(ch, 0))
            assert stability_test(x.reshape(-1), rep, spec, setting).slack == ref, (case, c1)


def test_stability_basis_invariance(rng):
    spec, rep = u2_tensor(2)
    for _ in range(10):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        setting = central(spec, 0.7)
        v1 = stability_test(x, rep, spec, setting)
        k = random_unitary(spec, rng)
        v2 = stability_test(act(k, x, rep), rep, spec, setting)
        assert v1.stable == v2.stable
        if np.isfinite(v1.slack) and np.isfinite(v2.slack):
            assert abs(v1.slack - v2.slack) < 1e-10


# ---------------------------------------------------------------------------
# simplicity


def test_simple_iff_full_rank(rng):
    spec, rep = u2_tensor(3)
    setting = central(spec, 0.5)
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    assert is_simple(x.reshape(-1), rep, setting)
    x1 = np.outer(rng.standard_normal(2) + 1j * rng.standard_normal(2),
                  rng.standard_normal(3))
    assert not is_simple(x1.reshape(-1), rep, setting)


# ---------------------------------------------------------------------------
# integral of the moment map


def test_kn_zero_direction(rng):
    spec, rep = u2_tensor(2)
    setting = central(spec, 0.4)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    s = AlgebraElement.zero(spec)
    assert kn_functional(x, s, rep, spec, setting) == pytest.approx(0.0)


def test_kn_critical_point_derivative():
    # at a zero of the shifted moment map the t=0 integrand vanishes
    c0 = 2.25
    setting = SubgroupSetting(U1, ("full",), (c0,))
    x = np.array([1.5 + 0j])
    s = AlgebraElement((np.array([[0.3j]]),), "compact")
    r = mu_shifted(x, REP_U1, U1, setting)
    assert abs(inner_product(r, s, U1)) < 1e-14
    eps = 1e-6
    val = kn_functional(x, eps * s, REP_U1, U1, setting, 64)
    # Psi(e^{i eps s}) = O(eps^2) at a critical point
    assert abs(val) < 5e-12


def test_kn_cocycle(rng):
    spec, rep = u2_tensor(2)
    setting = central(spec, 0.5)
    panels = 512
    for _ in range(5):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        s = 0.4 * random_compact(spec, rng)
        t = 0.4 * random_compact(spec, rng)
        s = AlgebraElement((s.blocks[0], np.zeros((2, 2), complex)), "compact")
        t = AlgebraElement((t.blocks[0], np.zeros((2, 2), complex)), "compact")
        from scipy.linalg import expm

        g = GroupElement(tuple(expm(1j * b) for b in s.blocks), "complexified")
        h = GroupElement(tuple(expm(1j * b) for b in t.blocks), "complexified")
        lhs = kn_functional(x, s, rep, spec, setting, panels) + kn_functional(
            act(g, x, rep), t, rep, spec, setting, panels
        )
        hg = h.compose(g)
        rhs = kn_functional_group(x, hg, rep, spec, setting, panels)
        assert abs(lhs - rhs) < 1e-6 * (1 + abs(rhs))


# Slot layouts for the closed-form oracle: (factor dims, slots, modes) from
# random factor dims n, m, k in 1..3.
KN_LAYOUTS = {
    "standard": lambda n, m, k: ((n, m), ((n, STANDARD, 0), (m, STANDARD, 1)),
                                 ("full", "frozen")),
    "dual": lambda n, m, k: ((n, m), ((n, DUAL, 0), (m, STANDARD, 1)), ("full", "frozen")),
    "adjoint": lambda n, m, k: ((n, m), ((n * n, ADJOINT, 0), (m, STANDARD, 1)),
                                ("full", "frozen")),
    "trivial_slot": lambda n, m, k: ((n, m), ((n, STANDARD, 0), (k + 1, TRIVIAL, -1),
                                              (m, DUAL, 1)), ("full", "frozen")),
    "constant_factor": lambda n, m, k: ((n, m), ((n, STANDARD, 0), (m, DUAL, 1)),
                                        ("full", "constant")),
    "two_unfrozen": lambda n, m, k: ((n, m, k), ((n, STANDARD, 0), (m, DUAL, 1), (k, DUAL, 2)),
                                     ("full", "full", "frozen")),
}


def random_layout(name, rng):
    dims, slots, modes = KN_LAYOUTS[name](*(int(d) for d in rng.integers(1, 4, size=3)))
    spec = ProductGroupSpec(dims)
    rep = RepSpec(spec, tuple(Slot(*sl) for sl in slots))
    scalars = tuple(0.0 if md == "frozen" else float(rng.uniform(-1.5, 1.5)) for md in modes)
    setting = SubgroupSetting(spec, modes, scalars)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    return spec, rep, setting, x


def unfrozen_direction(spec, setting, rng, scale=0.3):
    """Random compact direction, zero on the frozen factors."""
    s = random_compact(spec, rng, scale)
    return project_subalgebra(s, setting)


def kn_scale(value, x, s):
    """Scale for relative errors: the value, or |x|^2 |s| (the size of the
    integrand) where the value is smaller by cancellation."""
    return max(abs(value), np.vdot(x, x).real * s.norm())


@pytest.mark.parametrize("layout", sorted(KN_LAYOUTS))
def test_kn_matches_closed_form(layout, rng):
    # the integrand is the t-derivative of (1/2)|e^{its} x|^2 - t <c, s>
    for _ in range(4):
        spec, rep, setting, x = random_layout(layout, rng)
        s = unfrozen_direction(spec, setting, rng)
        y = act(GroupElement(tuple(expm(1j * b) for b in s.blocks)), x, rep)
        closed = (0.5 * (np.vdot(y, y).real - np.vdot(x, x).real)
                  - inner_product(setting.central_shift, s, spec))
        val = kn_functional(x, s, rep, spec, setting, 512)
        assert abs(val - closed) <= 1e-10 * kn_scale(closed, x, s), (layout, val, closed)


def kn_per_node(x, s, rep, spec, setting, quadrature_steps):
    """The quadrature as one exponential, action and pairing per node."""
    m = quadrature_steps + quadrature_steps % 2
    ts = np.linspace(0.0, 1.0, m + 1)
    vals = np.empty(m + 1)
    for k, t in enumerate(ts):
        y = act(GroupElement(tuple(expm(1j * t * b) for b in s.blocks)), x, rep)
        mh = project_subalgebra(mu_full(y, rep, spec), setting) - setting.central_shift
        vals[k] = inner_product(mh, s, spec)
    h = 1.0 / m
    return h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())


@pytest.mark.parametrize("layout", sorted(KN_LAYOUTS))
def test_kn_matches_per_node_loop(layout, rng):
    for panels in (8, 65):
        spec, rep, setting, x = random_layout(layout, rng)
        s = random_compact(spec, rng, 0.3)  # frozen blocks act on x, but are not paired
        want = kn_per_node(x, s, rep, spec, setting, panels)
        got = kn_functional(x, s, rep, spec, setting, panels)
        assert abs(got - want) <= 1e-13 * kn_scale(want, x, s), (layout, got, want)


def stabilizer_reference(x, rep, setting):
    """Dimension of the compact stabilizer from one ``infinitesimal_act`` per
    element of a skew-Hermitian basis of each unfrozen factor."""
    cols = []
    for f in setting.unfrozen():
        n = rep.spec.factor_dims[f]
        for j in range(n):
            for k in range(n):
                b = np.zeros((n, n), complex)
                if j == k:
                    b[j, j] = 1j
                elif j < k:
                    b[j, k], b[k, j] = 1.0, -1.0
                else:
                    b[j, k] = b[k, j] = 1j
                blocks = [np.zeros((m, m), complex) for m in rep.spec.factor_dims]
                blocks[f] = b
                cols.append(infinitesimal_act(AlgebraElement(tuple(blocks)), x, rep))
    a = np.array([np.concatenate([c.real, c.imag]) for c in cols])
    return len(cols) - int(np.linalg.matrix_rank(a, rtol=1e-8))


@pytest.mark.parametrize("layout", sorted(KN_LAYOUTS))
def test_stabilizer_dimension_matches_per_element_reference(layout, rng):
    for _ in range(6):
        spec, rep, setting, x = random_layout(layout, rng)
        assert compact_stabilizer_dimension(x, rep, setting) == stabilizer_reference(x, rep, setting)
        # at x = 0 every direction of every unfrozen factor fixes x
        zero = np.zeros(rep.dim, dtype=complex)
        assert compact_stabilizer_dimension(zero, rep, setting) == sum(
            spec.factor_dims[f] ** 2 for f in setting.unfrozen())


def test_kn_rejects_a_general_direction(rng):
    spec, rep = u2_tensor(2)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    s = AlgebraElement((np.eye(2), np.zeros((2, 2))), "general")
    with pytest.raises(ValueError, match="compact"):
        kn_functional(x, s, rep, spec, central(spec, 0.5))


def test_metric_exponent_matches_logm(rng):
    spec = ProductGroupSpec((1, 2, 3))
    setting = SubgroupSetting(spec, ("full", "frozen", "constant"))
    for _ in range(10):
        g = GroupElement(tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                               for n in spec.factor_dims))
        w = metric_exponent(g, setting)
        assert np.all(w.blocks[1] == 0)
        for i in (0, 2):
            b = g.blocks[i]
            ref = -0.5j * logm(b.conj().T @ b)
            assert np.linalg.norm(w.blocks[i] - ref) <= 1e-12 * (1 + np.linalg.norm(ref))
            assert np.array_equal(w.blocks[i], -w.blocks[i].conj().T)


# ---------------------------------------------------------------------------
# gradient flow


def reference_flow(x, rep, spec, setting, max_iter, tol):
    """The point flow on validated elements: ``act``, ``mu_shifted``,
    ``inner_product`` and ``GroupElement.compose`` under ``descend``."""
    def residual(h):
        r = mu_shifted(act(h, x, rep), rep, spec, setting)
        return r, (float(np.sqrt(max(inner_product(r, r, spec), 0.0))),), lambda: sup_log(h)

    def move(h, r, step):
        return GroupElement(tuple(
            expm(-1j * step * b) if setting.modes[i] != FROZEN else np.eye(len(b), dtype=complex)
            for i, b in enumerate(r.blocks)), "complexified").compose(h)

    def sup_log(h):
        worst = 0.0
        for i, b in enumerate(h.blocks):
            if setting.modes[i] != FROZEN:
                ev = np.clip(np.linalg.eigvalsh(b.conj().T @ b), 1e-300, None)
                worst = max(worst, 0.5 * float(np.max(np.abs(np.log(ev)))))
        return worst

    return descend(GroupElement.identity(spec, "complexified"), residual, move, 0.1, tol, 1.0,
                   50.0, max_iter)


def test_flow_matches_the_element_reference_exactly():
    """Every layout, six seeds each, at two iteration caps: the same
    trajectory, stop, metric and final blocks, bit for bit.  A stalled
    flow's stop moves with a last-bit change, so the stalls are covered."""
    reasons = set()
    for layout in sorted(KN_LAYOUTS):
        for seed in range(6):
            spec, rep, setting, x = random_layout(layout, np.random.default_rng(seed))
            for max_iter in (25, 3000):
                got = gradient_flow(x, rep, spec, setting, max_iter=max_iter, tol=1e-8)
                want = reference_flow(x, rep, spec, setting, max_iter, 1e-8)
                case = (layout, seed, max_iter)
                assert got.trajectory == [row[1] for row in want.rows], case
                assert (got.iterations, got.reason, got.rejections) == (
                    want.iterations, want.reason, want.rejections), case
                assert got.final_residual == want.norms[0], case
                assert got.sup_log_metric == want.sup_log, case
                assert all(np.array_equal(a, b) for a, b in zip(
                    got.final_group_element.blocks, want.x.blocks)), case
                reasons.add(got.reason)
    assert reasons == {"", "stationary residual", "step underflow", "metric blow-up", "max_iter"}


def test_flow_checks_its_start_against_the_group():
    spec, rep = u2_tensor(3)
    x = np.ones(rep.dim, dtype=complex)
    for blocks in ((np.eye(3), np.eye(3)), (np.eye(2),)):
        with pytest.raises(DimensionMismatchError):
            gradient_flow(x, rep, spec, central(spec, 0.5), h0=GroupElement(blocks))
    with pytest.raises(DimensionMismatchError):
        gradient_flow(np.ones(rep.dim + 1), rep, spec, central(spec, 0.5))


def test_flow_u1_closed_form():
    c0 = 4.0
    setting = SubgroupSetting(U1, ("full",), (c0,))
    res = gradient_flow(np.array([1.0 + 0j]), REP_U1, U1, setting, tol=1e-10)
    assert res.converged
    h = res.final_group_element.blocks[0][0, 0]
    assert abs(abs(h) - 2.0) < 1e-6
    assert res.final_residual < 1e-10


def test_flow_already_solved():
    c0 = 2.25
    setting = SubgroupSetting(U1, ("full",), (c0,))
    res = gradient_flow(np.array([1.5 + 0j]), REP_U1, U1, setting, tol=1e-9)
    assert res.converged
    assert res.iterations <= 1


def test_flow_trajectory_monotone(rng):
    spec, rep = u2_tensor(2)
    setting = central(spec, 1.0)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    res = gradient_flow(x, rep, spec, setting, max_iter=2000, tol=1e-9)
    t = np.array(res.trajectory)
    assert np.all(np.diff(t) <= 1e-12)


def test_flow_unstable_diverges(rng):
    spec, rep = u2_tensor(2)
    setting = central(spec, -0.8)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    res = gradient_flow(x, rep, spec, setting, max_iter=4000, tol=1e-9)
    assert not res.converged


def test_flow_stationary_residual_is_labelled(rng):
    spec, rep = u2_tensor(3)
    setting = central(spec, -0.8)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    res = gradient_flow(x, rep, spec, setting, max_iter=8000, tol=1e-8)
    assert not res.converged
    assert res.reason == "stationary residual"
    assert res.iterations < 8000 and res.iterations == res.rejections[-1]


# descend on a scalar problem: x -> x - gain * step * x, norms (|x|, 2 |x|)


def scalar_descent(x0=1.0, gain=1.0, step=0.1, tol=1e-10, step_cap=1.0,
                   metric_cutoff=50.0, max_iter=1000, move=None, sup_log=None):
    steps = []

    def default_move(x, r, s):
        return x - gain * s * r

    def recording_move(x, r, s):
        steps.append(s)
        return (move or default_move)(x, r, s)

    def residual(x):
        return x, (abs(x), 2.0 * abs(x)), lambda: sup_log(x) if sup_log else 0.0

    d = descend(x0, residual, recording_move, step, tol, step_cap, metric_cutoff, max_iter)
    return d, steps


def test_descend_converges_iff_norm_reaches_tol():
    d, _ = scalar_descent(tol=1e-6)
    assert d.converged and d.reason == "" and d.norms[0] <= 1e-6 < d.rows[-2][1]
    assert d.rejections == [] and len(d.rows) == d.iterations + 1
    assert d.rows[0] == (0, 1.0, 2.0, 0.0) and d.rows[-1] == (d.iterations, d.x, 2 * d.x, 0.0)
    d, _ = scalar_descent(tol=1e-6, max_iter=3)
    assert not d.converged and d.reason == "max_iter"
    assert d.iterations == 3 and d.norms[0] > 1e-6


def test_descend_doubles_after_five_accepts_up_to_the_cap():
    d, steps = scalar_descent(step_cap=0.4, tol=1e-12)
    assert d.converged and d.rejections == []
    assert steps[:10] == [0.1] * 5 + [0.2] * 5
    assert len(steps) > 15 and set(steps[10:]) == {0.4}


def test_descend_halves_on_a_rejection():
    # gain 25 overshoots at step 0.1 (x -> -1.5 x) and not at 0.05 (x -> -0.25 x)
    d, steps = scalar_descent(gain=25.0)
    assert d.converged and d.rows[1][0] == 2
    assert steps[:8] == [0.1] + [0.05] * 5 + [0.1, 0.05]
    assert d.rejections[:2] == [1, 7]


def test_descend_single_exact_tie_does_not_stop():
    trials = []

    def move(x, r, s):
        trials.append(s)
        return -x if len(trials) == 1 else x - s * r  # |-x| == |x|: a tie at the first trial only

    d, steps = scalar_descent(move=move)
    assert d.converged and d.rejections == [1] and steps[:2] == [0.1, 0.05]


def test_descend_stops_on_two_consecutive_ties():
    d, steps = scalar_descent(move=lambda x, r, s: -x)
    assert not d.converged and d.reason == "stationary residual"
    assert d.iterations == 2 and d.rejections == [1, 2] and steps == [0.1, 0.05]
    assert d.x == 1.0 and d.rows == [(0, 1.0, 2.0, 0.0)]


def test_descend_step_underflow():
    # every trial raises the residual without a tie: the step halves to the
    # 1e-15 floor, which 0.1 / 2**46 is above and 0.1 / 2**47 below
    d, steps = scalar_descent(move=lambda x, r, s: x + 1.0)
    assert not d.converged and d.reason == "step underflow"
    assert d.iterations == 47 and d.rejections == list(range(1, 48))
    assert steps[-1] == 0.1 * 0.5 ** 46 and d.x == 1.0


def test_descend_non_finite_residual():
    d, _ = scalar_descent(move=lambda x, r, s: np.nan)
    assert not d.converged and d.reason == "non-finite residual"
    assert d.iterations == 1 and d.rejections == [] and d.x == 1.0


def test_descend_non_finite_start():
    # NaN > tol is false: a NaN start must not pass for a flow that ran out of iterations
    d, steps = scalar_descent(x0=np.nan)
    assert not d.converged and d.reason == "non-finite residual"
    assert d.iterations == 0 and steps == []


def test_descend_metric_blow_up():
    # sup_log = -log x passes 0.3 at the third accepted step, 0.9**3 = 0.729
    d, _ = scalar_descent(sup_log=lambda x: -np.log(x), metric_cutoff=0.3)
    assert not d.converged and d.reason == "metric blow-up"
    assert d.iterations == 3 and d.sup_log > 0.3 and len(d.rows) == 4


def overshooting_descent(rejected_metric):
    """descend at gain 25, which overshoots at step 0.1 (|x| grows 1.5-fold,
    a rejection) and not at 0.05, with ``rejected_metric`` as the metric
    thunk of every rejected trial; the measured points in order."""
    measured, steps = [], [None]

    def move(x, r, s):
        steps[0] = s
        return x - 25.0 * s * r

    def residual(x):
        def metric():
            measured.append(x)
            return 0.0

        return x, (abs(x), 2.0 * abs(x)), rejected_metric if steps[0] == 0.1 else metric

    d = descend(1.0, residual, move, 0.1, 1e-10, 1.0, 50.0, 1000)
    return d, measured


def test_descend_measures_the_start_and_each_accepted_trial_only():
    def never():
        raise AssertionError("measured the metric of a rejected trial")

    d, measured = overshooting_descent(never)
    assert d.converged and d.rejections
    assert len(measured) == len(d.rows)
    assert [abs(x) for x in measured] == [row[1] for row in d.rows]


def test_descend_ignores_the_metric_of_a_rejected_trial():
    # each rejected trial's metric passes the cutoff 50
    d, measured = overshooting_descent(lambda: 1e3)
    assert d.converged and d.reason == "" and d.rejections
    assert all(row[-1] == 0.0 for row in d.rows) and d.sup_log == 0.0


def test_flow_uniqueness_modulo_unitary(rng):
    spec, rep = u2_tensor(2)
    setting = central(spec, 1.2)
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    results = []
    for _ in range(2):
        s = 0.3 * random_compact(spec, rng)
        from scipy.linalg import expm

        h0 = GroupElement(
            (expm(1j * s.blocks[0]), np.eye(2, dtype=complex)), "complexified"
        )
        res = gradient_flow(x, rep, spec, setting, h0=h0, max_iter=20000, tol=1e-11)
        assert res.converged
        results.append(res.final_group_element)
    d = results[1].blocks[0] @ np.linalg.inv(results[0].blocks[0])
    assert np.linalg.norm(d.conj().T @ d - np.eye(2)) < 1e-6


def test_flow_matches_stability(rng):
    spec, rep = u2_tensor(2)
    checked = 0
    for _ in range(25):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        c1 = rng.uniform(-1.5, 1.5)
        if abs(c1) < 0.15:
            continue
        setting = central(spec, c1)
        if not is_simple(x, rep, setting):
            continue
        v = stability_test(x, rep, spec, setting)
        res = gradient_flow(x, rep, spec, setting, max_iter=6000, tol=1e-8)
        assert res.converged == v.stable
        checked += 1
    assert checked >= 10
