"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Budgets are asserted with the stated limits.
"""
import time
from fractions import Fraction

import numpy as np

from gpwb.cli import run as cli_run
from gpwb.fixtures import (
    CurveFixture,
    ssc_reduction_equiv,
    verdict,
)
from gpwb.flows import (
    FlowOpts,
    assemble_example,
    constraint_diagnostics,
    heat_flow,
    newton_abelian,
)
from gpwb.groups import (
    AlgebraElement,
    GroupElement,
    ProductGroupSpec,
    SubgroupSetting,
    inner_product,
    random_compact,
    random_unitary,
)
from gpwb.kempf_ness import (
    WeightedFiltration,
    default_subspace_lattice,
    gradient_flow,
    is_simple,
    kn_functional,
    kn_functional_group,
    stability_test,
    total_weight,
)
from gpwb.lattice import (
    TWO_PI,
    build_torus,
    gauge_transform,
    holomorphic_sections,
    make_constant_curvature_line_bundle,
    random_unitary_gauge,
    section_transport,
)
from gpwb.reps import (
    ADJOINT,
    DUAL,
    STANDARD,
    RepSpec,
    Slot,
    act,
    infinitesimal_act,
    moment_block,
    mu_full,
    symplectic_form,
)

from chains import nested_chains

RNG = np.random.default_rng(987654321)


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: PASS {detail}")


def rep_classes():
    """The five example representation classes at desk scale."""
    tensor = RepSpec(ProductGroupSpec((2, 3)),
                     (Slot(2, STANDARD, 0), Slot(3, STANDARD, 1)))
    hom = RepSpec(ProductGroupSpec((2, 3)),
                  (Slot(2, STANDARD, 0), Slot(3, DUAL, 1)))
    coh = RepSpec(ProductGroupSpec((3, 2)),
                  (Slot(3, STANDARD, 0), Slot(2, DUAL, 1)))
    twisted = RepSpec(ProductGroupSpec((2, 2, 2)),
                      (Slot(2, STANDARD, 0), Slot(2, DUAL, 1), Slot(2, DUAL, 2)))
    higgs = RepSpec(ProductGroupSpec((2, 1)),
                    (Slot(4, ADJOINT, 0), Slot(1, STANDARD, 1)))
    return [("tensor", tensor), ("hom", hom), ("coherent", coh),
            ("twisted", twisted), ("higgs", higgs)]


def test_criterion_01_moment_map_suite():
    t0 = time.time()
    eps = 1e-5
    for name, rep in rep_classes():
        spec = rep.spec
        for _ in range(200):
            x = RNG.standard_normal(rep.dim) + 1j * RNG.standard_normal(rep.dim)
            k = random_unitary(spec, RNG)
            m = mu_full(x, rep)
            # skew-Hermitian output
            for b in m.blocks:
                assert np.linalg.norm(b + b.conj().T) <= 1e-12 * (1 + np.linalg.norm(b))
            # equivariance
            lhs = mu_full(act(k, x, rep), rep)
            for i, b in enumerate(lhs.blocks):
                rhs = k.blocks[i] @ m.blocks[i] @ k.blocks[i].conj().T
                assert np.linalg.norm(b - rhs) < 1e-11 * (1 + np.linalg.norm(x) ** 2)
            # Hamiltonian pairing by central differences
            v = RNG.standard_normal(rep.dim) + 1j * RNG.standard_normal(rep.dim)
            s = random_compact(spec, RNG)
            hp = inner_product(mu_full(x + eps * v, rep), s, spec)
            hm = inner_product(mu_full(x - eps * v, rep), s, spec)
            om = symplectic_form(infinitesimal_act(s, x, rep), v)
            assert abs((hp - hm) / (2 * eps) - om) < 1e-4 * (1 + abs(om))
            if name in ("hom", "coherent"):
                assert abs(np.trace(m.blocks[0]) + np.trace(m.blocks[1])) < 1e-12 * (
                    1 + np.linalg.norm(x) ** 2
                )
            if name == "higgs":
                assert abs(np.trace(m.blocks[0])) < 1e-13 * (1 + np.linalg.norm(x) ** 2)
    dt = time.time() - t0
    assert dt < 10.0
    report(1, "moment-map suite", f"(5 rep classes x 200 instances, {dt:.1f}s)")


def _brute_force_stable(x, rep, spec, setting, rng, n_grid=5, n_rand=25):
    n = spec.factor_dims[0]
    subs = list(default_subspace_lattice(x, rep, 0))
    for _ in range(n_rand):
        k = int(rng.integers(1, n))
        q = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
        subs.append(q[:, :k])
    c = setting.central_shift
    worst = np.inf
    grid = np.linspace(-2, 2, n_grid)
    for chain in nested_chains(subs, n):
        r = len(chain)
        for alpha in np.stack(np.meshgrid(*([grid] * r)), axis=-1).reshape(-1, r):
            if np.any(np.diff(alpha) <= 1e-12) or np.linalg.norm(alpha) < 1e-9:
                continue
            filt = WeightedFiltration(0, tuple(chain), tuple(alpha))
            worst = min(worst, total_weight(x, filt, c, rep))
    return worst > 0


def test_criterion_02_finite_dim_correspondence():
    t0 = time.time()
    spec = ProductGroupSpec((2, 2))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(2, STANDARD, 1)))
    rng = np.random.default_rng(24601)
    done = 0
    while done < 100:
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        c1 = float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
        setting = SubgroupSetting(spec, ("full", "frozen"), (c1, 0.0))
        if not is_simple(x, rep, setting):
            continue
        v = stability_test(x, rep, spec, setting)
        if v.marginal:
            continue
        res = gradient_flow(x, rep, spec, setting, max_iter=8000, tol=1e-8)
        assert res.converged == v.stable, (c1, v.slack, res.final_residual)
        assert _brute_force_stable(x, rep, spec, setting, rng) == v.stable
        done += 1
    dt = time.time() - t0
    assert dt < 120.0
    report(2, "finite-dimensional correspondence", f"(100 simple fixtures, {dt:.1f}s)")


def test_criterion_03_integral_functional():
    t0 = time.time()
    spec = ProductGroupSpec((2, 2))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(2, STANDARD, 1)))
    setting = SubgroupSetting(spec, ("full", "frozen"), (0.8, 0.0))
    rng = np.random.default_rng(31415)
    from scipy.linalg import expm

    panels = 512
    for _ in range(50):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        s = 0.4 * random_compact(spec, rng)
        t = 0.4 * random_compact(spec, rng)
        s = AlgebraElement((s.blocks[0], np.zeros((2, 2), complex)), "compact")
        t = AlgebraElement((t.blocks[0], np.zeros((2, 2), complex)), "compact")
        g = GroupElement(tuple(expm(1j * b) for b in s.blocks), "complexified")
        h = GroupElement(tuple(expm(1j * b) for b in t.blocks), "complexified")
        lhs = kn_functional(x, s, rep, spec, setting, panels) + kn_functional(
            act(g, x, rep), t, rep, spec, setting, panels
        )
        rhs = kn_functional_group(x, h.compose(g), rep, spec, setting, panels)
        assert abs(lhs - rhs) < 1e-6 * (1 + abs(rhs))
    # critical-point property at a constructed zero of the shifted moment map
    c0 = 0.8
    q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    x0 = (np.sqrt(c0) * np.hstack([q, np.zeros((2, 0))])).reshape(-1)  # rows orthonormal*sqrt(c)
    from gpwb.reps import mu_shifted

    assert np.linalg.norm(mu_shifted(x0, rep, spec, setting).blocks[0]) < 1e-12
    for _ in range(5):
        s = 0.5 * random_compact(spec, rng)
        s = AlgebraElement((s.blocks[0], np.zeros((2, 2), complex)), "compact")
        val = kn_functional(x0, 1e-4 * s, rep, spec, setting, 128)
        assert abs(val) < 1e-7  # O(eps^2) at a critical point
    dt = time.time() - t0
    assert dt < 30.0
    report(3, "integral of the moment map", f"(cocycle+critical point, {dt:.1f}s)")


def test_criterion_04_vortex_threshold():
    t0 = time.time()
    d, n = 1, 32
    unit = TWO_PI * d
    solvable = assemble_example("pair_tensor", {"deg1": [d], "deg2": [0], "c": 2 * unit},
                                lattice_n=n, seed=1)
    rep = heat_flow(solvable, FlowOpts(max_iter=30000, tol=1e-8))
    assert rep.converged and rep.final_residual < 1e-8
    unsolvable = assemble_example("pair_tensor", {"deg1": [d], "deg2": [0], "c": 0.5 * unit},
                                  lattice_n=n, seed=1)
    rep2 = heat_flow(unsolvable, FlowOpts(max_iter=20000, tol=1e-8, metric_cutoff=30.0))
    assert not rep2.converged

    # bisection bracketing the threshold within 5%
    out = cli_run({"mode": "vortex_threshold", "lattice_n": n,
                   "threshold": {"d": d, "scan": [0.1, 3.0], "target_width": 0.05},
                   "flow": {"max_iter": 20000, "tol": 1e-8, "metric_cutoff": 30.0}},
                  seed=1)
    lo, hi = out["bracket_multiples"]
    assert lo <= 1.0 <= hi
    assert (hi - lo) <= 0.05

    # independent scalar-reduction oracle agreement on the solvable side
    tight = heat_flow(solvable, FlowOpts(max_iter=60000, tol=1e-10))
    newt = newton_abelian(solvable, tol=1e-12)
    assert newt.converged
    du = tight.state.u[0][:, :, 0, 0].real - newt.state.u[0][:, :, 0, 0].real
    sup = float(np.max(np.abs(du)))
    assert sup < 1e-6
    newt2 = newton_abelian(unsolvable)
    assert (not newt2.converged) and newt2.obstruction < 0
    dt = time.time() - t0
    assert dt < 300.0
    report(4, "abelian vortex threshold",
           f"(bracket [{lo:.3f},{hi:.3f}]x2pi, metric agreement {sup:.1e}, {dt:.0f}s)")


def test_criterion_05_coherent_systems():
    t0 = time.time()
    rng = np.random.default_rng(5050)
    for _ in range(20):
        dd = int(rng.integers(0, 3))
        c1 = float(rng.uniform(-2, 2))
        c2 = float(rng.uniform(-2, 2))
        st = assemble_example("coherent_system",
                              {"deg": [dd], "k": 1, "c1": c1, "c2": c2},
                              lattice_n=8, seed=int(rng.integers(1 << 31)))
        diag = constraint_diagnostics(st)
        assert abs(diag["integrated_trace"] - (TWO_PI * dd - c1 - c2)) < 1e-12
    c1 = 2 * TWO_PI
    c2 = TWO_PI - c1
    fixture = CurveFixture("coherent_system", ((1,), (0,)), ((0, 0),), (2, -1))
    v = verdict(fixture)
    assert v.stable
    st = assemble_example("coherent_system", {"deg": [1], "k": 1, "c1": c1, "c2": c2},
                          lattice_n=16, seed=2)
    rep = heat_flow(st, FlowOpts(max_iter=40000, tol=5e-9))
    assert rep.converged
    assert rep.constraint["eq_bundle_residual"] < 1e-6
    assert rep.constraint["eq_sections_residual"] < 1e-6
    dt = time.time() - t0
    assert dt < 180.0
    report(5, "coherent systems",
           f"(trace identity x20, both equations < 1e-6, {dt:.1f}s)")


def test_criterion_06_higgs():
    t0 = time.time()
    rng = np.random.default_rng(666)
    # per-site tracelessness of the interaction term
    for _ in range(5):
        theta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        st = assemble_example("higgs", {"deg": [0, 0], "theta": theta}, lattice_n=8)
        psi = st.metric_frame_section()
        mu = moment_block(psi, st.rep, 0)
        assert float(np.max(np.abs(np.trace(mu, axis1=2, axis2=3)))) <= 1e-13
    # integrated trace obstruction with cm != slope
    st = assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [0, 0]], "cm": 0.7},
                          lattice_n=8)
    diag = constraint_diagnostics(st)
    assert abs(diag["integrated_trace"] - 2 * (0.0 - 0.7)) < 1e-10
    # stable rank-2 fixture with off-diagonal field converges
    fx = CurveFixture("higgs", ((0, 0), (0,)), ((0, 1), (1, 0)), (0, 0))
    assert verdict(fx).stable
    st = assemble_example("higgs", {"deg": [0, 0], "theta": [[0, 2.0], [0.5, 0]]},
                          lattice_n=16)
    rep = heat_flow(st, FlowOpts(max_iter=20000, tol=1e-9))
    assert rep.converged
    # split fixture with zero field diverges
    fx0 = CurveFixture("higgs", ((1, -1), (0,)), (), (0, 0))
    assert not verdict(fx0).stable
    st0 = assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [0, 0]]},
                           lattice_n=16)
    rep0 = heat_flow(st0, FlowOpts(max_iter=20000, tol=1e-8))
    assert not rep0.converged
    dt = time.time() - t0
    assert dt < 300.0
    report(6, "higgs bundles", f"(traceless, obstruction, flow both ways, {dt:.1f}s)")


def test_criterion_07_twisted_triples():
    t0 = time.time()
    rng = np.random.default_rng(777)
    # global sum rule on assembled states
    for _ in range(5):
        c1, c2 = rng.uniform(-2, 2, size=2)
        st = assemble_example("twisted_triple",
                              {"deg1": [1], "deg2": [0], "deg3": [0],
                               "c1": float(c1), "c2": float(c2)},
                              lattice_n=8, seed=int(rng.integers(1 << 31)))
        diag = constraint_diagnostics(st)
        assert abs(diag["integrated_trace"] - (TWO_PI - c1 - c2)) < 1e-12
    # trivial-twist reduction against plain triple verdicts
    for _ in range(100):
        n1 = int(rng.integers(1, 4))
        deg1 = rng.integers(-2, 4, size=n1).tolist()
        d2 = int(rng.integers(-2, 3))
        c1 = Fraction(int(rng.integers(-4, 9)), int(rng.integers(1, 4)))
        c2 = Fraction(sum(deg1) + d2) - c1 * n1
        rows = rng.choice(n1, size=int(rng.integers(0, n1 + 1)), replace=False)
        tw = CurveFixture("twisted_triple", (tuple(deg1), (d2,), (0,)),
                          tuple((int(i), 0, 0) for i in rows), (c1, c2, 0))
        tr = CurveFixture("triple_fixed_E2", (tuple(deg1), (d2,)),
                          tuple((int(i), 0) for i in rows), (c1, 0))
        assert verdict(tw).stable == verdict(tr).stable
    dt = time.time() - t0
    assert dt < 60.0
    report(7, "twisted triples", f"(sum rule x5, reduction x100, {dt:.1f}s)")


def _random_acceptance_fixture(kind, rng):
    import tests.test_fixtures as tf

    return tf.random_fixture(kind, rng)


def test_criterion_08_ssc_reduction():
    t0 = time.time()
    rng = np.random.default_rng(888)
    kinds = ["pair_tensor", "triple_fixed_E2", "coherent_system",
             "twisted_triple", "higgs"]
    for i in range(50):
        f = _random_acceptance_fixture(kinds[i % 5], rng)
        ok, _ = ssc_reduction_equiv(f, trials=1000, rng=rng)
        assert ok, f
    dt = time.time() - t0
    assert dt < 120.0
    report(8, "stability simplification", f"(50 fixtures x 1000 samples, {dt:.1f}s)")


def test_criterion_09_flow_hygiene(tmp_path):
    t0 = time.time()
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [1], "c": 3 * TWO_PI},
                          lattice_n=16, seed=4)
    frozen = st.bundles[1].links.copy()
    rep = heat_flow(st, FlowOpts(max_iter=20000, tol=1e-8))
    assert rep.converged
    assert np.array_equal(rep.state.bundles[1].links, frozen)
    for i in rep.degrees_before:
        assert abs(rep.degrees_before[i] - rep.degrees_after[i]) <= 1e-9
    # gauge covariance of the final residual
    rng = np.random.default_rng(99)
    small = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                             lattice_n=8, seed=4)
    opts = FlowOpts(max_iter=6000, tol=1e-9)
    r1 = heat_flow(small, opts)
    r2 = heat_flow(gauge_transform(small, random_unitary_gauge(small.spec, small.lattice, rng)), opts)
    assert abs(r1.final_residual - r2.final_residual) < 1e-10
    # byte-exact reports across worker counts
    cfg = {"mode": "invariant_suite"}
    p1 = tmp_path / "w1"
    p8 = tmp_path / "w8"
    cli_run(dict(cfg), out_dir=str(p1), workers=1, seed=31)
    cli_run(dict(cfg), out_dir=str(p8), workers=8, seed=31)
    assert (p1 / "report.txt").read_bytes() == (p8 / "report.txt").read_bytes()
    dt = time.time() - t0
    report(9, "flow hygiene",
           f"(frozen bytes, degree drift, covariance, determinism, {dt:.1f}s)")


def test_criterion_10_section_dimensions():
    t0 = time.time()
    lat = build_torus(32)
    spec = ProductGroupSpec((1,))
    rep = RepSpec(spec, (Slot(1, STANDARD, 0),))
    for d in (1, 2, 3):
        b = make_constant_curvature_line_bundle(lat, d)
        vl = section_transport(rep, [b.links])
        secs, res, gap = holomorphic_sections(lat, vl, d)
        assert len(secs) == d
        assert gap > 1e3, (d, res, gap)
    dt = time.time() - t0
    assert dt < 60.0
    report(10, "holomorphic-section dimensions", f"(d=1,2,3 at N=32, {dt:.1f}s)")
