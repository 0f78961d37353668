"""Self-contained invariant checks for the batch driver.

Each check takes a generator and returns (passed, detail).  They are a
compressed form of the property tests: algebra identities, moment-map
structure, lattice normalisations and file round-trips.
"""
from __future__ import annotations

import os
import tempfile
from fractions import Fraction

import numpy as np

from .fixtures import CurveFixture, ssc_reduction_equiv, verdict
from .flows import assemble_example, constraint_diagnostics
from .groups import (
    ProductGroupSpec,
    SubgroupSetting,
    exp_element,
    inner_product,
    project_subalgebra,
    random_compact,
    random_unitary,
)
from .io import emit_csv, parse_csv
from .lattice import (
    TWO_PI,
    build_torus,
    corrected_links,
    curvature_field,
    curvature_response_matrix,
    holomorphic_sections,
    lattice_degree,
    make_constant_curvature_line_bundle,
    section_transport,
)
from .reps import STANDARD, RepSpec, Slot, act, infinitesimal_act, mu_full, symplectic_form


def check_inner_product(rng):
    spec = ProductGroupSpec((2, 3))
    worst = 0.0
    for _ in range(40):
        u, v = random_compact(spec, rng), random_compact(spec, rng)
        worst = max(worst, abs(inner_product(u, v, spec) - inner_product(v, u, spec)))
        if u.norm() > 1e-9 and inner_product(u, u, spec) <= 0:
            return False, "positive definiteness failed"
    return worst < 1e-13, f"max symmetry defect {worst:.2e}"


def check_projection(rng):
    spec = ProductGroupSpec((2, 3))
    setting = SubgroupSetting(spec, ("full", "frozen"))
    worst = 0.0
    for _ in range(40):
        s, t = random_compact(spec, rng), random_compact(spec, rng)
        ps, pt = project_subalgebra(s, setting), project_subalgebra(t, setting)
        worst = max(worst, abs(inner_product(ps, t - pt, spec)))
    return worst < 1e-13, f"max orthogonality defect {worst:.2e}"


def check_exp_additivity(rng):
    spec = ProductGroupSpec((2, 3))
    worst = 0.0
    for _ in range(20):
        s = random_compact(spec, rng)
        a, b = rng.uniform(-2, 2, size=2)
        lhs = exp_element(s, a).compose(exp_element(s, b))
        rhs = exp_element(s, a + b)
        worst = max(worst,
                    max(np.linalg.norm(x - y) for x, y in zip(lhs.blocks, rhs.blocks)))
    return worst < 1e-10, f"max one-parameter defect {worst:.2e}"


def check_equivariance(rng):
    spec = ProductGroupSpec((2, 2))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(2, STANDARD, 1)))
    worst = 0.0
    for _ in range(40):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        k = random_unitary(spec, rng)
        lhs = mu_full(act(k, x, rep), rep)
        for i, b in enumerate(lhs.blocks):
            rhs = k.blocks[i] @ mu_full(x, rep).blocks[i] @ k.blocks[i].conj().T
            worst = max(worst, np.linalg.norm(b - rhs) / (1 + np.linalg.norm(x) ** 2))
    return worst < 1e-11, f"max equivariance defect {worst:.2e}"


def check_hamiltonian(rng):
    spec = ProductGroupSpec((2, 2))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(2, STANDARD, 1)))
    eps, worst = 1e-5, 0.0
    for _ in range(20):
        x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        s = random_compact(spec, rng)
        hp = inner_product(mu_full(x + eps * v, rep), s, spec)
        hm = inner_product(mu_full(x - eps * v, rep), s, spec)
        om = symplectic_form(infinitesimal_act(s, x, rep), v)
        worst = max(worst, abs((hp - hm) / (2 * eps) - om) / (1 + abs(om)))
    return worst < 1e-4, f"max finite-difference defect {worst:.2e}"


def check_degree_normalisation(rng):
    lat = build_torus(16)
    worst = 0.0
    for d in (1, -2, 3):
        b = make_constant_curvature_line_bundle(lat, d)
        worst = max(worst, abs(lattice_degree(b) - TWO_PI * d))
        f = curvature_field(b.links, lat.n)
        worst = max(worst, float(np.max(np.abs(f - TWO_PI * d))))
    return worst < 1e-9, f"max degree defect {worst:.2e}"


def check_section_dimensions(rng):
    lat = build_torus(16)
    spec = ProductGroupSpec((1,))
    rep = RepSpec(spec, (Slot(1, STANDARD, 0),))
    for d in (1, 2):
        b = make_constant_curvature_line_bundle(lat, d)
        _, res, gap = holomorphic_sections(lat, section_transport(rep, [b.links]), d)
        if res[-1] > 1e-8 or gap < 1e6:
            return False, f"d={d}: residuals {res}, gap {gap:.1e}"
    return True, "kernel dimensions match the degree"


def check_curvature_response(rng):
    lat = build_torus(12)
    b = make_constant_curvature_line_bundle(lat, 1)
    f0 = curvature_field(b.links, lat.n)
    u = 0.1 * rng.standard_normal((lat.n, lat.n, 1, 1))
    f1 = curvature_field(corrected_links(b.links, u), lat.n)
    L = curvature_response_matrix(lat)
    pred = (L @ u[:, :, 0, 0].ravel()).reshape(lat.n, lat.n)
    worst = float(np.max(np.abs((f1 - f0)[:, :, 0, 0].real - pred)))
    return worst < 1e-10, f"max response defect {worst:.2e}"


def check_coherent_trace_identity(rng):
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(0, 3))
        c1, c2 = rng.uniform(-2, 2, size=2)
        st = assemble_example("coherent_system",
                              {"deg": [d], "k": 1, "c1": float(c1), "c2": float(c2)},
                              lattice_n=8, seed=int(rng.integers(1 << 31)))
        diag = constraint_diagnostics(st)
        worst = max(worst, abs(diag["integrated_trace"] - (TWO_PI * d - c1 - c2)))
    return worst < 1e-12, f"max trace-identity defect {worst:.2e}"


def check_fixture_permutation(rng):
    worst_ok = True
    for _ in range(10):
        degs = rng.integers(-2, 3, size=3).tolist()
        rows = [int(i) for i in rng.choice(3, size=2, replace=False)]
        c = Fraction(int(rng.integers(-3, 4)), 2)
        f1 = CurveFixture("pair_tensor", (tuple(degs), (0,)),
                          tuple((i, 0) for i in rows), (c, 0))
        perm = list(rng.permutation(3))
        f2 = CurveFixture("pair_tensor", (tuple(degs[p] for p in perm), (0,)),
                          tuple((perm.index(i), 0) for i in rows), (c, 0))
        v1, v2 = verdict(f1), verdict(f2)
        worst_ok = worst_ok and (v1.stable, v1.slack) == (v2.stable, v2.slack)
    return worst_ok, "verdicts invariant under summand permutation"


def check_ssc_reduction(rng):
    f = CurveFixture("pair_tensor", ((1, 0), (0,)), ((1, 0),), (Fraction(5, 2), 0))
    ok, _ = ssc_reduction_equiv(f, trials=200, rng=rng)
    return ok, "generator cone reproduces full weights"


def check_csv_roundtrip(rng):
    rows = [(i, float(rng.standard_normal()), float(abs(rng.standard_normal())),
             float(abs(rng.standard_normal()))) for i in range(5)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        emit_csv(rows, path)
        back = parse_csv(path)
    return back == rows, "exact parse-back"


CHECKS = [
    ("inner_product", check_inner_product),
    ("subalgebra_projection", check_projection),
    ("exp_additivity", check_exp_additivity),
    ("moment_map_equivariance", check_equivariance),
    ("hamiltonian_pairing", check_hamiltonian),
    ("degree_normalisation", check_degree_normalisation),
    ("section_dimensions", check_section_dimensions),
    ("curvature_response", check_curvature_response),
    ("coherent_trace_identity", check_coherent_trace_identity),
    ("fixture_permutation_invariance", check_fixture_permutation),
    ("ssc_generator_reduction", check_ssc_reduction),
    ("csv_roundtrip", check_csv_roundtrip),
]
