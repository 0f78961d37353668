"""Self-tests of the benchmark: each check rejects a wrong answer, and the
tracer sees calls made through imported names.

    python3 -m pytest -q benchmark/test_checks.py
"""
import os
import sys

import numpy as np
import pytest

import checks

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def point_case():
    """A stable point fixture with the exact solution h = sqrt(c) (MM^dagger)^(-1/2)."""
    rng = np.random.default_rng(7)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s1 = 0.2 * (a - a.conj().T)
    c1 = 0.9
    w, v = np.linalg.eigh(m @ m.conj().T)
    h0 = np.sqrt(c1) * (v / np.sqrt(w)) @ v.conj().T
    h = (h0, np.eye(3, dtype=complex))
    return m, c1, s1, h, checks.kn_closed_form(m, s1, c1)


def test_point_check_accepts_the_right_answer(point_case):
    m, c1, s1, h, kn = point_case
    assert checks.check_point(m, c1, s1, True, True, True, h, kn) == []


def test_point_check_rejects_kn_off_by_1e6(point_case):
    m, c1, s1, h, kn = point_case
    fails = checks.check_point(m, c1, s1, True, True, True, h, kn + 1e-6)
    assert len(fails) == 1 and "kn_functional" in fails[0]


def test_point_check_rejects_flipped_converged(point_case):
    m, c1, s1, h, kn = point_case
    fails = checks.check_point(m, c1, s1, True, True, False, h, kn)
    assert len(fails) == 1 and "converged" in fails[0]


def test_point_check_rejects_wrong_level_set(point_case):
    m, c1, s1, h, kn = point_case
    fails = checks.check_point(m, c1, s1, True, True, True, (1.01 * h[0], h[1]), kn)
    assert len(fails) == 1 and "c I" in fails[0]


def test_kn_closed_form_matches_quadrature(point_case):
    m, c1, s1, _, kn = point_case
    h = 1j * s1
    w, v = np.linalg.eigh(h)
    ts = np.linspace(0.0, 1.0, 2001)
    vals = []
    for t in ts:  # <mu(e^{tH} M) - c, s> = Tr(y y^dagger H) - c Tr H
        y = (v * np.exp(t * w)) @ v.conj().T @ m
        vals.append(np.trace(y @ y.conj().T @ h).real - c1 * np.trace(h).real)
    assert abs(np.trapezoid(vals, ts) - kn) < 1e-6


def test_lattice_flow_check_rejects_flipped_converged():
    degs = {0: 6.283185307179586}
    assert checks.check_lattice_flow(True, True, True, degs, degs) == []
    assert len(checks.check_lattice_flow(True, False, True, degs, degs)) == 1
    assert len(checks.check_lattice_flow(False, False, True, degs, degs)) == 1


def test_lattice_flow_check_rejects_degree_drift():
    fails = checks.check_lattice_flow(True, True, None, {0: 1.0}, {0: 1.0 + 1e-8})
    assert len(fails) == 1 and "drifted" in fails[0]


def test_bracket_check_rejects_a_bracket_without_1():
    assert checks.check_bracket(0.9609375, 1.00625) == []
    assert len(checks.check_bracket(1.01, 1.05)) == 1
    assert len(checks.check_bracket(0.95, 0.99)) == 1
    assert len(checks.check_bracket(0.9, 1.1)) == 1  # too wide


def test_unsolvable_check_rejects_a_wrong_obstruction():
    c = 0.5 * 2 * np.pi
    assert checks.check_unsolvable(False, False, c - 2 * np.pi, c, 1) == []
    assert len(checks.check_unsolvable(False, False, c - 2 * np.pi + 1e-6, c, 1)) == 1
    assert len(checks.check_unsolvable(True, False, c - 2 * np.pi, c, 1)) == 1


def test_sections_check_rejects_non_orthonormal_sections():
    n = 8
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((n * n, 2)) + 1j * rng.standard_normal((n * n, 2)))
    secs = (n * q.T).reshape(2, n, n, 1)
    assert checks.check_sections(secs, 2, 1e5) == []
    assert len(checks.check_sections(secs, 3, 1e5)) == 1
    assert len(checks.check_sections(secs, 2, 10.0)) == 1
    assert len(checks.check_sections(1.01 * secs, 2, 1e5)) == 1


def test_tracer_sees_imported_bindings_and_restores_them():
    sys.path.insert(0, SRC)
    from gpwb import cli, flows, kempf_ness, lattice, reps
    from gpwb.groups import AlgebraElement, ProductGroupSpec, SubgroupSetting
    from gpwb.reps import STANDARD, RepSpec, Slot
    from tracing import Tracer

    originals = (flows.holomorphic_sections, cli.heat_flow, kempf_ness.act)
    assert originals == (lattice.holomorphic_sections, flows.heat_flow, reps.act)
    spec = ProductGroupSpec((2, 2))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(2, STANDARD, 1)))
    setting = SubgroupSetting(spec, ("full", "frozen"), (0.5, 0.0))
    s = AlgebraElement((np.array([[1j, 0], [0, -1j]]), np.zeros((2, 2))))
    x = np.arange(4.0) + 1j
    tracer = Tracer()
    with tracer:
        assert all(getattr(f, "__wrapped__", None) is o for f, o in zip(
            (flows.holomorphic_sections, cli.heat_flow, kempf_ness.act), originals))
        kempf_ness.kn_functional(x, s, rep, spec, setting, quadrature_steps=4)
    assert (flows.holomorphic_sections, cli.heat_flow, kempf_ness.act) == originals
    calls, total, own = tracer.summary()
    assert calls["reps.act"] == 5  # one per quadrature node, called from kempf_ness
    assert tracer.calls_under("reps.act", "kempf_ness.kn_functional") == 5
    assert abs(sum(own.values()) - total["kempf_ness.kn_functional"]) < 1e-9
