import math
from pathlib import Path

import numpy as np
import pytest

from gpwb import flows
from gpwb.cli import _assembly_params
from gpwb.fixtures import KINDS, CurveFixture
from gpwb.flows import (
    FlowOpts,
    assemble_example,
    constraint_diagnostics,
    heat_flow,
    newton_abelian,
)
from gpwb.io import parse_csv
from gpwb.lattice import (
    TWO_PI,
    dbar_matrix,
    gauge_transform,
    holomorphic_sections,
    pointwise_residual,
    random_unitary_gauge,
    section_transport,
)

N = 16


def vortex_state(c_mult, n=N, d=1, seed=1):
    return assemble_example(
        "pair_tensor", {"deg1": [d], "deg2": [0], "c": c_mult * TWO_PI * d},
        lattice_n=n, seed=seed,
    )


def test_state_level_dbar_and_sections():
    st = vortex_state(2.0)
    vlinks = section_transport(st.rep, [b.links for b in st.bundles])
    D = dbar_matrix(st.lattice, vlinks)
    res = np.linalg.norm(D @ st.section.reshape(-1)) / st.lattice.n
    assert res < 1e-10
    secs, resids, gap = holomorphic_sections(st.lattice, vlinks, 1)
    assert resids[0] < 1e-10 and gap > 1e6
    assert holomorphic_sections(st.lattice, vlinks, 2)[2] < 1e6


def test_residual_zero_on_exact_solution():
    # flat U(1), constant section with |phi|^2 = c solves the equation exactly
    st = assemble_example("pair_tensor", {"deg1": [0], "deg2": [0], "c": 1.3},
                          lattice_n=8, seed=0, )
    st.section = np.full_like(st.section, np.sqrt(1.3))
    _, l2, linf = pointwise_residual(st)
    assert l2 < 1e-12 and linf < 1e-12


def test_flow_already_solved_state():
    st = assemble_example("pair_tensor", {"deg1": [0], "deg2": [0], "c": 1.3},
                          lattice_n=8, seed=0)
    st.section = np.full_like(st.section, np.sqrt(1.3))
    rep = heat_flow(st, FlowOpts(tol=1e-10))
    assert rep.converged and rep.iterations <= 1


def test_vortex_solvable_converges():
    rep = heat_flow(vortex_state(2.0), FlowOpts(max_iter=30000, tol=1e-8))
    assert rep.converged
    assert rep.final_residual < 1e-8


def test_vortex_unsolvable_diverges():
    rep = heat_flow(vortex_state(0.5), FlowOpts(max_iter=20000, tol=1e-8,
                                                metric_cutoff=30.0))
    assert not rep.converged
    assert rep.final_residual > 1.0


def test_trajectory_monotone_modulo_rejections():
    rep = heat_flow(vortex_state(2.0), FlowOpts(max_iter=3000, tol=1e-8))
    res = [row[1] for row in rep.trajectory]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(res, res[1:]))


def test_degree_conservation_along_flow():
    rep = heat_flow(vortex_state(2.0), FlowOpts(max_iter=30000, tol=1e-8))
    for i in rep.degrees_before:
        assert abs(rep.degrees_before[i] - rep.degrees_after[i]) <= 1e-9


def test_frozen_factor_untouched_bytes():
    st = vortex_state(2.0)
    frozen_links = st.bundles[1].links.copy()
    rep = heat_flow(st, FlowOpts(max_iter=2000, tol=1e-8))
    assert np.array_equal(rep.state.bundles[1].links, frozen_links)
    assert 1 not in rep.state.u  # no metric on the frozen factor


def test_newton_agrees_with_flow():
    st = vortex_state(2.0)
    flow = heat_flow(st, FlowOpts(max_iter=40000, tol=1e-10))
    newt = newton_abelian(st, tol=1e-13)
    assert flow.converged and newt.converged
    du = flow.state.u[0][:, :, 0, 0].real - newt.state.u[0][:, :, 0, 0].real
    assert np.max(np.abs(du)) < 1e-6


def test_newton_unsolvable_obstruction():
    newt = newton_abelian(vortex_state(0.5))
    assert not newt.converged
    assert newt.reason == "integral obstruction"
    assert newt.obstruction == pytest.approx(0.5 * TWO_PI - TWO_PI, abs=1e-9)


def test_newton_marginal_flagged():
    newt = newton_abelian(vortex_state(1.0))
    assert not newt.converged
    assert newt.reason == "marginal"


def test_newton_non_finite_start():
    st = vortex_state(2.0, n=8)
    st.section[:] = np.nan
    newt = newton_abelian(st)
    assert not newt.converged
    assert newt.reason == "non-finite residual" and newt.iterations == 0


def test_newton_rejects_nonabelian():
    st = assemble_example("higgs", {"deg": [0, 0], "theta": [[0, 1], [1, 0]]}, lattice_n=8)
    with pytest.raises(ValueError):
        newton_abelian(st)


def test_gauge_covariance_of_flow(rng):
    st = vortex_state(2.0, n=8)
    opts = FlowOpts(max_iter=4000, tol=1e-9)
    rep1 = heat_flow(st, opts)
    k = random_unitary_gauge(st.spec, st.lattice, rng)
    st2 = gauge_transform(st, k)
    _, l2a, _ = pointwise_residual(st)
    _, l2b, _ = pointwise_residual(st2)
    assert abs(l2a - l2b) < 1e-10
    rep2 = heat_flow(st2, opts)
    assert abs(rep1.final_residual - rep2.final_residual) < 1e-10
    assert rep1.iterations == rep2.iterations


def stable_rank2_pair(n):
    """E = L2 + L1 with the section on both rows: c-stable at c = 5/2, since
    sat<phi> is O and E/sat<phi> has slope 3 > 5/2."""
    return assemble_example("pair_tensor", {"deg1": [2, 1], "deg2": [0], "c": 2.5 * TWO_PI,
                                            "support": [[0, 0], [1, 0]]},
                            lattice_n=n, seed=1)


RANK2_OPTS = FlowOpts(tol=1e-7, metric_cutoff=25.0)


def test_gauge_covariance_of_rank2_flow(rng):
    st = stable_rank2_pair(8)
    rep1 = heat_flow(st, RANK2_OPTS)
    st2 = gauge_transform(st, random_unitary_gauge(st.spec, st.lattice, rng))
    assert np.max(np.abs(st2.bundles[0].links - st.bundles[0].links)) > 0.1
    rep2 = heat_flow(st2, RANK2_OPTS)
    assert rep1.converged and rep2.converged
    assert rep1.iterations == rep2.iterations
    assert abs(rep1.final_residual - rep2.final_residual) < 1e-10


def test_constant_unitary_gauge_keeps_the_residual(rng):
    # a constant unitary gauge is a symmetry of the constant-mode group, so it
    # keeps the residual also where the constant exponent is not zero; a
    # gauge that varies over the sites is not in that group
    st = assemble_example("coherent_system", {"deg": [2, 1], "k": 2}, lattice_n=8, seed=1)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    st.u[1] = 0.3 * (h + h.conj().T)
    k = random_unitary_gauge(st.spec, st.lattice, rng)
    with pytest.raises(ValueError, match="constant mode"):
        gauge_transform(st, k)
    k[1] = np.broadcast_to(k[1][0, 0], k[1].shape).copy()
    gauged = gauge_transform(st, k)
    _, l2a, _ = pointwise_residual(st)
    _, l2b, _ = pointwise_residual(gauged)
    assert abs(l2a - l2b) < 1e-12 * l2a
    assert np.max(np.abs(gauged.u[1] - st.u[1])) > 0.01


@pytest.mark.parametrize("kind", list(KINDS))
def test_residual_is_gauge_covariant_for_every_kind(kind, rng):
    # random exponents on every unfrozen factor and a site-varying unitary
    # gauge (constant on a constant-mode factor): the l2 norm is kept and
    # each residual block comes out conjugated by its factor's gauge
    fixture = CurveFixture(kind, *KINDS[kind].default_fixture)
    st = assemble_example(kind, _assembly_params(fixture), lattice_n=8, seed=1)
    for i, u in st.u.items():
        h = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        st.u[i] = 0.2 * (h + np.swapaxes(h, -1, -2).conj())
    k = random_unitary_gauge(st.spec, st.lattice, rng)
    for i, mode in enumerate(st.setting.modes):
        if mode == "constant":
            k[i] = np.broadcast_to(k[i][0, 0], k[i].shape).copy()
    blocks, l2a, _ = pointwise_residual(st)
    gauged, l2b, _ = pointwise_residual(gauge_transform(st, k))
    assert abs(l2a - l2b) <= 1e-12 * l2a
    assert blocks.keys() == gauged.keys() == set(st.u)
    for i, r in blocks.items():
        ki = k[i] if r.ndim == 4 else k[i][0, 0]
        want = ki @ r @ np.swapaxes(ki, -1, -2).conj()
        assert np.max(np.abs(gauged[i] - want)) <= 1e-12 * np.max(np.abs(r))


@pytest.mark.parametrize("n", [8, 16])
def test_rank2_stable_flow_steps_do_not_grow_with_n(n):
    rep = heat_flow(stable_rank2_pair(n), RANK2_OPTS)
    assert rep.converged
    assert rep.iterations <= 150
    assert abs(rep.degrees_after[0] - rep.degrees_before[0]) <= 1e-9


def test_rank2_trajectory_matches_the_recorded_one():
    """The L2 + L1 pair at c = 5/2, N = 8, section seed 1: iterations,
    rejections and stop reason exactly, and every trajectory row to 1e-12
    relative, against the trajectory kept in tests/data."""
    rep = heat_flow(stable_rank2_pair(8), RANK2_OPTS)
    assert (rep.iterations, rep.converged, rep.reason) == (75, True, "")
    assert rep.rejections == [6, 7, 18, 21, 32, 34, 45, 47, 58, 60, 71, 73]
    want = parse_csv(Path(__file__).parent / "data" / "trajectories" / "pair-L2+L1-c5_2-N8.csv")
    assert [row[0] for row in rep.trajectory] == [row[0] for row in want]
    for got, row in zip(rep.trajectory, want):
        assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got[1:], row[1:])), (got, row)


def test_heat_flow_takes_one_spectral_split_per_residual(monkeypatch):
    # the start and 75 trials: the metric of an accepted trial reuses its split
    calls = []
    real = flows._metric_splits

    def counted(u):
        calls.append(1)
        return real(u)

    monkeypatch.setattr(flows, "_metric_splits", counted)
    rep = heat_flow(stable_rank2_pair(8), RANK2_OPTS)
    assert rep.iterations == 75 and len(calls) == 76


def test_flow_stops_on_stationary_residual():
    # L1 + L-1 without a Higgs field: the descent field is constant on each
    # diagonal entry and moves no curvature, so every trial residual ties
    st = assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [0, 0]]},
                          lattice_n=N)
    rep = heat_flow(st, RANK2_OPTS)
    assert not rep.converged
    assert rep.reason == "stationary residual"
    assert rep.iterations == 2 and rep.rejections == [1, 2]
    assert np.array_equal(rep.state.u[0], st.u[0])
    assert rep.degrees_after == rep.degrees_before


def test_single_exact_tie_does_not_stop_the_flow(monkeypatch):
    calls = []
    real = flows.pointwise_residual

    def first_trial_ties(state, *args):
        blocks, l2, linf = real(state, *args)
        calls.append(l2)
        if len(calls) == 2:  # the first trial reports the current residual
            return blocks, calls[0], linf
        return blocks, l2, linf

    monkeypatch.setattr(flows, "pointwise_residual", first_trial_ties)
    rep = heat_flow(stable_rank2_pair(8), RANK2_OPTS)
    assert rep.rejections[0] == 1
    assert rep.converged


class _CountedLU:
    """An LU that counts how many of its kind are alive."""
    made = 0
    alive = 0
    most_alive = 0

    def __init__(self, lu):
        self.lu = lu
        cls = type(self)
        cls.made += 1
        cls.alive += 1
        cls.most_alive = max(cls.most_alive, cls.alive)

    def __del__(self):
        type(self).alive -= 1

    def solve(self, b):
        return self.lu.solve(b)


@pytest.mark.parametrize("degrees,c,n,seed,converges,most_splu", [
    # 75 steps over the cycle 0.05, 0.1, 0.2: 3 factorizations; 13 with
    # room for two LUs, 24 with room for one
    ([2, 1], 2.5, 8, 1, True, 3),
    # unstable, sat<phi> = L1: the step keeps halving until the residual
    # stalls; 22 factorizations, 23 with room for two LUs, 24 with one
    ([1, 1], 1.5, 16, 3, False, 23),
])
def test_rank2_flow_keeps_three_factorizations(monkeypatch, degrees, c, n, seed, converges,
                                               most_splu):
    st = assemble_example("pair_tensor", {"deg1": degrees, "deg2": [0], "c": c * TWO_PI,
                                          "support": [[0, 0], [1, 0]]},
                          lattice_n=n, seed=seed)
    real = flows.spla.splu
    monkeypatch.setattr(_CountedLU, "made", 0)
    monkeypatch.setattr(_CountedLU, "alive", 0)
    monkeypatch.setattr(_CountedLU, "most_alive", 0)
    monkeypatch.setattr(flows.spla, "splu", lambda *a, **k: _CountedLU(real(*a, **k)))
    rep = heat_flow(st, RANK2_OPTS)
    assert rep.converged == converges
    assert _CountedLU.made <= most_splu
    assert _CountedLU.most_alive <= 3
    assert _CountedLU.alive == 0


class _FreshLU:
    """Stands in for an LU: factors its matrix afresh on every solve."""

    def __init__(self, splu, *args, **kwargs):
        self.factor = lambda: splu(*args, **kwargs)

    def solve(self, b):
        return self.factor().solve(b)


@pytest.mark.parametrize("state", [
    lambda: stable_rank2_pair(8),
    # the rank-2 coherent system of the benchmark: steps cycle over 0.1,
    # 0.05 and 0.025
    lambda: assemble_example("coherent_system",
                             {"deg": [2, 1], "k": 1, "c1": 2.5 * TWO_PI, "c2": -2 * TWO_PI,
                              "support": [[0, 0], [1, 0]]}, lattice_n=8, seed=1),
], ids=["pair", "coherent_system"])
def test_reused_factorizations_keep_the_bits(monkeypatch, state):
    st = state()
    kept = heat_flow(st, RANK2_OPTS)
    real = flows.spla.splu
    monkeypatch.setattr(flows.spla, "splu", lambda *a, **k: _FreshLU(real, *a, **k))
    fresh = heat_flow(st, RANK2_OPTS)
    assert kept.converged and fresh.converged
    assert kept.state.u.keys() == fresh.state.u.keys()
    assert all(np.array_equal(kept.state.u[i], fresh.state.u[i]) for i in kept.state.u)
    assert kept.trajectory == fresh.trajectory
    assert (kept.rejections, kept.reason) == (fresh.rejections, fresh.reason)


# ---------------------------------------------------------------------------
# coherent systems


def coherent_state(c1_mult=2.0, d=1, seed=2, n=N):
    c1 = c1_mult * TWO_PI
    c2 = TWO_PI * d - c1
    return assemble_example("coherent_system",
                            {"deg": [d], "k": 1, "c1": c1, "c2": c2},
                            lattice_n=n, seed=seed)


def test_coherent_constraint_slack_zero():
    st = coherent_state()
    d = constraint_diagnostics(st)
    assert d["constraint_slack"] == pytest.approx(0.0, abs=1e-12)


def test_coherent_trace_identity_random_configs(rng):
    # site-averaged residual trace equals deg - c1 rk - c2 k for any c's
    for _ in range(10):
        d = int(rng.integers(0, 3))
        c1 = float(rng.uniform(-2, 2))
        c2 = float(rng.uniform(-2, 2))
        st = assemble_example("coherent_system",
                              {"deg": [d], "k": 1, "c1": c1, "c2": c2},
                              lattice_n=8, seed=int(rng.integers(1e6)))
        diag = constraint_diagnostics(st)
        expect = TWO_PI * d - c1 * 1 - c2 * 1
        assert diag["integrated_trace"] == pytest.approx(expect, abs=1e-12)


def test_coherent_flow_solves_both_equations():
    rep = heat_flow(coherent_state(), FlowOpts(max_iter=30000, tol=1e-8))
    assert rep.converged
    assert rep.constraint["eq_bundle_residual"] < 1e-6
    assert rep.constraint["eq_sections_residual"] < 1e-6


def test_coherent_constraint_violation_warns():
    st = assemble_example("coherent_system",
                          {"deg": [1], "k": 1, "c1": TWO_PI, "c2": 0.5},
                          lattice_n=8, seed=0)
    assert constraint_diagnostics(st)["constraint_slack"] == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# higgs


def test_higgs_interaction_traceless_everywhere(rng):
    st = assemble_example("higgs", {"deg": [0, 0],
                                    "theta": rng.standard_normal((2, 2))}, lattice_n=8)
    diag = constraint_diagnostics(st)
    assert diag["interaction_trace_sup"] <= 1e-13


def test_higgs_obstruction_value():
    st = assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [0, 0]], "cm": 0.7},
                          lattice_n=8)
    diag = constraint_diagnostics(st)
    assert diag["integrated_trace"] == pytest.approx(2 * (0.0 - 0.7), abs=1e-10)
    assert diag["trace_obstruction"] == pytest.approx(-1.4, abs=1e-12)


def test_higgs_stable_flow_converges():
    st = assemble_example("higgs", {"deg": [0, 0], "theta": [[0, 2.0], [0.5, 0]]},
                          lattice_n=N)
    rep = heat_flow(st, FlowOpts(max_iter=20000, tol=1e-10))
    assert rep.converged
    # solution is the constant metric balancing the two off-diagonal entries
    u = rep.state.u[0]
    assert np.max(np.abs(u - u.mean(axis=(0, 1)))) < 1e-8


def test_higgs_unstable_flow_diverges():
    st = assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [0, 0]]},
                          lattice_n=N)
    rep = heat_flow(st, FlowOpts(max_iter=20000, tol=1e-8))
    assert not rep.converged
    assert rep.final_residual > 1.0  # residual floor from the degree mismatch


def test_higgs_rejects_negative_degree_component():
    with pytest.raises(ValueError):
        assemble_example("higgs", {"deg": [1, -1], "theta": [[0, 0], [1.0, 0]]},
                         lattice_n=8)


# ---------------------------------------------------------------------------
# twisted triples


def twisted_state(seed=3, n=N):
    c1 = 1.5 * TWO_PI
    c2 = TWO_PI * (1 + 0) - c1  # n1 = n2 = 1
    return assemble_example("twisted_triple",
                            {"deg1": [1], "deg2": [0], "deg3": [0], "c1": c1, "c2": c2},
                            lattice_n=n, seed=seed)


def test_twisted_sum_rule():
    st = twisted_state()
    diag = constraint_diagnostics(st)
    assert diag["sum_rule_slack"] == pytest.approx(0.0, abs=1e-12)
    assert diag["integrated_trace"] == pytest.approx(0.0, abs=1e-12)


def test_twisted_trace_identity_random(rng):
    for _ in range(6):
        c1, c2 = rng.uniform(-2, 2, size=2)
        st = assemble_example("twisted_triple",
                              {"deg1": [1], "deg2": [0], "deg3": [0],
                               "c1": float(c1), "c2": float(c2)},
                              lattice_n=8, seed=int(rng.integers(1e6)))
        diag = constraint_diagnostics(st)
        expect = TWO_PI * 1 - c1 - c2
        assert diag["integrated_trace"] == pytest.approx(expect, abs=1e-12)


def test_twisted_flow_converges():
    rep = heat_flow(twisted_state(), FlowOpts(max_iter=30000, tol=1e-8))
    assert rep.converged


def test_rank2_flow_matches_rational_verdict():
    """Non-abelian metric flow agrees with the exact summand-lattice verdict
    on decomposable rank-2 pairs, both directions."""
    from gpwb.fixtures import CurveFixture, verdict

    for c_norm, expect in ((1.5, True), (0.8, False)):
        fx = CurveFixture("pair_tensor", ((1, 0), (0,)), ((0, 0), (1, 0)), (c_norm, 0))
        assert verdict(fx).stable == expect
        st = assemble_example("pair_tensor",
                              {"deg1": [1, 0], "deg2": [0], "c": c_norm * TWO_PI},
                              lattice_n=8, seed=3)
        rep = heat_flow(st, FlowOpts(max_iter=40000, tol=1e-7, metric_cutoff=25.0))
        assert rep.converged == expect


def test_flow_unique_solution_from_different_starts(rng):
    st = vortex_state(2.0, n=N)
    r1 = heat_flow(st, FlowOpts(max_iter=30000, tol=1e-11))
    st2 = st.copy()
    st2.u[0][:, :, 0, 0] = 0.3 * np.kron(rng.standard_normal((4, 4)), np.ones((4, 4)))
    r2 = heat_flow(st2, FlowOpts(max_iter=30000, tol=1e-11))
    assert r1.converged and r2.converged
    du = r1.state.u[0][:, :, 0, 0].real - r2.state.u[0][:, :, 0, 0].real
    assert np.max(np.abs(du)) < 1e-8


def test_correspondence_sweep_rank1_pairs():
    """Certified-stable fixtures converge, certified-unstable diverge, over
    a small sweep of degrees and levels (marginal cases excluded)."""
    from gpwb.fixtures import CurveFixture, verdict

    for d in (0, 1, 2):
        for c_norm in (d - 0.5, d + 0.4, d + 1.5):
            fx = CurveFixture("pair_tensor", ((d,), (0,)),
                              ((0, 0),),
                              (round(c_norm, 3), 0))
            v = verdict(fx)
            if v.marginal:
                continue
            st = assemble_example("pair_tensor",
                                  {"deg1": [d], "deg2": [0], "c": c_norm * TWO_PI},
                                  lattice_n=8, seed=1)
            rep = heat_flow(st, FlowOpts(max_iter=20000, tol=1e-7, metric_cutoff=25.0))
            assert rep.converged == v.stable, (d, c_norm, v.slack)


def test_constraint_violating_coherent_run_floors():
    # the violating configuration is a fixture: residual floors at the slack
    st = assemble_example("coherent_system",
                          {"deg": [1], "k": 1, "c1": 2 * TWO_PI, "c2": TWO_PI - 2 * TWO_PI + 0.5},
                          lattice_n=8, seed=0)
    rep = heat_flow(st, FlowOpts(max_iter=3000, tol=1e-8))
    assert not rep.converged
    assert rep.final_residual > 0.1


def test_reduces_to_plain_vortex_when_second_factor_trivial():
    """pair_tensor with rank-1 trivial second factor gives the same residual
    field as the bare vortex data."""
    st = vortex_state(2.0, n=8)
    blocks, l2, _ = pointwise_residual(st)
    from gpwb.lattice import curvature_field

    f0 = curvature_field(st.bundles[0].links, 8)[:, :, 0, 0]
    manual = f0.real + np.sum(np.abs(st.section) ** 2, axis=-1) - st.setting.central_scalars[0]
    got = (1j * blocks[0][:, :, 0, 0]).real
    assert np.max(np.abs(got - manual)) < 1e-12
