"""The three benchmark workloads: inputs made from a seed, one round of
operations, and the checks of each operation's outputs.

A round is the same fixed batch of operations every time, so a run repeats
whole rounds and every count per round is exact.  Functions are looked up
on their modules at call time, so a tracer that rebinds them sees the
benchmark's own calls too.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from gpwb import cli, flows, groups, kempf_ness, lattice, reps

import checks

POINT_FIXTURES = 16      # per round; signs and n2 alternate so the batch is balanced
POINT_PANELS = 512

VORTEX_N = 32
VORTEX_D = 1
VORTEX_FLOW = {"max_iter": 20000, "tol": 1e-8, "metric_cutoff": 30.0}

# Rank-2 fixtures whose outcome is derived by hand in README.md: slope
# inequalities over the coordinate summands and over the saturation of the
# section.  (mode, lattice_n, fixture, flow expected to converge)
NONABELIAN_FLOW = {"tol": 1e-7, "metric_cutoff": 25.0}
NONABELIAN_FIXTURES = (
    ("pair", 8, {"kind": "pair_tensor", "degrees": [[2, 1], [0]],
                 "support": [[0, 0], [1, 0]], "c": ["5/2", "0"]}, True),
    ("pair", 8, {"kind": "pair_tensor", "degrees": [[2, 1], [0]],
                 "support": [[0, 0], [1, 0]], "c": ["3/2", "0"]}, False),
    ("pair", 8, {"kind": "pair_tensor", "degrees": [[1, 0], [0]],
                 "support": [[0, 0], [1, 0]], "c": ["4/5", "0"]}, False),
    ("triple", 8, {"kind": "triple_fixed_E2", "degrees": [[2, 1], [0]],
                   "support": [[0, 0], [1, 0]], "c": ["5/2", "0"]}, True),
    ("coherent_system", 8, {"kind": "coherent_system", "degrees": [[2, 1], [0]],
                            "support": [[0, 0], [1, 0]], "c": ["5/2", "-2"]}, True),
    ("higgs", 16, {"kind": "higgs", "degrees": [[1, -1], [0]],
                   "support": [], "c": ["0", "0"]}, False),
    ("twisted_triple", 16, {"kind": "twisted_triple", "degrees": [[1], [0], [0]],
                            "support": [[0, 0, 0]], "c": ["3/2", "-1/2", "0"]}, True),
)
# The section combination is part of each fixture: with a fixed section the
# flow does the same work on every seed.  --seed reaches the program as the
# CLI seed (the generator-cone sampling of ssc_reduction_equiv).
FIXTURE_SECTION_SEED = 1
# Not normal ([theta, theta^dagger] != 0); its eigenlines make the Higgs
# bundle polystable, so the flow converges.  The CLI cannot pass a field,
# so this case goes through assemble_example.
HIGGS_THETA = [[0.0, 2.0], [0.5, 0.0]]
HIGGS_THETA_N = 16


# Interpreter-bound work (many numpy calls on tiny arrays) runs up to about
# 1.7x slower while the machine is contended, and the contended and free
# states alternate over seconds to minutes; dense LAPACK work slows far less.
# Each interpreter-bound operation is therefore bracketed by a fixed probe of
# the same kind of work, which does not touch gpwb, and its time is scaled by
# PROBE_REF_S / (mean probe time).  PROBE_REF_S is the probe's time on the
# reference machine when it is not contended (README.md), so a scaled time is
# the operation's time on that machine at that speed.
PROBE_REF_S = 0.0033
_PROBE_X = np.array([[2.0, 0.5j], [-0.5j, 1.0]])


def probe_s():
    t0 = time.perf_counter()
    x = _PROBE_X
    for _ in range(500):
        x = np.linalg.inv(x + 0.0)
    return time.perf_counter() - t0


@dataclass
class Op:
    name: str
    expect: str | None       # "converge", "diverge" or None
    main: bool               # counts toward op_s
    seconds: float           # measured wall time
    probe: float | None = None  # mean probe time around the operation, if probed
    error: str = ""
    check: object = field(default=None, repr=False)  # () -> list of failures

    @property
    def scaled_s(self):
        """Wall time, scaled to the probe's reference speed when probed."""
        return self.seconds if self.probe is None else self.seconds * PROBE_REF_S / self.probe


def _run_op(ops, name, expect, main, fn, check, probed=False):
    before = probe_s() if probed else None
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as err:  # a failed operation is counted, not fatal
        ops.append(Op(name, expect, main, time.perf_counter() - t0,
                      error=f"{type(err).__name__}: {err}"))
        return
    seconds = time.perf_counter() - t0
    probe = 0.5 * (before + probe_s()) if probed else None
    ops.append(Op(name, expect, main, seconds, probe, check=lambda: check(out)))


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload, seed, out_dir):
    if workload == "point":
        rng = np.random.default_rng(seed)
        cases = []
        for k in range(POINT_FIXTURES):
            n2 = 2 + k % 2
            m = rng.standard_normal((2, n2)) + 1j * rng.standard_normal((2, n2))
            c1 = float(rng.uniform(0.2, 1.5)) * (1.0 if k % 4 < 2 else -1.0)
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            cases.append({"n2": n2, "m": m, "c1": c1, "s1": 0.2 * (a - a.conj().T)})
        return {"cases": cases}
    if workload == "vortex":
        return {"seed": seed, "out": os.path.join(out_dir, "vortex"),
                "config": {"mode": "vortex_threshold", "lattice_n": VORTEX_N,
                           "threshold": {"d": VORTEX_D, "scan": [0.1, 3.0],
                                         "target_width": checks.BRACKET_WIDTH},
                           "flow": dict(VORTEX_FLOW)}}
    if workload == "nonabelian":
        runs = []
        for i, (mode, n, fx, expect) in enumerate(NONABELIAN_FIXTURES):
            cfg = {"mode": mode, "lattice_n": n, "flow": dict(NONABELIAN_FLOW),
                   "fixture": dict(fx, seed=FIXTURE_SECTION_SEED)}
            runs.append((cfg, os.path.join(out_dir, "nonabelian", f"{i}-{mode}"), expect))
        return {"seed": seed, "runs": runs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# rounds


def point_round(inp):
    ops = []
    for case in inp["cases"]:
        n2, m, c1, s1 = case["n2"], case["m"], case["c1"], case["s1"]

        def fixture():
            spec = groups.ProductGroupSpec((2, n2))
            rep = reps.RepSpec(spec, (reps.Slot(2, reps.STANDARD, 0),
                                      reps.Slot(n2, reps.STANDARD, 1)))
            setting = groups.SubgroupSetting(spec, ("full", "frozen"), (c1, 0.0))
            x = m.reshape(-1)
            simple = kempf_ness.is_simple(x, rep, setting)
            verdict = kempf_ness.stability_test(x, rep, spec, setting)
            flow = kempf_ness.gradient_flow(x, rep, spec, setting, max_iter=8000, tol=1e-8)
            s = groups.AlgebraElement((s1, np.zeros((n2, n2), complex)), "compact")
            kn = kempf_ness.kn_functional(x, s, rep, spec, setting, POINT_PANELS)
            return simple, verdict.stable, flow.converged, flow.final_group_element.blocks, kn

        _run_op(ops, "fixture", "converge" if c1 > 0 else "diverge", True, fixture,
                lambda out, m=m, c1=c1, s1=s1: checks.check_point(m, c1, s1, *out), probed=True)
    return ops


def vortex_round(inp):
    ops = []
    seed, d = inp["seed"], VORTEX_D
    unit = lattice.TWO_PI * d

    def bracket():
        out = cli.run(inp["config"], out_dir=inp["out"], seed=seed)
        if "bracket_multiples" not in out:
            raise RuntimeError(out.get("note", "no bracket"))
        return out["bracket_multiples"]

    _run_op(ops, "threshold_bracket", None, True, bracket,
            lambda b: checks.check_bracket(*b))

    def pair_state(mult):
        return flows.assemble_example("pair_tensor", {"deg1": [d], "deg2": [0], "c": mult * unit},
                                      lattice_n=VORTEX_N, seed=seed)

    def solvable():
        st = pair_state(2.0)
        tight = flows.heat_flow(st, flows.FlowOpts(max_iter=60000, tol=1e-10))
        newton = flows.newton_abelian(st, tol=1e-12)
        return (tight.converged, newton.converged,
                tight.state.u[0][:, :, 0, 0].real, newton.state.u[0][:, :, 0, 0].real)

    _run_op(ops, "solvable_oracle", "converge", False, solvable,
            lambda out: checks.check_solvable(*out))

    def unsolvable():
        st = pair_state(0.5)
        flow = flows.heat_flow(st, flows.FlowOpts(**VORTEX_FLOW))
        newton = flows.newton_abelian(st)
        return flow.converged, newton.converged, newton.obstruction

    _run_op(ops, "unsolvable_oracle", "diverge", False, unsolvable,
            lambda out: checks.check_unsolvable(*out, 0.5 * unit, d))

    rep = reps.RepSpec(groups.ProductGroupSpec((1,)), (reps.Slot(1, reps.STANDARD, 0),))
    for dd in (1, 2, 3):
        def sections(dd=dd):
            lat = lattice.build_torus(VORTEX_N)
            bundle = lattice.make_constant_curvature_line_bundle(lat, dd)
            vlinks = lattice.section_transport(rep, [bundle.links])
            secs, _, gap = lattice.holomorphic_sections(lat, vlinks, dd)
            return secs, gap

        _run_op(ops, f"sections_d{dd}", None, False, sections,
                lambda out, dd=dd: checks.check_sections(out[0], dd, out[1]))
    return ops


def nonabelian_round(inp):
    ops = []
    seed = inp["seed"]
    for cfg, out_dir, expect in inp["runs"]:
        def example(cfg=cfg, out_dir=out_dir):
            return cli.run(cfg, out_dir=out_dir, seed=seed)

        def check(p, expect=expect):
            if "flow" not in p:
                return [f"no flow: {p.get('assembly_error')}"]
            fails = checks.check_lattice_flow(expect, p["flow"]["converged"], p["verdict"]["stable"],
                                              p["flow"]["degrees_before"], p["flow"]["degrees_after"])
            if not p["ssc_reduction_ok"]:
                fails.append("ssc_reduction_equiv reports a generator-cone mismatch")
            return fails

        _run_op(ops, f"{cfg['mode']}:{cfg['fixture']['c'][0]}",
                "converge" if expect else "diverge", True, example, check, probed=True)

    def higgs_theta():
        st = flows.assemble_example("higgs", {"deg": [0, 0], "cm": 0.0, "theta": HIGGS_THETA},
                                    lattice_n=HIGGS_THETA_N, seed=seed)
        return flows.heat_flow(st, flows.FlowOpts(**NONABELIAN_FLOW))

    _run_op(ops, "higgs_theta", "converge", False, higgs_theta,
            lambda r: checks.check_lattice_flow(True, r.converged, None,
                                                r.degrees_before, r.degrees_after), probed=True)
    return ops


ROUNDS = {"point": point_round, "vortex": vortex_round, "nonabelian": nonabelian_round}
