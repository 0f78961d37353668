"""Batch experiment driver.

Subcommands mirror the run modes; every run writes a deterministic
report file (plus trajectory CSVs) under --out.  Solver divergence is a
reported outcome with exit code 0; only configuration and IO problems
exit nonzero.  Wall-clock goes to stdout, never into the report, so the
report bytes depend only on the config and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from .fixtures import CurveFixture, load_fixture, ssc_reduction_equiv, verdict
from .flows import FlowOpts, assemble_example, heat_flow, newton_abelian
from .groups import ProductGroupSpec, SubgroupSetting
from .io import emit_csv, write_report
from .kempf_ness import gradient_flow, is_simple, stability_test
from .lattice import TWO_PI
from .reps import STANDARD, RepSpec, Slot

MODES = ("kempf_ness", "vortex_threshold", "pair", "triple", "coherent_system",
         "twisted_triple", "higgs", "invariant_suite")

_KIND_OF_MODE = {"pair": "pair_tensor", "triple": "triple_fixed_E2",
                 "coherent_system": "coherent_system",
                 "twisted_triple": "twisted_triple", "higgs": "higgs"}


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "mode": str, "seed": int, "out": str, "workers": int, "tol": float,
    "lattice_n": int,
    "flow": {"max_iter": int, "step": float, "tol": float,
             "step_cap": float, "metric_cutoff": float},
    "kempf_ness": {"count": int, "n2": int, "c_lo": float, "c_hi": float,
                   "max_iter": int},
    "threshold": {"d": int, "scan": list, "target_width": float},
    "fixture": {"path": str, "kind": str, "degrees": list, "support": list,
                "c": list, "seed": int, "scale": float},
}


def _check_keys(obj, schema, path=""):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for k, v in obj.items():
        here = f"{path}.{k}" if path else k
        if k not in schema:
            raise ConfigError(f"unknown config key {here!r}")
        want = schema[k]
        if isinstance(want, dict):
            _check_keys(v, want, here)
        elif want is float:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"{here}: expected a number, got {type(v).__name__}")
        elif want is int:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{here}: expected an integer, got {type(v).__name__}")
        elif not isinstance(v, want):
            raise ConfigError(f"{here}: expected {want.__name__}, got {type(v).__name__}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    _check_keys(cfg, _SCHEMA)
    if "mode" in cfg and cfg["mode"] not in MODES:
        raise ConfigError(f"mode: unknown mode {cfg['mode']!r} (choose from {MODES})")
    return cfg


def _check_values(cfg):
    """Value ranges the key and type schema cannot express."""
    for k, v in cfg.get("flow", {}).items():
        if not v > 0:
            raise ConfigError(f"flow.{k}: must be positive, got {v!r}")
    if cfg.get("kempf_ness", {}).get("max_iter", 1) < 1:
        raise ConfigError("kempf_ness.max_iter: must be at least 1")
    if cfg.get("lattice_n", 4) < 4:
        raise ConfigError(f"lattice_n: needs at least 4 sites per side, got {cfg['lattice_n']!r}")
    th = cfg.get("threshold", {})
    scan = th.get("scan", [0.0, 1.0])
    if (len(scan) != 2 or any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in scan)
            or not scan[0] < scan[1]):
        raise ConfigError(f"threshold.scan: expected two numbers lo < hi, got {scan!r}")
    if not th.get("target_width", 1.0) > 0:
        raise ConfigError(f"threshold.target_width: must be positive, got {th['target_width']!r}")


def flow_opts_from(cfg, tol=None):
    f = dict(cfg.get("flow", {}))
    if tol is not None:
        f.setdefault("tol", tol)
    return FlowOpts(**f)


# ---------------------------------------------------------------------------
# finite-dimensional correspondence mode


def _kn_single(args):
    seed, n2, c_lo, c_hi, max_iter = args
    rng = np.random.default_rng(seed)
    spec = ProductGroupSpec((2, n2))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(n2, STANDARD, 1)))
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    c1 = float(rng.uniform(c_lo, c_hi)) * float(rng.choice([-1.0, 1.0]))
    setting = SubgroupSetting(spec, ("full", "frozen"), (c1, 0.0))
    simple = is_simple(x, rep, setting)
    v = stability_test(x, rep, spec, setting)
    res = gradient_flow(x, rep, spec, setting, max_iter=max_iter, tol=1e-8)
    return {
        "c": c1, "simple": simple, "stable": v.stable,
        "slack": float(v.slack) if np.isfinite(v.slack) else None,
        "marginal": v.marginal, "converged": res.converged,
        "reason": res.diverged_reason, "residual": res.final_residual,
        "agrees": (not simple) or v.marginal or (res.converged == v.stable),
    }


def run_kempf_ness(cfg, rng_seed, workers):
    p = cfg.get("kempf_ness", {})
    count = p.get("count", 20)
    n2 = p.get("n2", 2)
    c_lo, c_hi = p.get("c_lo", 0.2), p.get("c_hi", 1.5)
    max_iter = p.get("max_iter", 6000)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(rng_seed).spawn(count)]
    tasks = [(s, n2, c_lo, c_hi, max_iter) for s in seeds]
    rows = _map(_kn_single, tasks, workers)
    return {
        "mode": "kempf_ness",
        "cases": rows,
        "all_agree": all(r["agrees"] for r in rows),
        "n_simple": sum(1 for r in rows if r["simple"]),
    }


# ---------------------------------------------------------------------------
# threshold bisection


def run_threshold(cfg, rng_seed, workers, tol):
    p = cfg.get("threshold", {})
    d = p.get("d", 1)
    scan = p.get("scan", [0.1, 3.0])
    width = p.get("target_width", 0.05)
    n = cfg.get("lattice_n", 32)
    opts = flow_opts_from(cfg, tol)
    unit = TWO_PI * d

    def converges(mult):
        st = assemble_example("pair_tensor",
                              {"deg1": [d], "deg2": [0], "c": mult * unit},
                              lattice_n=n, seed=rng_seed)
        return heat_flow(st, opts)

    lo, hi = float(scan[0]), float(scan[1])
    rep_lo, rep_hi = converges(lo), converges(hi)
    out = {"mode": "vortex_threshold", "d": d, "lattice_n": n,
           "scan": [lo, hi], "unit": unit,
           "lo_converged": rep_lo.converged, "hi_converged": rep_hi.converged}
    if rep_lo.converged or not rep_hi.converged:
        out["note"] = "scan endpoints do not bracket a threshold"
        return out
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if converges(mid).converged:
            hi = mid
        else:
            lo = mid
    out["bracket"] = [lo * unit, hi * unit]
    out["bracket_multiples"] = [lo, hi]
    out["bracket_width_fraction"] = hi - lo
    out["marginal_band"] = [lo * unit, hi * unit]
    return out


# ---------------------------------------------------------------------------
# lattice example modes


def _fixture_from_cfg(fx, kind):
    try:
        if "path" in fx:
            fixture = load_fixture(fx["path"])
        else:
            fixture = CurveFixture(kind, fx["degrees"], fx.get("support", ()),
                                   tuple(Fraction(str(x)) for x in fx["c"]))
    except KeyError as err:
        raise ConfigError(f"fixture: missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"fixture: {err}") from err
    if fixture.kind != kind:
        raise ConfigError(f"fixture.path: kind {fixture.kind!r} does not match mode")
    return fixture


def _assembly_params(fixture: CurveFixture, fx_cfg):
    c_phys = [float(TWO_PI * c) for c in fixture.c]
    scale = fx_cfg.get("scale", 1.0)
    kind = fixture.kind
    if kind in ("pair_tensor", "triple_fixed_E2"):
        return {"deg1": list(fixture.degrees[0]), "deg2": list(fixture.degrees[1]),
                "c": c_phys[0], "support": [list(s) for s in fixture.support],
                "scale": scale}
    if kind == "coherent_system":
        return {"deg": list(fixture.degrees[0]), "k": len(fixture.degrees[1]),
                "c1": c_phys[0], "c2": c_phys[1],
                "support": [list(s) for s in fixture.support], "scale": scale}
    if kind == "twisted_triple":
        return {"deg1": list(fixture.degrees[0]), "deg2": list(fixture.degrees[1]),
                "deg3": list(fixture.degrees[2]), "c1": c_phys[0], "c2": c_phys[1],
                "support": [list(s) for s in fixture.support], "scale": scale}
    return {"deg": list(fixture.degrees[0]), "cm": c_phys[0],
            "support": [list(s) for s in fixture.support], "scale": scale}


def run_example_mode(mode, cfg, rng_seed, out_dir, tol):
    kind = _KIND_OF_MODE[mode]
    fx_cfg = cfg.get("fixture", {})
    fixture = _fixture_from_cfg(fx_cfg, kind) if fx_cfg else _default_fixture(kind)
    v = verdict(fixture)
    ok, _ = ssc_reduction_equiv(fixture, trials=200,
                                rng=np.random.default_rng(rng_seed))
    payload = {
        "mode": mode,
        "fixture": {"kind": fixture.kind,
                    "degrees": [list(r) for r in fixture.degrees],
                    "support": [list(s) for s in fixture.support],
                    "c": [str(c) for c in fixture.c]},
        "verdict": {"stable": v.stable, "slack": str(v.slack),
                    "marginal": v.marginal, "unsolvable": v.unsolvable,
                    "note": v.note},
        "ssc_reduction_ok": ok,
    }
    n = cfg.get("lattice_n", 16)
    params = _assembly_params(fixture, fx_cfg)
    try:
        st = assemble_example(kind, params, lattice_n=n, seed=fx_cfg.get("seed", rng_seed))
    except ValueError as err:
        payload["assembly_error"] = str(err)
        return payload
    rep = heat_flow(st, flow_opts_from(cfg, tol))
    payload["flow"] = {
        "converged": rep.converged, "iterations": rep.iterations,
        "final_residual": rep.final_residual,
        "final_residual_linf": rep.final_residual_linf,
        "sup_log_metric": rep.sup_log_metric,
        "reason": rep.reason,
        "degrees_before": {str(k): v2 for k, v2 in rep.degrees_before.items()},
        "degrees_after": {str(k): v2 for k, v2 in rep.degrees_after.items()},
        "constraint": rep.constraint,
        "rejection_count": len(rep.rejections),
    }
    if out_dir:
        emit_csv(rep.trajectory, os.path.join(out_dir, f"{mode}_trajectory.csv"))
    if mode == "pair" and len(fixture.degrees[0]) == 1:
        nt = newton_abelian(st)
        payload["newton"] = {"converged": nt.converged,
                            "final_residual": nt.final_residual,
                            "obstruction": nt.obstruction, "reason": nt.reason}
        if nt.converged and rep.converged:
            du = rep.state.u[0][:, :, 0, 0].real - nt.state.u[0][:, :, 0, 0].real
            payload["newton"]["metric_sup_difference"] = float(np.max(np.abs(du)))
    return payload


def _default_fixture(kind):
    if kind == "pair_tensor":
        return CurveFixture(kind, ((1,), (0,)), ((0, 0),), (2, 0))
    if kind == "triple_fixed_E2":
        return CurveFixture(kind, ((1,), (0,)), ((0, 0),), (2, 0))
    if kind == "coherent_system":
        return CurveFixture(kind, ((1,), (0,)), ((0, 0),), (2, -1))
    if kind == "twisted_triple":
        return CurveFixture(kind, ((1,), (0,), (0,)), ((0, 0, 0),), (Fraction(3, 2), Fraction(-1, 2), 0))
    return CurveFixture("higgs", ((0, 0), (0,)), ((0, 1), (1, 0)), (0, 0))


# ---------------------------------------------------------------------------
# invariant suite


def _suite_checks():
    from . import suite

    return suite.CHECKS


def _suite_single(args):
    name, seed = args
    from . import suite

    fn = dict(suite.CHECKS)[name]
    try:
        ok, detail = fn(np.random.default_rng(seed))
    except Exception as err:  # a crash is a failed invariant, not a crash of the driver
        return {"check": name, "passed": False, "detail": f"exception: {err}"}
    return {"check": name, "passed": bool(ok), "detail": detail}


def run_invariant_suite(cfg, rng_seed, workers):
    names = [n for n, _ in _suite_checks()]
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(rng_seed).spawn(len(names))]
    rows = _map(_suite_single, list(zip(names, seeds)), workers)
    return {"mode": "invariant_suite", "checks": rows,
            "all_pass": all(r["passed"] for r in rows)}


# ---------------------------------------------------------------------------
# driver


def _map(fn, tasks, workers):
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


def run(config: dict, out_dir=None, workers=1, seed=None, tol=None) -> dict:
    mode = config.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode {mode!r}")
    _check_values(config)
    rng_seed = int(seed if seed is not None else config.get("seed", 0))
    workers = int(workers or config.get("workers", 1))
    tol = tol if tol is not None else config.get("tol")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if mode == "kempf_ness":
        payload = run_kempf_ness(config, rng_seed, workers)
    elif mode == "vortex_threshold":
        payload = run_threshold(config, rng_seed, workers, tol)
    elif mode == "invariant_suite":
        payload = run_invariant_suite(config, rng_seed, workers)
    else:
        payload = run_example_mode(mode, config, rng_seed, out_dir, tol)
    payload["seed"] = rng_seed
    payload["config_echo"] = json.dumps(config, sort_keys=True)
    if out_dir:
        write_report(os.path.join(out_dir, "report.txt"), payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gpwb", description=__doc__)
    sub = parser.add_subparsers(dest="mode")
    for m in MODES:
        p = sub.add_parser(m)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    if not args.mode:
        parser.print_help()
        return 2
    t0 = time.time()
    try:
        cfg = load_config(args.config) if args.config else {}
        cfg["mode"] = cfg.get("mode", args.mode)
        if cfg["mode"] != args.mode:
            raise ConfigError(
                f"config mode {cfg['mode']!r} conflicts with subcommand {args.mode!r}"
            )
        payload = run(cfg, out_dir=args.out, workers=args.workers,
                      seed=args.seed, tol=args.tol)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    summary = {k: payload[k] for k in ("mode", "seed") if k in payload}
    for key in ("all_agree", "all_pass", "bracket", "note"):
        if key in payload:
            summary[key] = payload[key]
    if "flow" in payload:
        summary["converged"] = payload["flow"]["converged"]
    print(json.dumps(summary, default=str))
    print(f"wall-clock: {time.time() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
