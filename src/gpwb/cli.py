"""Batch experiment driver.

Subcommands mirror the run modes; every run writes a deterministic
report file (plus trajectory CSVs) under --out.  Solver divergence is a
reported outcome with exit code 0; only configuration and IO problems
exit nonzero.  Wall-clock goes to stdout, never into the report, so the
report bytes depend only on the config and seed.

A run reads one resolved config: ``DEFAULTS``, the config over them and
the flags over both, checked by ``resolve`` alike for a config file and a
dict passed to ``run``.  The ``flow`` block holds the options of every
flow a mode runs, the kempf_ness point flows too; --tol is ``flow.tol``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import suite
from .fixtures import (KINDS, CurveFixture, fixture_from_dict, fixture_to_dict, load_fixture,
                       ssc_reduction_equiv)
from .flows import FlowOpts, assemble_example, heat_flow, newton_abelian
from .groups import CONSTANT, ProductGroupSpec, SubgroupSetting
from .io import emit_csv, write_report
from .kempf_ness import gradient_flow, is_simple, stability_test
from .lattice import TWO_PI
from .reps import STANDARD, RepSpec, Slot

_KIND_OF_MODE = {entry.cli_mode: kind for kind, entry in KINDS.items()}

MODES = ("kempf_ness", "vortex_threshold", *_KIND_OF_MODE, "invariant_suite")


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "mode": str, "seed": int, "out": str, "workers": int, "lattice_n": int,
    "flow": {"max_iter": int, "tol": float, "metric_cutoff": float},
    "kempf_ness": {"count": int, "n2": int, "c_lo": float, "c_hi": float},
    "threshold": {"d": int, "scan": list, "target_width": float},
    "fixture": {"path": str, "kind": str, "degrees": list, "support": list,
                "c": list, "seed": int},
}


# The mode-specific keys and the modes that read each; any other mode refuses them
_READ_BY = {"kempf_ness": ("kempf_ness",), "threshold": ("vortex_threshold",),
            "fixture": tuple(_KIND_OF_MODE), "lattice_n": ("vortex_threshold", *_KIND_OF_MODE),
            "flow": ("kempf_ness", "vortex_threshold", *_KIND_OF_MODE)}


# Every run default but lattice_n (32 for vortex_threshold, else 16), the
# flow options (FlowOpts') and fixture.seed (the run seed)
DEFAULTS = {
    "seed": 0, "workers": 1, "out": None,
    "kempf_ness": {"count": 20, "n2": 2, "c_lo": 0.2, "c_hi": 1.5},
    "threshold": {"d": 1, "scan": (0.1, 3.0), "target_width": 0.05},
    "fixture": {},
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
    return cfg


def resolve(config, out_dir=None, workers=None, seed=None, tol=None) -> dict:
    """The checked run config: ``DEFAULTS``, then ``config`` over them, then
    every flag that is not None over both; the tol flag sets ``flow.tol``.
    A key of ``_READ_BY`` is refused in a mode that does not read it, and
    ``flow`` becomes one FlowOpts."""
    flags = {"out": out_dir, "workers": workers, "seed": seed}
    config = {**config, **{k: v for k, v in flags.items() if v is not None}}
    _check_keys(config, _SCHEMA)
    mode = config.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode {mode!r} (choose from {MODES})")
    if tol is not None:
        config["flow"] = {**config.get("flow", {}), "tol": tol}
    for key, modes in _READ_BY.items():
        if key in config and mode not in modes:
            raise ConfigError(f"{key}: the {mode} mode does not read it")
    cfg = {**DEFAULTS, "lattice_n": 32 if mode == "vortex_threshold" else 16, **config}
    for block in ("kempf_ness", "threshold", "fixture"):
        cfg[block] = {**DEFAULTS[block], **config.get(block, {})}
    cfg["fixture"].setdefault("seed", cfg["seed"])
    cfg["flow"] = FlowOpts(**config.get("flow", {}))
    _check_values(cfg)
    return cfg


def _check_values(cfg):
    """Value ranges the key and type schema cannot express, of a resolved
    run config."""
    for key, v in ((f"flow.{k}", getattr(cfg["flow"], k)) for k in _SCHEMA["flow"]):
        if not 0 < v < np.inf:
            raise ConfigError(f"{key}: must be finite and positive, got {v!r}")
    for key, v in (("seed", cfg["seed"]), ("fixture.seed", cfg["fixture"]["seed"])):
        if v < 0:
            raise ConfigError(f"{key}: must be non-negative, got {v!r}")
    for key, v in ((f"kempf_ness.{k}", cfg["kempf_ness"][k]) for k in ("c_lo", "c_hi")):
        if not np.isfinite(v):
            raise ConfigError(f"{key}: must be finite, got {v!r}")
    counts = [(f"kempf_ness.{k}", cfg["kempf_ness"][k]) for k in ("count", "n2")]
    for key, v in counts + [("workers", cfg["workers"])]:
        if v < 1:
            raise ConfigError(f"{key}: must be at least 1, got {v!r}")
    if cfg["lattice_n"] < 4:
        raise ConfigError(f"lattice_n: needs at least 4 sites per side, got {cfg['lattice_n']!r}")
    th = cfg["threshold"]
    if th["d"] < 1:
        raise ConfigError(f"threshold.d: must be a positive Chern number, got {th['d']!r}")
    scan = th["scan"]
    if (len(scan) != 2 or any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in scan)
            or not scan[0] < scan[1]):
        raise ConfigError(f"threshold.scan: expected two numbers lo < hi, got {scan!r}")
    # at two float spacings or less, a bisection midpoint can round onto an end of the bracket
    floor = 2 * np.spacing(max(abs(scan[0]), abs(scan[1])))
    if not th["target_width"] > floor:
        raise ConfigError(f"threshold.target_width: must exceed {floor:.3g}, twice the float "
                          f"spacing at the scan ends, got {th['target_width']!r}")


# ---------------------------------------------------------------------------
# finite-dimensional correspondence mode


def _kn_single(args):
    seed, p, flow = args
    rng = np.random.default_rng(seed)
    spec = ProductGroupSpec((2, p["n2"]))
    rep = RepSpec(spec, (Slot(2, STANDARD, 0), Slot(p["n2"], STANDARD, 1)))
    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    c1 = float(rng.uniform(p["c_lo"], p["c_hi"])) * float(rng.choice([-1.0, 1.0]))
    setting = SubgroupSetting(spec, ("full", "frozen"), (c1, 0.0))
    simple = is_simple(x, rep, setting)
    v = stability_test(x, rep, spec, setting)
    res = gradient_flow(x, rep, spec, setting, **vars(flow))
    return {
        "c": c1, "simple": simple, "stable": v.stable,
        "slack": float(v.slack) if np.isfinite(v.slack) else None,
        "marginal": v.marginal, "converged": res.converged,
        "reason": res.reason, "residual": res.final_residual,
        "agrees": (not simple) or v.marginal or (res.converged == v.stable),
    }


def run_kempf_ness(cfg):
    p = cfg["kempf_ness"]
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg["seed"]).spawn(p["count"])]
    rows = _map(_kn_single, [(s, p, cfg["flow"]) for s in seeds], cfg["workers"])
    return {"mode": "kempf_ness", "cases": rows, "all_agree": all(r["agrees"] for r in rows),
            "n_simple": sum(1 for r in rows if r["simple"])}


# ---------------------------------------------------------------------------
# threshold bisection


def run_threshold(cfg):
    d, scan, width = (cfg["threshold"][k] for k in ("d", "scan", "target_width"))
    n = cfg["lattice_n"]
    unit = TWO_PI * d

    def converges(mult):
        try:
            st = assemble_example("pair_tensor",
                                  {"deg1": [d], "deg2": [0], "c": mult * unit},
                                  lattice_n=n, seed=cfg["seed"])
        except ValueError as err:  # a degree the lattice cannot hold
            raise ConfigError(f"threshold: {err}") from err
        return heat_flow(st, cfg["flow"])

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
        lo, hi = (lo, mid) if converges(mid).converged else (mid, hi)
    out["bracket"] = [lo * unit, hi * unit]
    out["bracket_multiples"] = [lo, hi]
    out["bracket_width_fraction"] = hi - lo
    out["marginal_band"] = [lo * unit, hi * unit]
    return out


# ---------------------------------------------------------------------------
# lattice example modes


def _fixture_from_cfg(fx, kind):
    """The fixture of a ``fixture`` block: the file at ``path``, else the
    inline fields, else (with only ``seed``) the kind's default."""
    data = {k: v for k, v in fx.items() if k != "seed"}
    if not data:
        return CurveFixture(kind, *KINDS[kind].default_fixture)
    if "path" in data and len(data) > 1:
        raise ConfigError(f"fixture: a path excludes the inline fields {sorted(data.keys() - {'path'})}")
    try:
        fixture = load_fixture(data["path"], kind) if "path" in data else fixture_from_dict(data, kind)
    except KeyError as err:
        raise ConfigError(f"fixture: missing field {err}") from err
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"fixture: {err}") from err
    if fixture.kind != kind:
        raise ConfigError(f"fixture.kind: {fixture.kind!r} is not the {kind!r} kind of the mode")
    return fixture


def _assembly_params(fixture: CurveFixture):
    entry = KINDS[fixture.kind]
    params = {"support": [list(s) for s in fixture.support]}
    for f, (dname, cname) in enumerate(zip(entry.degree_params, entry.scalar_params)):
        row = list(fixture.degrees[f])
        if dname:
            params[dname] = len(row) if entry.factor_modes[f] == CONSTANT else row
        if cname:
            params[cname] = float(TWO_PI * fixture.c[f])
    return params


def run_example_mode(cfg):
    mode = cfg["mode"]
    kind = _KIND_OF_MODE[mode]
    fx = cfg["fixture"]
    fixture = _fixture_from_cfg(fx, kind)
    ok, v = ssc_reduction_equiv(fixture, trials=200, rng=np.random.default_rng(cfg["seed"]))
    payload = {
        "mode": mode,
        "fixture": fixture_to_dict(fixture),
        "verdict": {"stable": v.stable, "slack": str(v.slack),
                    "marginal": v.marginal, "unsolvable": v.unsolvable,
                    "note": v.note},
        "ssc_reduction_ok": ok,
    }
    try:
        st = assemble_example(kind, _assembly_params(fixture), lattice_n=cfg["lattice_n"],
                              seed=fx["seed"])
    except ValueError as err:
        payload["assembly_error"] = str(err)
        return payload
    rep = heat_flow(st, cfg["flow"])
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
    if cfg["out"]:
        emit_csv(rep.trajectory, os.path.join(cfg["out"], f"{mode}_trajectory.csv"))
    if KINDS[kind].newton_oracle and len(fixture.degrees[0]) == 1:
        nt = newton_abelian(st)
        payload["newton"] = {"converged": nt.converged,
                            "final_residual": nt.final_residual,
                            "obstruction": nt.obstruction, "reason": nt.reason}
        if nt.converged and rep.converged:
            du = rep.state.u[0][:, :, 0, 0].real - nt.state.u[0][:, :, 0, 0].real
            payload["newton"]["metric_sup_difference"] = float(np.max(np.abs(du)))
    return payload


# ---------------------------------------------------------------------------
# invariant suite


def _suite_single(args):
    name, seed = args
    fn = dict(suite.CHECKS)[name]
    try:
        ok, detail = fn(np.random.default_rng(seed))
    except Exception as err:  # a crash is a failed invariant, not a crash of the driver
        return {"check": name, "passed": False, "detail": f"exception: {err}"}
    return {"check": name, "passed": bool(ok), "detail": detail}


def run_invariant_suite(cfg):
    names = [n for n, _ in suite.CHECKS]
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg["seed"]).spawn(len(names))]
    rows = _map(_suite_single, list(zip(names, seeds)), cfg["workers"])
    return {"mode": "invariant_suite", "checks": rows,
            "all_pass": all(r["passed"] for r in rows)}


# ---------------------------------------------------------------------------
# driver


def _map(fn, tasks, workers):
    workers = min(workers, len(tasks))  # a pool forks all its workers on its first task
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


def run(config: dict, out_dir=None, workers=None, seed=None, tol=None) -> dict:
    cfg = resolve(config, out_dir, workers, seed, tol)
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
    runners = {"kempf_ness": run_kempf_ness, "vortex_threshold": run_threshold,
               "invariant_suite": run_invariant_suite}
    payload = runners.get(cfg["mode"], run_example_mode)(cfg)
    payload["seed"] = cfg["seed"]
    payload["config_echo"] = json.dumps(config, sort_keys=True)
    if cfg["out"]:
        write_report(os.path.join(cfg["out"], "report.txt"), payload)
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
    summary = {k: payload[k] for k in ("mode", "seed", "all_agree", "all_pass", "bracket", "note")
               if k in payload}
    if "flow" in payload:
        summary["converged"] = payload["flow"]["converged"]
    print(json.dumps(summary, default=str))
    print(f"wall-clock: {time.time() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
