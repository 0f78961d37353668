"""Benchmark of the gpwb workbench: one workload per run, every metric by name.

    python3 benchmark/run.py --workload {point,vortex,nonabelian} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are its per-layer metrics, from one
traced round after untraced rounds that give the tracing overhead.
Details of every round go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

from tracing import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("point", "vortex", "nonabelian"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and make the inputs, then exit (used to time set-up)")
    return p.parse_args(argv)


def _import_program():
    """Import gpwb from this checkout's src, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gpwb

    if not os.path.abspath(gpwb.__file__).startswith(src + os.sep):
        raise ImportError(f"gpwb imported from {gpwb.__file__}, not from {src}")


def _time_setup(args):
    """Median wall time of fresh processes that import and make the inputs.

    The child is reaped with a blocking wait (``Popen.wait`` with a timeout
    polls, which would round the time up to its polling interval); a timer
    kills a child that hangs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
    return statistics.median(times), times


def _run_rounds(round_fn, inputs, budget, rounds):
    """Repeat whole rounds while the next one, taken to last as long as the
    median round so far, is expected to end within the budget; at least one.
    The checks run outside the timed interval."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = round_fn(inputs)
        wall = time.perf_counter() - t0
        rounds.append({"wall_s": wall, "ops": ops,
                       "failures": [f"{op.name}: {msg}" for op in ops if not op.error
                                    for msg in op.check()]})
        typical = statistics.median(r["wall_s"] for r in rounds)
        if time.perf_counter() - start + typical > budget:
            return


def _end_to_end(rounds, setup_s):
    """Every round is the same batch, so each position in it is one operation
    measured once per round; it is reported at its median over the rounds.
    The medians of the positions add up to ``wall_s``."""
    per_op = list(zip(*(r["ops"] for r in rounds)))  # one tuple per position in the round
    typical = [statistics.median(op.scaled_s for op in ops) for ops in per_op]
    first = rounds[0]["ops"]
    wall = sum(typical)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops_per_s": len(first) / wall,
        "op_s": statistics.mean(t for t, op in zip(typical, first) if op.main),
        "converge_s": sum(t for t, op in zip(typical, first) if op.expect == "converge"),
        "diverge_s": sum(t for t, op in zip(typical, first) if op.expect == "diverge"),
    }


def _flow_hook(prefix):
    """Iterations, and accepted steps: the trajectory gains one entry per
    accepted step after its initial one."""
    def hook(tr, args, kwargs, res):
        tr.counters[prefix + ".iterations"] += res.iterations
        tr.counters[prefix + ".accepted"] += len(res.trajectory) - 1
    return hook


def _sections_hook(tr, args, kwargs, res):
    lat, vlinks = args[0], args[1]
    nbytes = (lat.n * lat.n * vlinks.shape[-1]) ** 2 * 16  # dense complex operator
    tr.counters["lattice.dense_operator_bytes"] = max(tr.counters["lattice.dense_operator_bytes"],
                                                      nbytes)


def _bracket_hook(tr, args, kwargs, out):
    """Heat-flow solves implied by the program's own output: the two scan
    endpoints plus one per bisection step."""
    if "bracket_multiples" in out:
        lo, hi = out["bracket_multiples"]
        scan = out["scan"]
        tr.counters["cli.bracket_solves"] += 2 + round(math.log2((scan[1] - scan[0]) / (hi - lo)))


TRACE_HOOKS = {
    "kempf_ness.gradient_flow": _flow_hook("kempf_ness.gradient_flow"),
    "flows.heat_flow": _flow_hook("flows.heat_flow"),
    "flows.newton_abelian": _flow_hook("flows.newton_abelian"),
    "lattice.holomorphic_sections": _sections_hook,
    "cli.run_threshold": _bracket_hook,
    "io.write_report": lambda tr, a, k, r: tr.counters.update(
        {"io.report_bytes": os.path.getsize(a[0])}),
    "io.emit_csv": lambda tr, a, k, r: tr.counters.update({"io.csv_rows": len(a[0])}),
}


def _per_layer(tr, traced_wall, untraced_wall):
    calls, total, own = tr.summary()
    k = tr.counters

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": sum(v for name, v in own.items() if name.startswith(layer + "."))
         for layer in LAYERS}
    m.update({
        "groups.inner_product.calls": calls["groups.inner_product"],
        "groups.elements_built": (calls["groups.AlgebraElement.__init__"]
                                  + calls["groups.GroupElement.__init__"]),
        "reps.act.calls": calls["reps.act"],
        "reps.mu_full.calls": calls["reps.mu_full"],
        "kempf_ness.kn_functional.calls": calls["kempf_ness.kn_functional"],
        "kempf_ness.kn_functional_s": total["kempf_ness.kn_functional"],
        "kempf_ness.stability_test_s": total["kempf_ness.stability_test"],
        "kempf_ness.gradient_flow_s": total["kempf_ness.gradient_flow"],
        "kempf_ness.gradient_flow.iterations": k["kempf_ness.gradient_flow.iterations"],
        "kempf_ness.gradient_flow.accept_ratio": ratio(k["kempf_ness.gradient_flow.accepted"],
                                                       k["kempf_ness.gradient_flow.iterations"]),
        "lattice.holomorphic_sections.calls": calls["lattice.holomorphic_sections"],
        "lattice.holomorphic_sections_s": total["lattice.holomorphic_sections"],
        "lattice.dbar_matrix_s": total["lattice.dbar_matrix"],
        "lattice.dense_operator_mb": k["lattice.dense_operator_bytes"] / 1e6,
        "lattice.pointwise_residual.calls": calls["lattice.pointwise_residual"],
        "lattice.pointwise_residual_s": total["lattice.pointwise_residual"],
        "lattice.corrected_links_s": total["lattice.corrected_links"],
        "flows.heat_flow.iterations": k["flows.heat_flow.iterations"],
        "flows.heat_flow.accept_ratio": ratio(k["flows.heat_flow.accepted"],
                                              k["flows.heat_flow.iterations"]),
        "flows.heat_flow.iter_ms": 1e3 * ratio(total["flows.heat_flow"],
                                               k["flows.heat_flow.iterations"]),
        "flows.assemble_example_s": total["flows.assemble_example"],
        "flows.newton_abelian_s": total["flows.newton_abelian"],
        "flows.newton_abelian.iterations": k["flows.newton_abelian.iterations"],
        "fixtures.verdict_s": total["fixtures.verdict"],
        "fixtures.ssc_reduction_equiv_s": total["fixtures.ssc_reduction_equiv"],
        "io.report_bytes": k["io.report_bytes"],
        "io.csv_rows": k["io.csv_rows"],
        "cli.bracket_solves": k["cli.bracket_solves"],
        "lattice.holomorphic_sections.bracket_calls": tr.calls_under(
            "lattice.holomorphic_sections", "cli.run_threshold"),
        "trace.spans": len(tr.spans),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return m


def main(argv=None):
    args = _parse(argv)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:  # before numpy is imported; an explicit setting wins
        os.environ.setdefault(var, nproc)
    _import_program()
    import workloads

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed, OUT)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    setup_s, setup_times = (None, []) if args.trace else _time_setup(args)
    inputs = workloads.make_inputs(args.workload, args.seed, OUT)
    round_fn = workloads.ROUNDS[args.workload]
    rounds = []
    if args.trace:
        _run_rounds(round_fn, inputs, args.seconds / 2, rounds)
        untraced_wall = statistics.median(r["wall_s"] for r in rounds)
        tracer = Tracer(TRACE_HOOKS)
        traced = []
        with tracer:
            _run_rounds(round_fn, inputs, 0.0, traced)  # exactly one round
        rounds += traced
        metrics = _per_layer(tracer, traced[0]["wall_s"], untraced_wall)
        if metrics["cli.bracket_solves"] != metrics["lattice.holomorphic_sections.bracket_calls"]:
            traced[0]["failures"].append("traced section extractions per bracket "
                                         "differ from the program's bisection count")
        tracer.write_spans(os.path.join(OUT, run_name + ".spans.csv.gz"))
        wanted = spec["per_layer"]
    else:
        _run_rounds(round_fn, inputs, args.seconds, rounds)
        metrics = _end_to_end(rounds, setup_s)
        wanted = spec["end_to_end"]

    ops = [op for r in rounds for op in r["ops"]]
    failures = [msg for r in rounds for msg in r["failures"]]
    errors = [f"{op.name}: {op.error}" for op in ops if op.error]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    with open(os.path.join(OUT, run_name + ".json"), "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
                   "setup_times_s": setup_times,
                   "rounds": [{"wall_s": r["wall_s"], "failures": r["failures"],
                               "ops": [[op.name, op.expect, op.seconds, op.probe, op.error]
                                       for op in r["ops"]]} for r in rounds],
                   "metrics": metrics}, f, indent=1)
    for msg in failures + errors:
        print("FAIL", msg)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
