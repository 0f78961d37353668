import json
import math
from pathlib import Path

import numpy as np
import pytest

from gpwb import cli, lattice
from gpwb.cli import ConfigError, load_config, main, run
from gpwb.flows import assemble_example
from gpwb.io import emit_csv, load_state, parse_csv, save_state, write_report
from gpwb.lattice import TWO_PI, pointwise_residual


def test_snapshot_roundtrip(tmp_path):
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                          lattice_n=8, seed=3)
    st.u[0] += 0.1
    path = tmp_path / "state.npz"
    save_state(path, st)
    back = load_state(path)
    assert back.lattice.n == 8
    assert back.kind == "pair_tensor"
    assert np.array_equal(back.section, st.section)
    for b, b0 in zip(back.bundles, st.bundles):
        assert np.array_equal(b.links, b0.links) and b.summand_degrees == b0.summand_degrees
    assert back.setting == st.setting
    assert np.array_equal(back.u[0], st.u[0])
    _, l2a, _ = pointwise_residual(st)
    _, l2b, _ = pointwise_residual(back)
    assert l2a == l2b


def test_snapshot_ignores_the_params_entry_of_an_older_snapshot(tmp_path):
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                          lattice_n=8, seed=3)
    path = tmp_path / "state.npz"
    save_state(path, st)
    with np.load(path) as z:
        payload = {key: z[key] for key in z.files}
    assert "params" not in payload
    payload["params"] = np.array(json.dumps({"deg1": [1], "deg2": [0], "c": 2 * TWO_PI}))
    np.savez(path, **payload)
    back = load_state(path)
    assert back.kind == "pair_tensor" and back.setting == st.setting
    assert np.array_equal(back.section, st.section)


def test_snapshot_ignores_the_construction_residual_entry_of_an_older_snapshot(tmp_path):
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                          lattice_n=8, seed=3)
    path = tmp_path / "state.npz"
    save_state(path, st)
    with np.load(path) as z:
        payload = {key: z[key] for key in z.files}
    assert "construction_residual" not in payload
    payload["construction_residual"] = np.array(0.5)
    np.savez(path, **payload)
    back = load_state(path)
    assert back.kind == "pair_tensor" and back.setting == st.setting
    assert np.array_equal(back.section, st.section)


def test_snapshot_rejects_non_unitary_links(tmp_path):
    # the lattice inverts links by their adjoint, so a snapshot must hold unitaries
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                          lattice_n=8, seed=3)
    st.bundles[0].links = 2 * st.bundles[0].links
    path = tmp_path / "state.npz"
    save_state(path, st)
    with pytest.raises(ValueError, match="not unitary"):
        load_state(path)


@pytest.mark.parametrize("field,value,match", [
    ("section", np.ones((4, 8, 1), complex), "section has shape"),
    ("metric_exp_0", np.zeros((1, 1), complex), "metric exponent of factor 0"),
    ("links_0", np.ones((2, 4, 4, 1, 1), complex), "links of factor 0"),
    ("num_factors", np.array(1), "one mode per factor"),
])
def test_snapshot_refuses_parts_that_disagree(tmp_path, field, value, match):
    # lattice_n 8, slots of size (1, 1), modes (full, frozen)
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                          lattice_n=8, seed=3)
    path = tmp_path / "state.npz"
    save_state(path, st)
    with np.load(path) as z:
        payload = {key: z[key] for key in z.files}
    payload[field] = value
    np.savez(path, **payload)
    with pytest.raises(ValueError, match=match):
        load_state(path)


@pytest.mark.parametrize("degrees", [[5, 1], [3]])
def test_snapshot_refuses_degrees_that_disagree_with_links(tmp_path, degrees):
    # a rank-2 coherent system: the constraint slack is read from the degrees
    # (0 for [2, 1], 3 * 2 pi for [5, 1]), so they must be those of the links
    st = assemble_example("coherent_system", {"deg": [2, 1], "k": 2, "c1": 2.5 * TWO_PI,
                                              "c2": -TWO_PI}, lattice_n=8, seed=1)
    path = tmp_path / "state.npz"
    save_state(path, st)
    assert load_state(path).bundles[0].summand_degrees == (2, 1)
    with np.load(path) as z:
        payload = {key: z[key] for key in z.files}
    payload["degrees_0"] = np.array(degrees)
    np.savez(path, **payload)
    with pytest.raises(ValueError, match="degrees_0 .* do not fit links_0 of rank 2 and degree"):
        load_state(path)


@pytest.mark.parametrize("kind,params", [
    ("higgs", {"deg": [0, 0], "theta": [[0, 2.0], [0.5, 0]]}),
    ("twisted_triple", {"deg1": [1], "deg2": [0], "deg3": [0],
                        "c1": 1.5 * TWO_PI, "c2": -0.5 * TWO_PI}),
    ("coherent_system", {"deg": [1], "k": 1, "c1": 2 * TWO_PI, "c2": -TWO_PI}),
])
def test_snapshot_roundtrip_without_pickle(tmp_path, kind, params):
    st = assemble_example(kind, params, lattice_n=4, seed=2)
    path = tmp_path / "state.npz"
    save_state(path, st)
    with np.load(path, allow_pickle=False) as z:
        assert all(z[key].dtype != object for key in z.files)
    back = load_state(path)
    assert back.rep == st.rep and back.setting == st.setting
    assert back.kind == st.kind
    for i in st.u:
        assert np.array_equal(back.u[i], st.u[i])


UNPICKLED = []


class _Payload:
    def __reduce__(self):
        return UNPICKLED.append, ("ran",)


def test_snapshot_refuses_pickled_arrays(tmp_path):
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                          lattice_n=8, seed=3)
    path = tmp_path / "state.npz"
    save_state(path, st)
    with np.load(path) as z:
        arrays = {key: z[key] for key in z.files}
    arrays["slots"] = np.array([_Payload()], dtype=object)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="allow_pickle"):
        load_state(path)
    assert UNPICKLED == []


@pytest.mark.parametrize("factor", [-1, 5])
def test_snapshot_rejects_a_slot_that_points_at_no_factor(tmp_path, factor):
    # -1 once indexed the last factor in the slot check, 5 raised a bare IndexError
    st = assemble_example("pair_tensor", {"deg1": [1], "deg2": [0], "c": 2 * TWO_PI},
                          lattice_n=4, seed=3)
    path = tmp_path / "state.npz"
    save_state(path, st)
    with np.load(path) as z:
        arrays = {key: z[key] for key in z.files}
    arrays["slot_factors"] = np.array([factor] + list(arrays["slot_factors"][1:]))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="points at no factor"):
        load_state(path)


def test_snapshot_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, header=np.array("NOPE"))
    with pytest.raises(ValueError):
        load_state(path)


def test_csv_empty_and_rows(tmp_path):
    p = tmp_path / "a.csv"
    emit_csv([], p)
    text = p.read_text()
    assert text == "iteration,l2_residual,linf_residual,sup_log_metric\n"
    rows = [(0, 1.0, 2.0, 0.0), (1, 0.5, 1.0, 0.1), (2, 0.25, 0.5, 0.2)]
    emit_csv(rows, p)
    assert len(p.read_text().splitlines()) == 4
    assert parse_csv(p) == rows


def test_csv_roundtrip_full_precision(tmp_path, rng):
    rows = [(i, float(rng.standard_normal()) * 10**-i, float(abs(rng.standard_normal())),
             float(rng.standard_normal())) for i in range(12)]
    p = tmp_path / "b.csv"
    emit_csv(rows, p)
    assert parse_csv(p) == rows


def test_csv_lf_endings(tmp_path):
    p = tmp_path / "c.csv"
    emit_csv([(0, 1.0, 1.0, 0.0)], p)
    raw = p.read_bytes()
    assert b"\r" not in raw


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "pair", "bogus": 1}))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "bogus" in str(err.value)


def test_config_nested_unknown_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "pair", "flow": {"nope": 2}}))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "flow.nope" in str(err.value)


def test_config_syntax_error_has_line(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{\n  'bad'\n}")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert ":2:" in str(err.value)


def test_run_pair_mode_reports(tmp_path):
    cfg = {"mode": "pair", "lattice_n": 8,
           "flow": {"max_iter": 4000, "tol": 1e-7},
           "fixture": {"kind": "pair_tensor", "degrees": [[1], [0]],
                       "support": [[0, 0]], "c": ["2", "0"]}}
    payload = run(cfg, out_dir=str(tmp_path), workers=1, seed=5)
    assert payload["verdict"]["stable"] is True
    assert payload["flow"]["converged"] is True
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "pair_trajectory.csv").exists()


def test_run_invariant_suite_and_determinism(tmp_path):
    cfg = {"mode": "invariant_suite"}
    out1, out2 = tmp_path / "w1", tmp_path / "w8"
    p1 = run(dict(cfg), out_dir=str(out1), workers=1, seed=11)
    p2 = run(dict(cfg), out_dir=str(out2), workers=4, seed=11)
    assert p1["all_pass"], [r for r in p1["checks"] if not r["passed"]]
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_worker_pool_is_no_larger_than_its_tasks(monkeypatch):
    # a process pool forks all its workers at once, so the cap is tested on a serial stand-in
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    payload = run({"mode": "invariant_suite"}, workers=5000, seed=11)
    assert payload["all_pass"] and sizes == [len(payload["checks"])]


def test_trajectory_csv_bytes_deterministic(tmp_path):
    cfg = {"mode": "pair", "lattice_n": 8,
           "flow": {"max_iter": 4000, "tol": 1e-7},
           "fixture": {"kind": "pair_tensor", "degrees": [[1], [0]],
                       "support": [[0, 0]], "c": ["2", "0"]}}
    o1, o2 = tmp_path / "a", tmp_path / "b"
    run(dict(cfg), out_dir=str(o1), workers=1, seed=9)
    run(dict(cfg), out_dir=str(o2), workers=8, seed=9)
    assert (o1 / "pair_trajectory.csv").read_bytes() == (o2 / "pair_trajectory.csv").read_bytes()
    assert (o1 / "report.txt").read_bytes() == (o2 / "report.txt").read_bytes()


def test_run_divergent_flow_is_clean_outcome(tmp_path):
    cfg = {"mode": "pair", "lattice_n": 8,
           "flow": {"max_iter": 3000, "tol": 1e-7, "metric_cutoff": 20.0},
           "fixture": {"kind": "pair_tensor", "degrees": [[1], [0]],
                       "support": [[0, 0]], "c": ["1/2", "0"]}}
    payload = run(cfg, out_dir=str(tmp_path), workers=1, seed=5)
    assert payload["verdict"]["stable"] is False
    assert payload["flow"]["converged"] is False


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "pair", "junk": true}')
    assert main(["pair", "--config", str(bad)]) == 2
    assert main(["vortex_threshold", "--config", str(tmp_path / "missing.json")]) in (2, 3)


@pytest.fixture
def arpack_fails(monkeypatch):
    """ARPACK fails to converge, as it can on a degenerate kernel."""
    def fail(*args, **kwargs):
        raise lattice.spla.ArpackNoConvergence("ARPACK error -1: No convergence", None, None)

    monkeypatch.setattr(lattice.spla, "eigsh", fail)


def test_arpack_non_convergence_is_an_assembly_error(tmp_path, arpack_fails):
    cfg = {"mode": "pair", "lattice_n": 16,
           "fixture": {"kind": "pair_tensor", "degrees": [[9], [0]], "support": [[0, 0]],
                       "c": ["10", "0"]}}
    payload = run(cfg, out_dir=str(tmp_path), seed=5)
    assert "ARPACK did not converge" in payload["assembly_error"]
    assert "flow" not in payload and (tmp_path / "report.txt").exists()


def test_arpack_non_convergence_in_a_bisection_exits_2(tmp_path, arpack_fails):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "vortex_threshold", "lattice_n": 16,
                                "threshold": {"d": 9}}))
    assert main(["vortex_threshold", "--config", str(path)]) == 2


BAD_CONFIGS = [
    {"mode": "pair", "flow": {"step": -1}},
    {"mode": "pair", "lattice_n": 2},
    {"mode": "vortex_threshold", "threshold": {"scan": [0.1]}},
    {"mode": "vortex_threshold", "threshold": {"scan": ["a", 1]}},
    {"mode": "pair", "fixture": {"degrees": [[1]], "support": [[0, 0]], "c": ["2", "0"]}},
    {"mode": "pair", "fixture": {"degrees": [[1], [0]], "support": [[0, 0]], "c": ["x"]}},
    {"mode": "pair", "fixture": {"degrees": [[1], [0]], "support": [[3, 0]], "c": ["2", "0"]}},
    {"mode": "higgs", "fixture": {"degrees": [[0, 0], [1, 2]], "support": [], "c": ["0", "0"]}},
    {"mode": "kempf_ness", "seed": -1},
    {"mode": "invariant_suite", "seed": -1},
    {"mode": "pair", "fixture": {"degrees": [[1], [0]], "support": [[0, 0]], "c": ["2", "0"],
                                 "seed": -1}},
    {"mode": "kempf_ness", "kempf_ness": {"n2": 0}},
    {"mode": "kempf_ness", "kempf_ness": {"count": -1}},
    {"mode": "pair", "fixture": {"degrees": [[1], [0]], "support": [[0, 0]], "c": ["1/0", "0"]}},
    {"mode": "vortex_threshold", "threshold": {"d": 0}},
    {"mode": "vortex_threshold", "lattice_n": 4, "threshold": {"d": 5}},
    {"mode": "vortex_threshold", "lattice_n": 4, "threshold": {"target_width": 1e-300}},
    {"mode": "pair", "flow": {"tol": float("nan")}},
    {"mode": "pair", "flow": {"tol": -1}},
    {"mode": "pair", "flow": {"step": float("inf")}},
    {"mode": "kempf_ness", "kempf_ness": {"c_lo": float("nan"), "c_hi": float("nan")}},
    {"mode": "pair", "fixture": {"degrees": [[1], [0]], "support": [[0, 0]], "c": ["2", "0"],
                                 "scale": float("nan")}},
    {"mode": "invariant_suite", "workers": 0},
    {"mode": "vortex_threshold", "lattice_n": 8,
     "fixture": {"degrees": [[1], [0]], "support": [[0, 0]], "c": ["2", "0"]}},
    {"mode": "pair", "lattice_n": 8, "threshold": {"d": 3}},
    {"mode": "kempf_ness", "lattice_n": 8, "kempf_ness": {"count": 2}},
    {"mode": "pair", "lattice_n": 8, "kempf_ness": {"count": 2}},
    {"mode": "invariant_suite", "fixture": {"seed": 1}},
    {"mode": "pair", "fixture": {"degrees": [[1.5], [0]], "support": [[0, 0]], "c": ["2", "0"]}},
    {"mode": "pair", "fixture": {"degrees": [[1], [0]], "support": [[0.9, 0]], "c": ["2", "0"]}},
    {"mode": "pair", "fixture": {"degrees": [[True], [0]], "support": [[0, 0]], "c": ["2", "0"]}},
    {"mode": "pair", "lattice_n": 8,
     "fixture": {"kind": "higgs", "degrees": [[1], [0]], "support": [[0, 0]], "c": ["2", "0"]}},
    {"mode": "pair", "fixture": {"path": "fx.json", "degrees": [[1], [0]], "c": ["2", "0"]}},
    {"mode": "invariant_suite", "flow": {"max_iter": 10}},
    {"mode": "pair", "flwo": {"max_iter": 10}},
    {"mode": "pair", "flow": {"max_iters": 10}},
    {"mode": "pair", "lattice_n": "8"},
    {"mode": "pair", "tol": 1e-8},
    {"mode": "kempf_ness", "kempf_ness": {"max_iter": 3000}},
    {"mode": "pair", "flow": {"step": 0.1}},
    {"mode": "kempf_ness", "flow": {"step_cap": 1.0}},
    {"mode": "pair", "flow": {"metric_cutoff": float("inf")}},
    {"mode": "pair", "lattice_n": 8, "fixture": {"scale": 1.0}},
]
BAD_IDS = ["negative_step", "small_lattice", "short_scan", "text_scan", "degree_arity",
           "bad_c", "support_index", "higgs_cotangent_row", "kempf_ness_seed", "suite_seed",
           "fixture_seed", "zero_n2", "negative_count", "zero_denominator_c", "zero_degree",
           "degree_above_lattice", "width_below_spacing", "nan_tol", "negative_tol",
           "infinite_step", "nan_c_range", "nan_scale", "zero_workers", "threshold_fixture",
           "pair_threshold", "kempf_ness_lattice_n", "pair_kempf_ness", "suite_fixture",
           "fractional_degree", "fractional_support", "bool_degree", "inline_kind_mismatch",
           "path_and_inline_fields", "suite_flow", "misspelled_block", "misspelled_flow_key",
           "text_lattice_n", "top_level_tol", "kempf_ness_max_iter", "flow_step",
           "flow_step_cap", "infinite_metric_cutoff", "fixture_scale"]


@pytest.mark.parametrize("cfg", BAD_CONFIGS, ids=BAD_IDS)
def test_config_value_errors_exit_2(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([cfg["mode"], "--config", str(path)]) == 2


@pytest.mark.parametrize("cfg", BAD_CONFIGS, ids=BAD_IDS)
def test_run_refuses_what_a_config_file_refuses(cfg):
    # run() is the entry point of scripts and the benchmark: it meets the same checks
    with pytest.raises(ConfigError):
        run(cfg)


@pytest.mark.parametrize("mode", ["kempf_ness", "invariant_suite"])
def test_negative_seed_flag_exits_2(mode):
    assert main([mode, "--seed", "-1"]) == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tol_flag_exits_2(tol):
    assert main(["pair", "--tol", tol]) == 2


def test_tol_flag_overrides_flow_tol(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "pair", "lattice_n": 8, "flow": {"tol": 1e-3}}))
    assert main(["pair", "--config", str(path), "--seed", "5", "--tol", "1e-10",
                 "--out", str(tmp_path / "flag")]) == 0
    flow = run({"mode": "pair", "lattice_n": 8}, seed=5, tol=1e-10)["flow"]
    assert flow["iterations"] == 29 and flow["final_residual"] < 1e-10
    report = (tmp_path / "flag" / "report.txt").read_text()
    assert "flow.iterations = 29\n" in report
    assert f"flow.final_residual = {flow['final_residual']!r}\n" in report


def test_run_checks_its_flag_arguments():
    with pytest.raises(ConfigError, match="workers"):
        run({"mode": "invariant_suite"}, workers="4")


def test_suite_refuses_the_tol_flag():
    # invariant_suite runs no flow, so --tol would be ignored
    assert main(["invariant_suite", "--tol", "1e-6"]) == 2
    with pytest.raises(ConfigError, match="flow"):
        run({"mode": "invariant_suite"}, tol=1e-6)


def test_kempf_ness_reads_the_flow_block():
    cfg = {"mode": "kempf_ness", "kempf_ness": {"count": 3}}
    default = run(dict(cfg), seed=5)["cases"]
    capped = run(dict(cfg, flow={"max_iter": 1}), seed=5)["cases"]
    assert capped != default
    assert all(r["reason"] == "max_iter" for r in capped if r["simple"])


def test_kempf_ness_runs_at_the_run_tolerance():
    cfg = {"mode": "kempf_ness", "kempf_ness": {"count": 3}}
    tight = run(dict(cfg), seed=5)["cases"]
    for loose in (run(dict(cfg), seed=5, tol=0.1)["cases"],
                  run(dict(cfg, flow={"tol": 0.1}), seed=5)["cases"]):
        assert [r["converged"] for r in loose] == [r["converged"] for r in tight]
        for a, b in zip(loose, tight):
            if b["converged"]:
                assert 1e-8 < a["residual"] <= 0.1 and b["residual"] <= 1e-8


def test_config_out_is_the_output_directory(tmp_path):
    path = tmp_path / "cfg.json"
    out = tmp_path / "from_config"
    path.write_text(json.dumps({"mode": "kempf_ness", "out": str(out),
                                "kempf_ness": {"count": 2}}))
    assert main(["kempf_ness", "--config", str(path)]) == 0
    assert (out / "report.txt").exists()


def test_out_flag_overrides_config_out(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "kempf_ness", "out": str(tmp_path / "from_config"),
                                "kempf_ness": {"count": 2}}))
    assert main(["kempf_ness", "--config", str(path), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "report.txt").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "flag"]


def test_fixture_with_only_seed_runs_the_default_fixture():
    default = run({"mode": "pair", "lattice_n": 8}, seed=5)
    same = run({"mode": "pair", "lattice_n": 8, "fixture": {"seed": 5}}, seed=5)
    other = run({"mode": "pair", "lattice_n": 8, "fixture": {"seed": 6}}, seed=5)
    assert same["fixture"] == other["fixture"] == default["fixture"]
    assert same["flow"] == default["flow"] and other["flow"] != default["flow"]


def test_fixture_file_and_inline_fixture_report_alike(tmp_path):
    fixture = {"kind": "pair_tensor", "degrees": [[1], [0]], "support": [[0, 0]],
               "c": [0.3333333333333333, 0]}
    (tmp_path / "fx.json").write_text(json.dumps(fixture))
    base = {"mode": "pair", "lattice_n": 8, "flow": {"max_iter": 50}}
    run(dict(base, fixture={"path": str(tmp_path / "fx.json")}), out_dir=str(tmp_path / "file"),
        seed=5)
    run(dict(base, fixture=fixture), out_dir=str(tmp_path / "inline"), seed=5)
    reports = [(tmp_path / d / "report.txt").read_bytes().split(b"\n", 1) for d in ("file", "inline")]
    # the first line echoes the two configs, which differ
    assert all(r[0].startswith(b"config_echo = ") for r in reports)
    assert reports[0][1] == reports[1][1]
    assert b"fixture.c[0] = 3333333333333333/10000000000000000\n" in reports[0][1]


def test_negative_degree_summand_is_an_outcome(tmp_path):
    cfg = {"mode": "pair", "lattice_n": 8,
           "fixture": {"degrees": [[-1], [0]], "support": [[0, 0]], "c": ["0", "0"]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["pair", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "negative degree" in (tmp_path / "out" / "report.txt").read_text()


def test_unresolved_sections_are_an_assembly_error(tmp_path):
    # 8 sections of L_8 on an 8 x 8 lattice: the 8 least singular vectors of
    # dbar have gap ratio 12.5, so they are not a kernel
    cfg = {"mode": "pair", "lattice_n": 8,
           "fixture": {"degrees": [[8], [0]], "support": [[0, 0]], "c": ["9", "0"]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["pair", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "assembly_error = summand (0, 0): the 8 least singular vectors" in report
    assert "flow." not in report


def test_threshold_with_unresolved_sections_exits_2(tmp_path):
    # d = 6 on an 8 x 8 lattice: gap ratio 28.6, below SECTION_GAP
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "vortex_threshold", "lattice_n": 8,
                                "threshold": {"d": 6}}))
    assert main(["vortex_threshold", "--config", str(path)]) == 2


def test_cli_runs_kempf_ness_quick(tmp_path, capsys):
    cfg = tmp_path / "kn.json"
    cfg.write_text(json.dumps({"mode": "kempf_ness",
                               "kempf_ness": {"count": 4, "n2": 2},
                               "flow": {"max_iter": 3000}}))
    code = main(["kempf_ness", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "all_agree = True" in report


def test_report_is_deterministic_text(tmp_path):
    payload = {"b": 2, "a": {"y": 1.5, "x": [1, 2]}, "c": None}
    p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    write_report(p1, payload)
    write_report(p2, json.loads(json.dumps(payload)))
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


GOLDEN = Path(__file__).parent / "data" / "reports"


def _float_text(v):
    try:
        float(v)
    except ValueError:
        return False
    return any(ch in v for ch in ".en")  # ints and fractions compare as text


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_report_matches_golden(tmp_path, name):
    """Reports of the example modes (default fixtures, and two rank-2
    fixtures at section seed 1) and of a rank-1 vortex_threshold bisection
    at N = 8 against reports kept in tests/data: non-float lines exactly,
    floats to 1e-9 relative."""
    cfg = json.loads((GOLDEN / name / "config.json").read_text())
    run(cfg, out_dir=str(tmp_path), seed=5)
    got = (tmp_path / "report.txt").read_text().splitlines()
    want = (GOLDEN / name / "report.txt").read_text().splitlines()
    assert [g.split(" = ")[0] for g in got] == [w.split(" = ")[0] for w in want]
    for g, w in zip(got, want):
        gv, wv = g.split(" = ", 1)[1], w.split(" = ", 1)[1]
        if _float_text(wv) and _float_text(gv):
            assert math.isclose(float(gv), float(wv), rel_tol=1e-9, abs_tol=1e-12), (g, w)
        else:
            assert g == w
