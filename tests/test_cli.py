import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from jsonschema import Draft202012Validator

import splitinfer
from splitinfer.cli import build_dataset, load_schema, run
from splitinfer.moments import builtin_moment
from splitinfer.report import SCHEMA_VERSION, dumps, sanitize, write_report
from splitinfer.rng import derived_seed, substream
from splitinfer.sim import ExperimentGrid, _grid_fit


def invoke(args):
    return run([str(a) for a in args])


def python_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(splitinfer.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def estimate_config(tmp_path, out, seed=5, **overrides):
    payload = {
        "method": "estimate",
        "data": {"synthetic": {"kind": "base", "n": 90, "seed": 1}},
        "plan": {"M": 3, "K": 3, "seed": seed},
        "learner": "ols",
        "moment": "mse",
        "variant": 2,
        "alpha": 0.05,
        "output": {"path": str(out)},
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


def test_estimate_smoke_and_schema(tmp_path):
    out = tmp_path / "report.json"
    cfg = estimate_config(tmp_path, out)
    assert invoke(["estimate", "--config", cfg]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == SCHEMA_VERSION == "1.0.0"
    assert report["master_seed"] == 5
    assert "ci" in report["results"]["inference"]
    Draft202012Validator(load_schema("report.schema.json")).validate(report)


def test_validate_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"method": "estimate", "bogus": 1})
    assert invoke(["validate-config", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "bogus" in captured.err or "/" in captured.err


def test_validate_config_reports_pointer(tmp_path, capsys):
    cfg = write_config(tmp_path, {"method": "estimate", "plan": {"M": 0}})
    assert invoke(["validate-config", "--config", cfg]) == 1
    assert "/plan/M" in capsys.readouterr().err


def test_validate_config_accepts_good(tmp_path, capsys):
    cfg = estimate_config(tmp_path, tmp_path / "r.json")
    assert invoke(["validate-config", "--config", cfg]) == 0


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert invoke(["estimate", "--config", path]) == 1


# the pointers of the checks a run makes on its data (n against K or L, the
# control columns) or its output paths, which validate-config does not make
NEEDS_DATA_OR_OUTPUT = {"/plan", "/plan/K", "/gates/L", "/gates/controls/1",
                        "/simulate/csv_path", "/output/path"}


@pytest.mark.parametrize("method, overrides, pointer", [
    ("estimate", {"h": "foo"}, "/h"),
    ("estimate", {"h": "diff:0-x"}, "/h"),
    ("estimate", {"h": "coordinate:"}, "/h"),
    ("estimate", {"h": "coordinate:7"}, "/h"),  # mse is one-dimensional
    ("estimate", {"moment": "linreg_on_eta", "h": "diff:0-2"}, "/h"),
    ("estimate", {"learner": "knn(0)"}, "/learner"),
    ("estimate", {"learner": "xgboost"}, "/learner"),
    ("compare", {"compare": {"baseline": "ridge(-1)"}}, "/compare/baseline"),
    ("compare", {"compare": {"against_learner": "forest"}}, "/compare/against_learner"),
    ("gates", {"learners": ["ols", "bogus"]}, "/learners/1"),
    ("estimate", {"learner": "knn(1e400)"}, "/learner"),
    ("estimate", {"learner": "tree(1e400)"}, "/learner"),
    ("estimate", {"learner": "ridge(1e400)"}, "/learner"),
    ("gates", {"gates": {"controls": ["const", "nope"]}}, "/gates/controls/1"),
    ("simulate", {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                               "methods": ["estimate", "bogus"]}}, "/simulate/methods/1"),
    ("simulate", {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                               "methods": ["estimate"], "dgp": {"kind": "weird"}}},
     "/simulate/dgp/kind"),
    ("simulate", {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                               "methods": ["estimate"], "dgp": {"slope": None}}},
     "/simulate/dgp/slope"),
    ("estimate", {"data": {"synthetic": {"kind": "weird"}}}, "/data/synthetic/kind"),
    ("estimate", {"moment": "linreg_on_eta", "estimate": {"adaptive": True}},
     "/estimate/adaptive"),
    ("estimate", {"plan": {"M": 3, "K": 1, "seed": 5}}, "/plan"),  # K=1 needs b
    ("compare", {"plan": {"M": 3, "K": 50, "seed": 5}}, "/plan"),  # n=90 < 2K
    ("repro", {"plan": {"M": 3, "K": 50, "seed": 5}}, "/plan"),
    ("gates", {"plan": {"M": 3, "K": 1, "seed": 5}}, "/plan/K"),
    ("estimate", {"data": {"synthetic": {"kind": "copula", "mode": "shuffled"}}},
     "/data/synthetic/mode"),
    ("simulate", {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                               "methods": ["estimate"], "dgp": {"kind": "hte", "mode": "asis"}}},
     "/simulate/dgp/mode"),
    ("gates", {"data": {"synthetic": {"kind": "linear_cate", "n": 40, "seed": 1}},
               "plan": {"M": 3, "K": 25, "seed": 5}}, "/plan/K"),  # n=40 < 2K
    ("gates", {"data": {"synthetic": {"kind": "linear_cate", "n": 40, "seed": 1}},
               "gates": {"L": 25}}, "/gates/L"),  # n=40 < 2L
    ("compare --adaptive", {}, "/estimate/adaptive"),
    ("gates --adaptive", {}, "/estimate/adaptive"),
    ("estimate", {"data": {"path": "data.csv"}}, "/data"),  # a CSV needs data.schema
    ("estimate", {"plan": {"M": 3, "K": 3, "seed": -1}}, "/plan/seed"),
    ("estimate", {"data": {"synthetic": {"kind": "base", "n": 90, "seed": -1}}},
     "/data/synthetic/seed"),
    ("estimate", {"data": {"synthetic": {"kind": "copula", "base_seed": -1}}},
     "/data/synthetic/base_seed"),
    ("estimate --seed -1", {}, "/plan/seed"),
    ("estimate --threads 0", {}, "/threads"),
    ("simulate", {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                               "methods": ["estimate"], "csv_path": "nodir/grid.csv"}},
     "/simulate/csv_path"),
    ("simulate", {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                               "methods": ["estimate"]},
                  "output": {"path": "nodir/r.json"}}, "/output/path"),  # CSV nodir/r.json.csv
    ("estimate", {"moment": "linreg_on_eta", "h": "diff:1-1"}, "/h"),  # identically zero
])
def test_bad_names_are_config_errors(tmp_path, capsys, monkeypatch, method, overrides, pointer):
    """A run fails at ``pointer``; so does validate-config, unless the check
    needs the data or writes a file."""
    monkeypatch.chdir(tmp_path)
    method, *flags = method.split()
    cfg = estimate_config(tmp_path, tmp_path / "r.json", method=method, **overrides)
    commands = [method]
    if pointer not in NEEDS_DATA_OR_OUTPUT:
        commands.append("validate-config")
    for command in commands:
        assert invoke([command, "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err
        assert f"invalid config at {pointer}:" in err
        assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_method_mismatch_is_a_config_error(tmp_path, capsys):
    cfg = estimate_config(tmp_path, tmp_path / "r.json")
    assert invoke(["compare", "--config", cfg]) == 1
    assert "invalid config at /method: 'estimate' does not match" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


CSV_ROLES = {"outcome": "y", "covariates": ["x1"]}


@pytest.mark.parametrize("flags", [["--threads", "two"], ["--seed", "1.5"], ["--bogus"]],
                         ids=["threads_not_an_integer", "seed_not_an_integer", "unknown_flag"])
def test_usage_errors_exit_one(tmp_path, capsys, flags):
    cfg = estimate_config(tmp_path, tmp_path / "r.json")
    with pytest.raises(SystemExit) as exc:
        invoke(["estimate", "--config", cfg, *flags])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage: splitinfer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_adaptive_ci_runs_where_the_normal_variance_is_zero(tmp_path, capsys):
    """A constant outcome gives the normal CI a zero variance: with --adaptive
    the report holds the adaptive CI and no normal CI; without it, and in
    repro, exit 2."""
    data = tmp_path / "constant.csv"
    x = substream(11).standard_normal(90)
    data.write_text("y,x1\n" + "".join(f"1,{v!r}\n" for v in x.tolist()), encoding="utf-8")
    out = tmp_path / "r.json"

    def config(method):
        return estimate_config(tmp_path, out, method=method, learner="mean",
                               moment="classify_binary",
                               data={"path": str(data), "schema": CSV_ROLES})

    for method in ("estimate", "repro"):
        assert invoke([method, "--config", config(method)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure: delta-method variance is zero" in err
        assert "Traceback" not in err
        assert not out.exists()
    assert invoke(["estimate", "--config", config("estimate"), "--adaptive"]) == 0
    results = json.loads(out.read_text())["results"]
    assert set(results) == {"estimate", "adaptive"}
    assert results["adaptive"]["flags"]["zero_variance"] is True
    (lo, hi), = results["adaptive"]["intervals"]
    assert lo < results["estimate"]["theta_hat"][0] < hi


@pytest.mark.parametrize("method, plan", [
    ("compare", {"M": 1, "K": 2, "seed": 0}),
    ("repro", {"M": 1, "K": 1, "b": 1, "seed": 0}),
])
def test_singular_jacobian_is_a_runtime_failure(tmp_path, capsys, method, plan):
    """A constant predictor leaves linreg_on_eta's Jacobian singular on each
    evaluation set: compare reads each set's own Jacobian, repro the pooled
    one, which here is one set's."""
    out = tmp_path / "r.json"
    cfg = estimate_config(tmp_path, out, method=method, learner="mean", moment="linreg_on_eta",
                          data={"synthetic": {"kind": "base", "n": 30, "seed": 1}}, plan=plan)
    assert invoke([method, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "runtime failure: moment Jacobian is numerically singular" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, env, code, message", [
    ({"data": {"path": "absent.csv", "schema": CSV_ROLES}}, {}, 1,
     "invalid config at /data/path:"),
    ({"data": {"path": "a_directory", "schema": CSV_ROLES}}, {}, 1,
     "invalid config at /data/path:"),
    ({"data": {"path": "latin1.csv", "schema": CSV_ROLES}}, {}, 2,
     "runtime failure: CSV file is not UTF-8"),
    ({}, {"SPLITINFER_THREADS": "two"}, 1, "invalid config at /threads:"),
    ({"output": {"path": "a_directory"}}, {}, 1, "error: cannot write report:"),
    ({"output": {"path": "good.csv/r.json"}}, {}, 1, "error: cannot write report:"),
], ids=["csv_missing", "csv_is_a_directory", "csv_not_utf8", "threads_env_not_an_integer",
        "report_path_is_a_directory", "report_parent_is_a_file"])
def test_bad_inputs_end_in_their_exit_code(tmp_path, capsys, monkeypatch, overrides, env,
                                           code, message):
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "good.csv").write_text("y,x1\n1,2\n3,5\n4,4\n", encoding="utf-8")
    (tmp_path / "latin1.csv").write_bytes("y,x1\n1,2\n3,5\n4,\u00e9\n".encode("latin-1"))
    cfg = estimate_config(tmp_path, tmp_path / "r.json", **overrides)
    assert invoke(["estimate", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()
    assert not list(tmp_path.rglob("*.tmp"))
    assert not list((tmp_path / "a_directory").iterdir())


@pytest.mark.parametrize("spec", [
    {"kind": "base"},
    {"kind": "linear_cate"},
    {"kind": "gauss_linear", "slope": 0.5, "noise": 2.0},
    {"kind": "copula", "mode": "correlated", "base_n": 200, "base_seed": 3, "outcome_p": 0.2},
    {"kind": "hte", "mode": "shuffled"},
])
def test_cli_data_and_grid_rows_draw_from_one_table(tmp_path, spec):
    grid = ExperimentGrid(dgp=spec, n_list=(60,), K_list=(2,), M=1, methods=("estimate",),
                          iterations=1, seed=4, out_csv=str(tmp_path / "grid.csv"))
    _, _, from_grid, *_ = _grid_fit(grid, 60, 2, 0, 0)
    seed = derived_seed(derived_seed(grid.seed, 0, 0), 0)  # the row's data seed
    from_cli = build_dataset({"data": {"synthetic": {**spec, "n": 60, "seed": seed}}})
    assert from_cli.roles == from_grid.roles
    assert from_cli.column_names == from_grid.column_names
    for name in from_grid.column_names:
        np.testing.assert_array_equal(from_cli.column(name), from_grid.column(name))


def test_estimate_runs_on_gauss_linear_data(tmp_path):
    out = tmp_path / "r.json"
    cfg = estimate_config(tmp_path, out, data={"synthetic": {
        "kind": "gauss_linear", "slope": 2.0, "noise": 1.0, "n": 300, "seed": 8}})
    assert invoke(["estimate", "--config", cfg]) == 0
    report = json.loads(out.read_text())
    Draft202012Validator(load_schema("report.schema.json")).validate(report)
    # ols recovers the line, so the out-of-fold MSE estimates the noise variance 1
    assert report["results"]["inference"]["theta_hat"][0] == pytest.approx(1.0, abs=0.3)


def test_cli_import_leaves_scipy_optimize_and_stats_unloaded():
    code = ("import sys, splitinfer.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.stats', 'scipy.special', "
            "'subprocess') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=python_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_method_mismatch_exits_one(tmp_path):
    cfg = estimate_config(tmp_path, tmp_path / "r.json")
    assert invoke(["compare", "--config", cfg]) == 1


def test_seed_and_out_overrides(tmp_path):
    out = tmp_path / "a.json"
    cfg = estimate_config(tmp_path, out, seed=5)
    override = tmp_path / "b.json"
    assert invoke(["estimate", "--config", cfg, "--seed", 9, "--out", override]) == 0
    report = json.loads(override.read_text())
    assert report["master_seed"] == 9


def test_threads_do_not_change_report(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cfg = estimate_config(tmp_path, out1)
    assert invoke(["estimate", "--config", cfg, "--threads", 1]) == 0
    cfg2 = estimate_config(tmp_path, out2, name_unused=None) if False else cfg
    assert invoke(["estimate", "--config", cfg2, "--threads", 4, "--out", out2]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1["config"].pop("threads")
    r2["config"].pop("threads")
    r1["config"]["output"].pop("path")
    r2["config"]["output"].pop("path")
    assert dumps(r1) == dumps(r2)


def test_emit_plan_included(tmp_path):
    out = tmp_path / "r.json"
    cfg = estimate_config(tmp_path, out)
    assert invoke(["estimate", "--config", cfg, "--emit-plan"]) == 0
    report = json.loads(out.read_text())
    assert report["plan"]["M"] == 3
    assert len(report["plan"]["repetitions"]) == 3


def test_compare_subcommand(tmp_path):
    out = tmp_path / "cmp.json"
    cfg = write_config(tmp_path, {
        "method": "compare",
        "data": {"synthetic": {"kind": "base", "n": 90, "seed": 2}},
        "plan": {"M": 2, "K": 3, "seed": 3},
        "learner": "ols",
        "moment": "mse",
        "compare": {"baseline": "mean", "mc_draws": 2000},
        "output": {"path": str(out)},
    })
    assert invoke(["compare", "--config", cfg, "--emit-sigma"]) == 0
    report = json.loads(out.read_text())
    assert "ci_final" in report["results"]
    assert "sigma" in report["results"]


def test_repro_subcommand(tmp_path):
    out = tmp_path / "rep.json"
    cfg = write_config(tmp_path, {
        "method": "repro",
        "data": {"synthetic": {"kind": "base", "n": 80, "seed": 4}},
        "plan": {"M": 4, "K": 2, "seed": 1},
        "learner": "mean",
        "moment": "mse",
        "repro": {"beta": 0.2, "tau": 0.1, "test_type": "right"},
        "output": {"path": str(out)},
    })
    assert invoke(["repro", "--config", cfg]) == 0
    report = json.loads(out.read_text())
    assert "measure" in report["results"]
    assert report["results"]["components"]["sigma_hat_D2"] >= 0


def test_gates_subcommand(tmp_path):
    out = tmp_path / "g.json"
    cfg = write_config(tmp_path, {
        "method": "gates",
        "data": {"synthetic": {"kind": "linear_cate", "n": 240, "seed": 6}},
        "plan": {"M": 2, "K": 2, "seed": 2},
        "learners": ["ols"],
        "gates": {"J": 3, "L": 2, "baselines": True},
        "output": {"path": str(out)},
    })
    assert invoke(["gates", "--config", cfg]) == 0
    report = json.loads(out.read_text())
    assert len(report["results"]["gates"]["gamma_hat"]) == 3
    assert "ttm_pvalue" in report["results"]["baselines"]


def test_simulate_determinism(tmp_path):
    def sim_config(tag):
        return write_config(tmp_path, {
            "method": "simulate",
            "plan": {"M": 2, "seed": 7},
            "learner": "ols",
            "moment": "mse",
            "simulate": {
                "dgp": {"kind": "gauss_linear"},
                "n_list": [50], "K_list": [2], "methods": ["estimate"],
                "iterations": 3, "oracle_rows": 1000,
                "csv_path": str(tmp_path / f"grid_{tag}.csv"),
            },
            "output": {"path": str(tmp_path / f"sim_{tag}.json")},
        }, name=f"sim_{tag}.cfg.json")

    assert invoke(["simulate", "--config", sim_config("a")]) == 0
    assert invoke(["simulate", "--config", sim_config("b")]) == 0
    csv_a = (tmp_path / "grid_a.csv").read_text()
    csv_b = (tmp_path / "grid_b.csv").read_text()
    assert csv_a == csv_b


def test_simulate_rewrites_a_grid_csv_left_by_another_grid(tmp_path):
    """A second grid on the same CSV reports its own rows, as a fresh run
    does, not the rows an earlier grid with other data left there."""
    def sim_report(noise, csv_name, tag):
        cfg = write_config(tmp_path, {
            "method": "simulate",
            "plan": {"M": 2, "seed": 7},
            "simulate": {
                "dgp": {"kind": "gauss_linear", "noise": noise},
                "n_list": [60], "K_list": [3], "methods": ["estimate"],
                "iterations": 2, "oracle_rows": 1000,
                "csv_path": str(tmp_path / csv_name),
            },
            "output": {"path": str(tmp_path / f"{tag}.json")},
        }, name=f"{tag}.cfg.json")
        assert invoke(["simulate", "--config", cfg]) == 0
        results = json.loads((tmp_path / f"{tag}.json").read_text())["results"]
        results.pop("csv_path")
        return results, (tmp_path / csv_name).read_text()

    sim_report(1.0, "shared.csv", "first")
    second = sim_report(3.0, "shared.csv", "second")
    fresh = sim_report(3.0, "fresh.csv", "fresh")
    assert second == fresh
    assert second[0]["rows_written"] == 2


def test_console_entrypoint_runs(tmp_path):
    out = tmp_path / "cli.json"
    cfg = estimate_config(tmp_path, out)
    proc = subprocess.run(
        [sys.executable, "-m", "splitinfer", "estimate", "--config", str(cfg)],
        capture_output=True, text=True, env=python_env(),
    )
    assert proc.returncode == 0
    assert out.exists()


LEARNERS = st.one_of(
    st.sampled_from(["mean", "ols", "logistic"]),
    st.sampled_from([0.0, 0.5, 10.0]).map(lambda lam: f"ridge({lam})"),
    st.integers(1, 10).map(lambda k: f"knn({k})"),
    st.integers(1, 4).map(lambda depth: f"tree({depth})"),
)
DGPS = st.one_of(
    st.sampled_from([{"kind": "base"}, {"kind": "linear_cate"}, {"kind": "gauss_linear"}]),
    st.sampled_from(["asis", "correlated", "uncorrelated"]).map(
        lambda mode: {"kind": "copula", "mode": mode}),
    st.sampled_from(["predictable", "shuffled"]).map(lambda mode: {"kind": "hte", "mode": mode}),
)
MOMENTS = load_schema("config.schema.json")["properties"]["moment"]["enum"]


def reductions(dim):
    """Any reduction of a dim-dimensional theta, or one index past its end."""
    index = st.integers(0, dim)
    return st.one_of(st.just("identity"), index.map(lambda j: f"coordinate:{j}"),
                     st.tuples(index, index).map(lambda ij: f"diff:{ij[0]}-{ij[1]}"))


@st.composite
def cli_configs(draw):
    """A schema-valid config for one of the four single-run subcommands on
    small synthetic data, with any built-in learner, moment and reduction."""
    method = draw(st.sampled_from(["estimate", "compare", "gates", "repro"]))
    n = draw(st.integers(30, 150))
    plan = {"M": draw(st.integers(1, 3)), "K": draw(st.integers(1, 5)),
            "seed": draw(st.integers(0, 2**16))}
    if plan["K"] == 1:
        plan["b"] = draw(st.integers(1, n - 1))
    moment = draw(st.sampled_from(MOMENTS))
    config = {
        "method": method,
        "data": {"synthetic": {**draw(DGPS), "n": n, "seed": draw(st.integers(0, 2**16))}},
        "plan": plan,
        "learner": draw(LEARNERS),
        "moment": moment,
        "h": draw(reductions(builtin_moment(moment).dim)),
        "alpha": draw(st.sampled_from([0.05, 0.1])),
    }
    if method == "estimate":
        config["variant"] = draw(st.sampled_from([1, 2, 3]))
        config["estimate"] = {"adaptive": draw(st.booleans())}
    elif method == "compare":
        against = draw(st.sampled_from(["baseline", "against_learner"]))
        config["compare"] = {against: draw(LEARNERS), "mc_draws": draw(st.integers(100, 500))}
    elif method == "gates":
        config["learners"] = draw(st.lists(LEARNERS, min_size=1, max_size=2))
        config["gates"] = {"J": draw(st.integers(2, 4)), "L": draw(st.integers(2, 3)),
                           "het_test": draw(st.booleans()), "baselines": draw(st.booleans()),
                           "mc_draws": draw(st.integers(100, 500))}
    else:
        config["repro"] = {"beta": draw(st.sampled_from([0.1, 0.2, 0.4])),
                           "tau": draw(st.sampled_from([-0.5, 0.0, 0.1, 1.0])),
                           "test_type": draw(st.sampled_from(["two_sided", "right", "left"]))}
    return config


@settings(max_examples=100, derandomize=True, deadline=None)
@given(config=cli_configs())
def test_schema_valid_configs_end_in_an_exit_code(config):
    """Whatever a schema-valid config asks for, the run ends in a documented
    exit code: no exception, and (warnings being errors) no warning, escapes."""
    Draft202012Validator(load_schema("config.schema.json")).validate(config)
    with tempfile.TemporaryDirectory() as tmp:
        config["output"] = {"path": os.path.join(tmp, "report.json")}
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert run([config["method"], "--config", path, "--threads", "1"]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# report serialization


def test_shortest_floats_and_sorted_keys():
    assert dumps({"b": 0.1, "a": 1}) == '{"a":1,"b":0.1}'


@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e300, 3.0, -7.0, 2.0**53]))
def test_floats_read_back_bitwise(x):
    # subnormals, -0.0 and integral floats included: an integral float reads
    # back as a float, and -0.0 keeps its sign
    back = json.loads(dumps({"a": x}))["a"]
    assert type(back) is float
    assert struct.pack("<d", back) == struct.pack("<d", x)


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps({"a": float("nan")})


def test_nan_and_inf_nulled_with_reasons():
    cleaned, nulls = sanitize({"a": float("nan"), "b": [1.0, float("inf")]})
    assert cleaned["a"] is None
    assert cleaned["b"][1] is None
    assert nulls == {"/a": "nan", "/b/1": "inf"}


def test_write_report_atomic_and_newline(tmp_path):
    path = tmp_path / "rep.json"
    payload = {"method": "estimate", "config": {}, "master_seed": 0,
               "results": {"value": float("nan")}}
    cleaned = write_report(str(path), payload)
    text = path.read_text()
    assert text.endswith("\n")
    assert cleaned["nulls"] == {"/results/value": "nan"}
    again = json.loads(text)
    assert again["results"]["value"] is None
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"a": object()})
