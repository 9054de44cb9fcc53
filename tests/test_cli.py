import importlib.util
import json
import os
import re
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
from splitinfer.cli import (
    _check_schema,
    build_dataset,
    load_schema,
    make_parser,
    run,
    validate_config,
)
from splitinfer.errors import ConfigInvalid
from splitinfer.moments import builtin_moment
from splitinfer.report import SCHEMA_VERSION, dumps, sanitize, write_report
from splitinfer.rng import derived_seed, substream
from splitinfer.sim import DGP_OPTIONS as KIND_OPTIONS, ExperimentGrid, _grid_fit

from golden_cases import case_argv, cases as golden_cases


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


def estimate_payload(out, seed=5, **overrides):
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
    return payload


def estimate_config(tmp_path, out, seed=5, **overrides):
    return write_config(tmp_path, estimate_payload(out, seed, **overrides))


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


# a row whose check a run makes on its data (n against K, b or L, the control
# columns) or its output paths, which validate-config does not make
NEEDS_DATA_OR_OUTPUT = pytest.mark.needs_data_or_output


def row(label, method, overrides, pointer, marks=()):
    """One bad config, with the test id ``{method}-{label}-{pointer}``: a
    row's id is written down, so adding or deleting a row renames no other.
    The labels ``overridesN`` keep the ids the rows had when pytest named
    them by position; a new row takes a label that says what it breaks."""
    return pytest.param(method, overrides, pointer, marks=marks,
                        id=f"{method}-{label}-{pointer}")


def needs_data_or_output(*args):
    return row(*args, marks=NEEDS_DATA_OR_OUTPUT)


BAD_CONFIGS = [
    row("overrides0", "estimate", {"h": "foo"}, "/h"),
    row("overrides1", "estimate", {"h": "diff:0-x"}, "/h"),
    row("overrides2", "estimate", {"h": "coordinate:"}, "/h"),
    row("overrides3", "estimate", {"h": "coordinate:7"}, "/h"),  # mse is one-dimensional
    row("overrides4", "estimate", {"moment": "linreg_on_eta", "h": "diff:0-2"}, "/h"),
    row("overrides5", "estimate", {"learner": "knn(0)"}, "/learner"),
    row("overrides6", "estimate", {"learner": "xgboost"}, "/learner"),
    row("overrides7", "compare", {"compare": {"baseline": "ridge(-1)"}}, "/compare/baseline"),
    row("overrides8", "compare", {"compare": {"against_learner": "forest"}},
        "/compare/against_learner"),
    row("overrides9", "gates", {"learners": ["ols", "bogus"]}, "/learners/1"),
    row("overrides10", "estimate", {"learner": "knn(1e400)"}, "/learner"),
    row("overrides11", "estimate", {"learner": "tree(1e400)"}, "/learner"),
    row("overrides12", "estimate", {"learner": "ridge(1e400)"}, "/learner"),
    needs_data_or_output("overrides13", "gates", {"gates": {"controls": ["const", "nope"]}},
                         "/gates/controls/1"),
    row("overrides14", "simulate",
        {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                      "methods": ["estimate", "bogus"]}}, "/simulate/methods/1"),
    row("overrides15", "simulate",
        {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                      "methods": ["estimate"], "dgp": {"kind": "weird"}}},
        "/simulate/dgp/kind"),
    row("overrides16", "simulate",
        {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                      "methods": ["estimate"], "dgp": {"slope": None}}},
        "/simulate/dgp/slope"),
    row("overrides17", "estimate", {"data": {"synthetic": {"kind": "weird"}}},
        "/data/synthetic/kind"),
    row("overrides18", "estimate", {"moment": "linreg_on_eta", "estimate": {"adaptive": True}},
        "/estimate/adaptive"),
    row("overrides19", "estimate", {"plan": {"M": 3, "K": 1, "seed": 5}}, "/plan"),  # K=1 needs b
    needs_data_or_output("overrides20", "compare", {"plan": {"M": 3, "K": 50, "seed": 5}},
                         "/plan"),  # n=90 < 2K
    needs_data_or_output("overrides21", "repro", {"plan": {"M": 3, "K": 50, "seed": 5}},
                         "/plan"),
    row("overrides22", "gates", {"plan": {"M": 3, "K": 1, "seed": 5}}, "/plan/K"),
    row("overrides23", "estimate", {"data": {"synthetic": {"kind": "copula", "mode": "shuffled"}}},
        "/data/synthetic"),
    row("overrides24", "simulate",
        {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                      "methods": ["estimate"], "dgp": {"kind": "hte", "mode": "asis"}}},
        "/simulate/dgp"),
    needs_data_or_output("overrides25", "gates",
                         {"data": {"synthetic": {"kind": "linear_cate", "n": 40, "seed": 1}},
                          "plan": {"M": 3, "K": 25, "seed": 5}}, "/plan/K"),  # n < 2K
    needs_data_or_output("overrides26", "gates",
                         {"data": {"synthetic": {"kind": "linear_cate", "n": 40, "seed": 1}},
                          "gates": {"L": 25}}, "/gates/L"),  # n=40 < 2L
    row("overrides27", "compare --adaptive", {}, "/estimate/adaptive"),
    row("overrides28", "gates --adaptive", {}, "/estimate/adaptive"),
    row("overrides29", "estimate", {"data": {"path": "data.csv"}},
        "/data"),  # a CSV needs data.schema
    row("overrides30", "estimate", {"plan": {"M": 3, "K": 3, "seed": -1}}, "/plan/seed"),
    row("overrides31", "estimate", {"data": {"synthetic": {"kind": "base", "n": 90, "seed": -1}}},
        "/data/synthetic/seed"),
    row("overrides32", "estimate", {"data": {"synthetic": {"kind": "copula", "base_seed": -1}}},
        "/data/synthetic/base_seed"),
    row("overrides33", "estimate --seed -1", {}, "/plan/seed"),
    # simulate takes K from simulate.K_list and b = n // 2; estimate_payload's plan sets K
    row("overrides34", "simulate",
        {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                      "methods": ["estimate"]}}, "/plan/K"),
    needs_data_or_output("overrides35", "simulate",
                         {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                                       "methods": ["estimate"], "csv_path": "nodir/grid.csv"},
                          "plan": {"M": 3, "seed": 5}},
                         "/simulate/csv_path"),
    needs_data_or_output("overrides36", "simulate",
                         {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                                       "methods": ["estimate"]},
                          "plan": {"M": 3, "seed": 5},
                          "output": {"path": "nodir/r.json"}},
                         "/output/path"),  # CSV nodir/r.json.csv
    row("overrides37", "estimate", {"moment": "linreg_on_eta", "h": "diff:1-1"},
        "/h"),  # identically zero
    row("overrides38", "estimate", {"plan": {"M": 3, "K": 1}},
        "/plan"),  # K=1 needs b, with the default seed
    row("overrides39", "gates", {"plan": {"M": 3, "K": 1}}, "/plan/K"),
    row("overrides40", "simulate", {}, "/"),  # a simulate config needs its simulate section
    row("overrides41", "estimate", {"learner": "knn(3.7)"}, "/learner"),
    row("overrides42", "estimate", {"learner": "tree(2.5)"}, "/learner"),
    row("overrides43", "estimate", {"plan": {"M": 2, "K": 3, "b": 7, "seed": 5}},
        "/plan"),  # K > 1 takes no b
    row("overrides44", "gates", {"plan": {"M": 2, "K": 3, "b": 7, "seed": 5}}, "/plan/b"),
    row("overrides45", "estimate", {"data": {"synthetic": {"kind": "base", "slope": 5}}},
        "/data/synthetic"),
    row("overrides46", "simulate",
        {"simulate": {"n_list": [40], "K_list": [2], "iterations": 1,
                      "methods": ["estimate"], "dgp": {"kind": "hte", "outcome_p": 0.3}}},
        "/simulate/dgp"),
    row("overrides47", "estimate", {"data": {"path": "data.csv", "schema": {"outcome": "y"},
                                             "synthetic": {"kind": "base"}}},
        "/data"),  # two sources
    row("overrides48", "estimate", {"data": {"missing_policy": "drop"}},
        "/data"),  # CSV keys need data.path
    row("overrides49", "estimate", {"data": {"schema": {"outcome": "y"}}}, "/data"),
    row("overrides50", "estimate", {"data": {"missing_values": ["NA"]}}, "/data"),
    row("overrides51", "simulate",
        {"simulate": {"n_list": [40], "K_list": [1], "iterations": 1, "methods": ["estimate"]},
         "plan": {"M": 3, "b": 7, "seed": 5}}, "/plan/b"),
]


@pytest.mark.parametrize("method, overrides, pointer", BAD_CONFIGS)
def test_bad_names_are_config_errors(tmp_path, capsys, monkeypatch, request, method, overrides,
                                     pointer):
    """A run fails at ``pointer``; so does validate-config, unless the check
    needs the data or writes a file."""
    monkeypatch.chdir(tmp_path)
    method, *flags = method.split()
    cfg = estimate_config(tmp_path, tmp_path / "r.json", method=method, **overrides)
    commands = [method]
    if request.node.get_closest_marker(NEEDS_DATA_OR_OUTPUT.name) is None:
        commands.append("validate-config")
    for command in commands:
        assert invoke([command, "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err
        assert f"invalid config at {pointer}:" in err
        assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------------
# the config check agrees with jsonschema


CONFIG_SCHEMA = load_schema("config.schema.json")
ORACLE = Draft202012Validator(CONFIG_SCHEMA)


def first_pointers(config):
    """The first pointer, in path order, at which ``validate_config`` and
    jsonschema reject ``config``; None where one accepts it."""
    errors = sorted(ORACLE.iter_errors(config), key=lambda e: list(e.absolute_path))
    want = "/" + "/".join(map(str, errors[0].absolute_path)) if errors else None
    try:
        validate_config(config)
    except ConfigInvalid as exc:
        return exc.pointer, want
    return None, want


def schema_words(node, key=None):
    """Every property name and every string enum value in a schema."""
    if isinstance(node, dict):
        names = set(node) if key == "properties" else set()
        return names.union(*(schema_words(v, k) for k, v in node.items()))
    if isinstance(node, list):
        return {v for v in node if isinstance(v, str)} if key == "enum" else set().union(
            *(schema_words(v) for v in node))
    return set()


WORDS = sorted(schema_words(CONFIG_SCHEMA) | {"bogus", ""})
KINDS = ["base", "linear_cate", "gauss_linear", "copula", "hte", "weird"]
MODES = ["asis", "correlated", "uncorrelated", "predictable", "shuffled", "bogus"]
NUMBERS = [-1, 0, 1, 2, 3, 99, 100, 2**70, -0.0, 0.0, 1.0, 2.0, 100.0, 0.5, 0.49999, 1.5,
           1e-300, 1e308, float("inf"), float("nan")]
LEAVES = st.one_of(st.none(), st.booleans(), st.sampled_from(NUMBERS), st.integers(),
                   st.floats(), st.sampled_from(WORDS))
VALUES = st.one_of(LEAVES, st.lists(LEAVES, max_size=2),
                   st.dictionaries(st.sampled_from(WORDS), LEAVES, max_size=2))
DGP_OPTIONS = {"kind": st.sampled_from(KINDS), "mode": st.sampled_from(MODES),
               "slope": st.just(0.5), "noise": st.just(1.0), "outcome_p": st.just(0.1),
               "base_n": st.just(200), "base_seed": st.just(0)}


def full_config(method, synthetic, dgp):
    """A config that sets every key the schema knows, with ``synthetic`` as
    ``data.synthetic`` (or a CSV's keys, where it is None) and ``dgp`` as
    ``simulate.dgp``."""
    data = ({"synthetic": synthetic} if synthetic is not None else
            {"path": "d.csv", "schema": {"outcome": "y", "covariates": ["x1"], "treatment": None,
                                         "group": "g", "propensity": 0.5},
             "missing_policy": "drop", "missing_values": ["NA"]})
    return {
        "method": method, "data": data, "plan": {"M": 3, "K": 2, "b": None, "seed": 0},
        "learner": "ols", "learners": ["ols"], "moment": "mse", "variant": 2,
        "h": "identity", "alpha": 0.05,
        "estimate": {"adaptive": True, "c_gamma": None, "grid_points": 5},
        "compare": {"baseline": "mean", "mc_draws": 100, "slack": 0.0,
                    "against_learner": "knn(3)"},
        "gates": {"L": 2, "J": 2, "controls": ["const"], "het_test": True, "baselines": False,
                  "mc_draws": 100},
        "repro": {"beta": 0.2, "tau": 0.0, "test_type": "right"},
        "simulate": {"dgp": dgp, "n_list": [40], "K_list": [2], "methods": ["estimate"],
                     "iterations": 1, "oracle_rows": 100, "csv_path": "g.csv"},
        "output": {"path": "r.json", "emit_plan": True, "emit_sigma": False},
    }


def node_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from node_paths(child, (*path, key))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(data=st.data())
def test_config_check_agrees_with_jsonschema(data):
    """Configs mutated from valid ones (keys dropped, unknown keys added at
    any level, any node swapped for a JSON value of another type, boundary
    and out-of-range numbers, unknown enum values, every kind and mode in
    both DGP specs) get jsonschema's verdict and first sorted pointer."""
    dgps = st.fixed_dictionaries({}, optional=DGP_OPTIONS)
    config = full_config(data.draw(st.sampled_from(["estimate", "compare", "gates", "repro",
                                                    "simulate"])),
                         data.draw(st.none() | dgps.map(lambda d: {**d, "n": 40, "seed": 1})),
                         data.draw(dgps))
    for key in data.draw(st.sets(st.sampled_from(sorted(config)))) - {"method"}:
        del config[key]
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(node_paths(config))))
        parent, node = None, config
        for key in path:
            parent, node = node, node[key]
        op = data.draw(st.sampled_from(["drop", "add", "set"]))
        if op == "drop" and isinstance(node, dict) and node:
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif op == "add" and isinstance(node, (dict, list)):
            value = data.draw(VALUES)
            if isinstance(node, dict):
                node[data.draw(st.sampled_from(WORDS))] = value
            else:
                node.append(value)
        elif parent is not None:
            parent[path[-1]] = data.draw(VALUES)
    got, want = first_pointers(config)
    assert got == want


@pytest.mark.parametrize("kind", [None, *KINDS])
@pytest.mark.parametrize("mode", [None, *MODES])
def test_config_check_agrees_with_jsonschema_on_every_kind_and_mode(kind, mode):
    spec = {key: value for key, value in (("kind", kind), ("mode", mode)) if value is not None}
    for synthetic in (None, {**spec, "n": 40}):
        got, want = first_pointers(full_config("simulate", synthetic, spec))
        assert got == want


SWAPS = [None, True, False, -1, 0, 1, 2, 99, 100, 1.0, 0.5, 1e308, float("nan"), "bogus",
         "copula", [], ["x"], [True], {}, {"bogus": 1}]


@pytest.mark.parametrize("synthetic", [None, {"kind": "hte", "n": 40, "seed": 1}])
def test_config_check_agrees_with_jsonschema_on_every_single_swap(synthetic):
    """Each node of a full config, swapped in turn for each value of SWAPS."""
    base = full_config("simulate", synthetic, {"kind": "copula", "mode": "asis", "slope": 1.0})
    for path in list(node_paths(base))[1:]:
        for value in SWAPS:
            config = json.loads(json.dumps(base))
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            got, want = first_pointers(config)
            assert got == want, (path, value)


def test_config_check_agrees_with_jsonschema_on_known_configs(tmp_path):
    """Every bad config of test_bad_names_are_config_errors and every golden
    config gets jsonschema's verdict and first pointer."""
    configs = [estimate_payload(tmp_path / "r.json", method=method.split()[0], **overrides)
               for method, overrides, _ in (param.values for param in BAD_CONFIGS)]
    configs += [{"method": command, **config}
                for command, config, _ in golden_cases(tmp_path).values()]
    for config in configs:
        got, want = first_pointers(config)
        assert got == want, config


def test_schema_loader_refuses_keywords_it_does_not_implement():
    _check_schema(CONFIG_SCHEMA)
    for where in (lambda s: s, lambda s: s["properties"]["h"],
                  lambda s: s["properties"]["data"]["properties"]["synthetic"]):
        for keyword, rule in (("pattern", "^[a-z]+$"), ("$ref", "#/properties/plan"),
                              ("if", {"required": ["kind"]})):
            schema = json.loads(json.dumps(CONFIG_SCHEMA))
            where(schema)[keyword] = rule
            with pytest.raises(ValueError,
                               match=re.escape(f"unsupported schema keyword {keyword!r}")):
                _check_schema(schema)


def test_generator_objects_list_the_same_options():
    """``data.synthetic`` is ``simulate.dgp`` plus n and seed, and both list
    the kinds and options of ``sim.DGP_OPTIONS``."""
    synthetic = CONFIG_SCHEMA["properties"]["data"]["properties"]["synthetic"]
    dgp = CONFIG_SCHEMA["properties"]["simulate"]["properties"]["dgp"]
    options = dict(synthetic["properties"])
    assert (options.pop("n"), options.pop("seed")) == (
        {"type": "integer", "minimum": 2}, {"type": "integer", "minimum": 0})
    assert {**synthetic, "properties": options} == dgp
    assert dgp["properties"]["kind"]["enum"] == list(KIND_OPTIONS)
    assert set(dgp["properties"]) == {"kind"}.union(*KIND_OPTIONS.values())


# validate-config's exit code on each generator kind and mode in each of the two
# generator specs: 0 exactly where the kind has the mode (or no mode is given)
ABSENT = object()


def grid_label(value):
    return "absent" if value is ABSENT else str(value)

GRID_KINDS = [ABSENT, "base", "linear_cate", "gauss_linear", "copula", "hte", "weird"]
GRID_MODES = [ABSENT, "asis", "correlated", "uncorrelated", "predictable", "shuffled", "bogus",
              3, None]
GRID_ACCEPTED = {(ABSENT, ABSENT), ("base", ABSENT), ("linear_cate", ABSENT),
                 ("gauss_linear", ABSENT), ("copula", ABSENT), ("copula", "asis"),
                 ("copula", "correlated"), ("copula", "uncorrelated"), ("hte", ABSENT),
                 ("hte", "predictable"), ("hte", "shuffled")}
VERDICT_GRID = [
    pytest.param(where, {key: value for key, value in (("kind", kind), ("mode", mode))
                         if value is not ABSENT},
                 int((kind, mode) not in GRID_ACCEPTED),
                 id=f"{where}-{grid_label(kind)}-{grid_label(mode)}")
    for where in ("synthetic", "dgp") for kind in GRID_KINDS for mode in GRID_MODES
] + [
    ("synthetic", {"kind": "copula", "mode": "uncorrelated", "outcome_p": 0.2, "base_n": 50,
                   "base_seed": 3}, 0),
    ("dgp", {"kind": "gauss_linear", "slope": -2, "noise": 0.5}, 0),
    ("dgp", {"kind": "hte", "mode": "Shuffled"}, 1),
    ("synthetic", {"kind": None}, 1),
]


@pytest.mark.parametrize("where, spec, code", VERDICT_GRID)
def test_generator_spec_verdicts(tmp_path, capsys, where, spec, code):
    if where == "synthetic":
        config = {"method": "estimate", "data": {"synthetic": {**spec, "n": 90, "seed": 1}},
                  "plan": {"M": 3, "K": 3, "seed": 5}}
        pointer = "/data/synthetic"
    else:
        config = {"method": "simulate", "simulate": {"dgp": spec, "n_list": [40], "K_list": [2],
                                                     "iterations": 1, "methods": ["estimate"]}}
        pointer = "/simulate/dgp"
    assert invoke(["validate-config", "--config", write_config(tmp_path, config)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"invalid config at {pointer}" in err) == bool(code)


def test_method_mismatch_is_a_config_error(tmp_path, capsys):
    cfg = estimate_config(tmp_path, tmp_path / "r.json")
    assert invoke(["compare", "--config", cfg]) == 1
    assert "invalid config at /method: 'estimate' does not match" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


CSV_ROLES = {"outcome": "y", "covariates": ["x1"]}


@pytest.mark.parametrize("flags", [["--threads", "two"], ["--threads", "0"],
                                   ["--threads", "2"], ["--seed", "1.5"], ["--bogus"]],
                         ids=["threads_not_an_integer", "threads_zero", "threads_two",
                              "seed_not_an_integer", "unknown_flag"])
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


CONSTANT_LINREG = {"learner": "mean", "moment": "linreg_on_eta",
                   "data": {"synthetic": {"kind": "base", "n": 30, "seed": 1}}}


@pytest.mark.parametrize("method, plan, setup", [
    pytest.param("compare", {"M": 1, "K": 2, "seed": 0}, CONSTANT_LINREG, id="compare-plan0"),
    pytest.param("repro", {"M": 1, "K": 1, "b": 1, "seed": 0}, CONSTANT_LINREG,
                 id="repro-plan1"),
    pytest.param("estimate", {"M": 4, "K": 3, "seed": 11},
                 {"learner": "tree(2)", "moment": "tercile_fractions",
                  "data": {"synthetic": {"kind": "linear_cate", "n": 150, "seed": 3}}},
                 id="estimate-tied_terciles"),
])
def test_singular_jacobian_is_a_runtime_failure(tmp_path, capsys, method, plan, setup):
    """A constant predictor leaves linreg_on_eta's Jacobian singular on each
    evaluation set: compare reads each set's own Jacobian, repro the pooled
    one, which here is one set's. A depth-2 tree ties its predictions, and
    the tercile Jacobian's density estimate at a tied threshold blows up."""
    out = tmp_path / "r.json"
    cfg = estimate_config(tmp_path, out, method=method, plan=plan, **setup)
    assert invoke([method, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "runtime failure: moment Jacobian is numerically singular" in err
    assert "Traceback" not in err
    assert not out.exists()


SPLIT_00 = "runtime failure: learner 'ridge(0)' failed on split (m=0, k=0): Singular matrix"


@pytest.mark.parametrize("method, overrides, message", [
    ("estimate", {}, SPLIT_00),
    ("gates", {"gates": {"baselines": True}},
     "runtime failure: learner 'tlearner[ridge(0)]' failed on split (m=0, k=0): Singular matrix"),
    ("compare", {"learner": "ols", "compare": {"baseline": "ridge(0)"}},
     "runtime failure: baseline learner 'ridge(0)' failed on the whole sample: Singular matrix"),
    ("compare", {"learner": "ols", "compare": {"against_learner": "ridge(0)"}}, SPLIT_00),
    ("repro", {}, SPLIT_00),
], ids=["estimate", "gates_baselines", "compare_baseline", "compare_against_learner", "repro"])
def test_learner_failures_are_runtime_failures(tmp_path, capsys, method, overrides, message):
    """ridge(0) cannot train on a CSV whose covariate x2 equals x1: every run
    exits 2 and names the learner and the split, or the baseline, that failed."""
    rng = substream(12)
    x, t = rng.standard_normal(80), (rng.random(80) < 0.5) * 1.0
    data = tmp_path / "collinear.csv"
    data.write_text("y,x1,x2,t\n" + "".join(
        f"{a + b * a!r},{a!r},{a!r},{b!r}\n" for a, b in zip(x.tolist(), t.tolist())),
        encoding="utf-8")
    out = tmp_path / "r.json"
    roles = {"outcome": "y", "covariates": ["x1", "x2"], "treatment": "t", "propensity": 0.5}
    payload = estimate_payload(out, method=method, data={"path": str(data), "schema": roles},
                               plan={"M": 2, "K": 2, "seed": 0},
                               **{"learner": "ridge(0)", **overrides})
    if method == "gates":
        del payload["moment"], payload["variant"]
    assert invoke([method, "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, code, message", [
    ({"data": {"path": "absent.csv", "schema": CSV_ROLES}}, 1, "invalid config at /data/path:"),
    ({"data": {"path": "a_directory", "schema": CSV_ROLES}}, 1, "invalid config at /data/path:"),
    ({"data": {"path": "latin1.csv", "schema": CSV_ROLES}}, 2,
     "runtime failure: CSV file is not UTF-8"),
    ({"output": {"path": "a_directory"}}, 1, "error: cannot write report:"),
    ({"output": {"path": "good.csv/r.json"}}, 1, "error: cannot write report:"),
], ids=["csv_missing", "csv_is_a_directory", "csv_not_utf8", "report_path_is_a_directory",
        "report_parent_is_a_file"])
def test_bad_inputs_end_in_their_exit_code(tmp_path, capsys, monkeypatch, overrides, code,
                                           message):
    monkeypatch.chdir(tmp_path)
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
    """Starting the CLI loads none of the modules that only some runs, or only
    the tests, need: the CLI checks configs without jsonschema, and no run
    starts a thread pool."""
    code = ("import sys, splitinfer.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.stats', 'scipy.special', "
            "'subprocess', 'jsonschema', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=python_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the package's submodules loaded after each step, as JSON on the last line
IMPORT_STEPS = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("splitinfer."))
import splitinfer
seen = {"import splitinfer": loaded()}
from splitinfer import cli
seen["import splitinfer.cli"] = loaded()
for step, command, config in json.loads(sys.argv[1]):
    assert cli.run([command, "--config", config]) == 0, step
    seen[step] = loaded()
print(json.dumps(seen))
"""


def test_cli_loads_sim_and_repro_only_for_the_runs_that_call_them(tmp_path):
    """``import splitinfer`` loads no submodule. Starting the CLI and running
    estimate, compare and gates on a CSV leave the generators (``sim``) and
    the reproducibility margin (``repro``) unloaded; a repro run loads
    ``repro``, and a run on ``data.synthetic`` loads ``sim``."""
    rng = substream(13)
    x, t = rng.standard_normal(60), (rng.random(60) < 0.5) * 1.0
    data = tmp_path / "d.csv"
    data.write_text("y,x1,t\n" + "".join(f"{a + b * a!r},{a!r},{b!r}\n"
                                         for a, b in zip(x.tolist(), t.tolist())),
                    encoding="utf-8")
    roles = {"outcome": "y", "covariates": ["x1"], "treatment": "t", "propensity": 0.5}
    on_csv = {"data": {"path": str(data), "schema": roles}, "plan": {"M": 2, "K": 2, "seed": 0}}
    steps = []
    for step, command, overrides in [("estimate", "estimate", on_csv),
                                     ("compare", "compare", on_csv),
                                     ("gates", "gates", on_csv),
                                     ("repro", "repro", on_csv),
                                     ("synthetic", "estimate", {})]:
        payload = estimate_payload(tmp_path / f"{step}.json", method=command, **overrides)
        if command == "gates":
            del payload["moment"], payload["variant"]
        steps.append((step, command, str(write_config(tmp_path, payload, f"{step}_cfg.json"))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_STEPS, json.dumps(steps)],
                          capture_output=True, text=True, env=python_env())
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import splitinfer"] == []
    for step in ("import splitinfer.cli", "estimate", "compare", "gates"):
        assert {"splitinfer.sim", "splitinfer.repro"}.isdisjoint(seen[step]), step
    assert "splitinfer.repro" in seen["repro"] and "splitinfer.sim" not in seen["repro"]
    assert "splitinfer.sim" in seen["synthetic"]


# the public names of the package, by the module that holds each, and its submodules
PACKAGE_NAMES = {
    "data": ("Dataset", "Roles", "as_row_index_set", "complement", "ingest_csv"),
    "splits": ("SplitPlan", "generate_plan"),
    "learners": ("Learner", "Model", "builtin"),
    "evaluation": ("Block", "Evaluations", "cross_fit", "pool"),
    "moments": ("MomentFunction", "builtin_moment"),
    "zestim": ("ZEstimate", "per_split_estimates", "solve"),
    "inference": ("DeltaSpec", "InferenceReport", "named_reduction", "normal_ci", "sandwich",
                  "variance_inflation"),
    "compare": ("ComparisonResult", "compare_models", "compare_two_learners", "comparison_ci",
                "delta_vector", "one_sided_test"),
    "adaptive": ("AdaptiveCI", "AdaptiveConfig", "adaptive_ci"),
    "repro": ("ReproComponents", "ReproMeasure", "conditional_variance_curve", "repro_measure",
              "sigma_D_hat"),
    "gates": ("CateLearner", "GatesConfig", "baselines", "het_test", "repetition", "run_gates"),
    "sim": ("CopulaDGP", "ExperimentGrid", "copula_sample", "estimand_oracle", "hte_sample",
            "linear_cate_sample", "run_grid", "synthetic_base"),
    "errors": (),
    "rng": (),
}


@pytest.mark.parametrize("module", sorted(PACKAGE_NAMES))
def test_package_names_resolve_to_their_modules_objects(module):
    mod = importlib.import_module(f"splitinfer.{module}")
    assert getattr(splitinfer, module) is mod
    for name in (module, *PACKAGE_NAMES[module]):
        assert name in splitinfer.__all__ and name in dir(splitinfer), name
    for name in PACKAGE_NAMES[module]:
        assert getattr(splitinfer, name) is getattr(mod, name), name


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solver'"):
        splitinfer.solver
    assert not hasattr(splitinfer, "sigma_from_values")


def test_benchmark_and_golden_command_lines_parse(tmp_path, monkeypatch):
    """Every benchmark workload's command line and every golden case's (both
    pass ``--threads 1``) parse, so a flag change that breaks them fails here.
    The benchmark's workloads module is read, not changed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    argvs = [w.argv("config.json") for w in workloads.WORKLOADS.values()]
    argvs += [case_argv(command, "config.json", flags)
              for command, _, flags in golden_cases(tmp_path).values()]
    assert len(argvs) == len(workloads.WORKLOADS) + 55
    parser = make_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        assert (args.command, args.config, args.threads) == (argv[0], "config.json", 1)


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
    # a long plain list, with non-finite and non-plain elements among its ints
    ints = list(range(10_000))
    ints[3], ints[5_000], ints[9_999] = float("nan"), float("-inf"), float("inf")
    mixed = [True, None, "s", 2, 0.5, np.int64(7), np.float64("nan"), (1, float("inf"))]
    nested = [[1, 2.5, float("nan")], [[float("-inf"), 3]], []]
    cleaned, nulls = sanitize({"ints": ints, "mixed": mixed, "nested": nested})
    assert cleaned["ints"] == [None if i in (3, 5_000, 9_999) else i for i in range(10_000)]
    assert cleaned["mixed"] == [True, None, "s", 2, 0.5, 7, None, [1, None]]
    assert [type(v) for v in cleaned["mixed"][:6]] == [bool, type(None), str, int, float, int]
    assert cleaned["nested"] == [[1, 2.5, None], [[None, 3]], []]
    assert nulls == {"/ints/3": "nan", "/ints/5000": "-inf", "/ints/9999": "inf",
                     "/mixed/6": "nan", "/mixed/7/1": "inf",
                     "/nested/0/2": "nan", "/nested/1/0/0": "-inf"}


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
