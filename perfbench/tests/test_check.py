import copy
import json
from pathlib import Path

import check

BENCH_DIR = Path(__file__).resolve().parent.parent
SCHEMA_PATH = BENCH_DIR.parent / "src" / "splitinfer" / "schemas" / "report.schema.json"


def _report(results, plan=None):
    report = {"schema_version": "1.0.0", "method": "compare", "config": {"output": {}},
              "master_seed": 0, "results": results}
    if plan is not None:
        report["plan"] = plan
    return report


RESULTS = {
    "T": 1088605.1559886476, "critical_value": 727.2771266818581, "reject": True,
    "n": 20000, "mc_draws": 100000, "point": -0.75, "ci_final": [-0.8, 0.0],
    "flags": {"sigma_psd_projected": True}, "deltas": [0.1, -0.2],
}
PLAN = {"n": 6, "M": 1, "K": 3, "b": 2, "seed": 0, "repetitions": [[[0, 3], [1, 4], [2, 5]]]}


def _schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _check(results, plan=PLAN):
    reference = check.reference_entry(_report(RESULTS, PLAN))
    return check.check_report(_report(results, plan), _schema(), reference)


def test_identical_report_passes():
    assert _check(copy.deepcopy(RESULTS)) == []


def test_accepts_blas_drift_of_the_measured_size():
    # the largest drift seen between 1 and 2 BLAS threads, on two fields at once
    got = copy.deepcopy(RESULTS)
    got["critical_value"] *= 1 + 6.4e-8
    got["T"] *= 1 - 8e-16
    assert _check(got) == []


def test_accepts_round_off_level_values_that_differ():
    # a solver's residual norm is pure round-off: it moved from 3.5e-19 to
    # 7e-17 when the k-NN predictions were scaled by 1 + 1e-6, a defect that
    # the other fields of the report show
    want = {**RESULTS, "residual_norm": 3.4694469519536144e-19}
    got = {**RESULTS, "residual_norm": 7.002500431359711e-17}
    assert check.diff(got, want) == []


def test_rejects_a_perturbed_float():
    got = copy.deepcopy(RESULTS)
    got["deltas"][1] *= 1 + 1e-6
    problems = _check(got)
    assert len(problems) == 1 and problems[0].startswith("/results/deltas/1: ")


def test_rejects_flags_integers_and_shape_exactly():
    for key, value in (("reject", False), ("n", 20001), ("flags", {}), ("deltas", [0.1])):
        got = copy.deepcopy(RESULTS)
        got[key] = value
        assert len(_check(got)) == 1, key


def test_integral_float_read_back_as_int_compares_as_float():
    # the report writes 0.0 as "0", which JSON reads back as an int
    got = copy.deepcopy(RESULTS)
    got["ci_final"][1] = 0
    assert _check(got) == []
    got["ci_final"][1] = 1e-9
    assert len(_check(got)) == 1


def test_rejects_missing_and_unexpected_keys():
    got = copy.deepcopy(RESULTS)
    got["extra"] = 1
    del got["point"]
    assert _check(got) == ["/results/point: missing", "/results/extra: unexpected"]


def test_rejects_a_different_plan():
    plan = copy.deepcopy(PLAN)
    plan["repetitions"][0][0] = [0, 4]
    assert _check(copy.deepcopy(RESULTS), plan) == ["plan: differs from the reference plan"]


def test_schema_violation_is_reported_without_reference():
    report = _report(RESULTS)
    report["surprise"] = True
    problems = check.check_report(report, _schema(), None)
    assert len(problems) == 1 and problems[0].startswith("schema:")


def test_stored_references_hold_results_and_plans():
    for path in sorted((BENCH_DIR / "refs").glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
        assert refs["seeds"], path
        for entry in refs["seeds"].values():
            assert "results" in entry
            assert ("plan_sha256" in entry) == (path.stem == "estimate_knn")
