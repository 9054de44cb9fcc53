"""Every golden case's report matches the stored one (see golden_cases.py)."""

import json
import math

import pytest

from golden_cases import GOLDEN_DIR, cases, run_case

RTOL = 1e-12
# round-off-level values, such as a solver's residual_norm (~1e-17), carry no
# relative precision: any change of summation order moves them by 100%.
# The Monte-Carlo critical values are the most fragile fields: a Cholesky of
# the PSD-projected Sigma amplifies Sigma's round-off, and regrouping Sigma's
# sums has moved a critical value by 4e-12 and by 8e-12 relative. They hold to
# RTOL only while a change keeps Sigma's arithmetic.
ATOL = 1e-12


def diff(got, want, path=""):
    """Differences between two JSON values, one line each; empty if they match."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}/{k}: missing" for k in sorted(want.keys() - got.keys())]
        out += [f"{path}/{k}: unexpected" for k in sorted(got.keys() - want.keys())]
        for k in sorted(want.keys() & got.keys()):
            out += diff(got[k], want[k], f"{path}/{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [line for i, (g, w) in enumerate(zip(got, want))
                for line in diff(g, w, f"{path}/{i}")]
    # an integral float is written without a fraction and reads back as an int
    if (isinstance(got, float) or isinstance(want, float)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want)):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {got!r} != {want!r} (rel {abs(got - want) / max(abs(got), abs(want)):.3g})"]
    if type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(cases(GOLDEN_DIR)))
def test_report_matches_golden(name, workdir):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        want = json.load(fh)
    got = run_case(name, workdir)
    assert diff(got, want) == []


def test_corpus_has_no_stray_files():
    assert {p.stem for p in GOLDEN_DIR.glob("*.json")} == set(cases(GOLDEN_DIR))


def test_diff_tolerances():
    assert diff({"a": 1.0}, {"a": 1.0 + 1e-13}) == []
    assert diff({"a": 1.0}, {"a": 1.0 + 1e-11}) != []
    assert diff({"residual_norm": 3e-17}, {"residual_norm": 1e-16}) == []
    assert diff({"reject": True}, {"reject": 1}) != []
    assert diff({"M": 3}, {"M": 3.0}) == []
    assert diff([1, 2], [1, 2, 3]) != []
    assert diff({"c": 2.0 + 8e-12}, {"c": 2.0}) == ["/c: 2.000000000008 != 2.0 (rel 4e-12)"]
