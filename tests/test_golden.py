"""Every golden case's report matches the stored one (see golden_cases.py)."""

import json

import pytest

from golden_cases import GOLDEN_DIR, cases, compare_leaves, run_case


def diff(got, want):
    """Differences between two JSON values, one line each; empty if they match
    to the tolerances of ``golden_cases.compare_leaves``."""
    return [f"{path}: {note}" for path, verdict, note in compare_leaves(got, want)
            if verdict in ("beyond", "mismatch")]


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
