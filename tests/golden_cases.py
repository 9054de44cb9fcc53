"""Golden-report corpus: small CLI runs whose reports are pinned in ``tests/golden/``.

Write (or deliberately remake) the corpus from the repository root with

    PYTHONPATH=src python tests/golden_cases.py

``tests/test_golden.py`` reruns every case and compares its report with the
stored one. Remaking the goldens changes what the test guards, so log every
remake in CHANGES.md with its reason.

Each case is one CLI run with ``--threads 1`` on small data (n <= 400,
M <= 10). A golden keeps the exit code and the whole report except
``config`` and a grid's ``results.csv_path``, which embed the run's own file
paths; a ``simulate`` case also keeps the rows of its grid CSV.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MOMENTS = ("mse", "classify_prob", "classify_binary", "covariance",
           "linreg_on_eta", "group_mse_gap", "tercile_fractions")

# (data, learner, h) per moment; "grouped" is the CSV table written below
_MOMENT_SETUP = {
    "mse": ("base", "ols", "identity"),
    "classify_prob": ("base", "logistic", "identity"),
    "classify_binary": ("base", "knn(1)", "identity"),
    "covariance": ("base", "knn(5)", "identity"),
    "linreg_on_eta": ("linear_cate", "ols", "coordinate:1"),
    "group_mse_gap": ("grouped", "ridge(1.0)", "diff:0-1"),
    "tercile_fractions": ("linear_cate", "ols", "diff:2-0"),
}

GROUPED_N = 180


def grouped_table(n: int = GROUPED_N) -> dict[str, np.ndarray]:
    """Two covariates, a two-label group column and a group-dependent noise level."""
    rng = np.random.default_rng(np.random.SeedSequence([20251107, 1]))
    x = rng.standard_normal((n, 2))
    g = (rng.random(n) < 0.4).astype(np.float64)
    y = x @ np.array([1.0, -0.5]) + (1.0 + g) * rng.standard_normal(n)
    return {"y": y, "x1": x[:, 0], "x2": x[:, 1], "g": g}


def write_grouped_csv(path: Path) -> None:
    cols = grouped_table()
    names = list(cols)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(cols[name].tolist() for name in names)):
            fh.write(",".join(map(repr, row)) + "\n")


def _data(kind: str, workdir: Path) -> dict:
    if kind == "grouped":
        return {"path": str(workdir / "grouped.csv"),
                "schema": {"outcome": "y", "covariates": ["x1", "x2"], "group": "g"}}
    n = {"base": 150, "linear_cate": 150}[kind]
    return {"synthetic": {"kind": kind, "n": n, "seed": 3}}


def _plan(K: int, n: int) -> dict:
    if K == 1:
        return {"M": 5, "K": 1, "b": n // 2, "seed": 11}
    return {"M": 4, "K": K, "seed": 11}


def cases(workdir: Path) -> dict[str, tuple[str, dict, list[str]]]:
    """name -> (subcommand, config without output, extra CLI flags)."""
    out: dict[str, tuple[str, dict, list[str]]] = {}
    for moment in MOMENTS:
        kind, learner, h = _MOMENT_SETUP[moment]
        n = GROUPED_N if kind == "grouped" else 150
        for K in (1, 3):
            for variant in (1, 2, 3):
                out[f"estimate_{moment}_v{variant}_k{K}"] = ("estimate", {
                    "data": _data(kind, workdir), "plan": _plan(K, n),
                    "learner": learner, "moment": moment, "variant": variant,
                    "h": h, "alpha": 0.1,
                }, ["--emit-plan"])
    for moment in ("mse", "covariance"):
        kind, learner, _ = _MOMENT_SETUP[moment]
        out[f"estimate_{moment}_adaptive"] = ("estimate", {
            "data": _data(kind, workdir), "plan": _plan(3, 150),
            "learner": learner, "moment": moment, "variant": 2,
            "estimate": {"grid_points": 401},
        }, ["--adaptive"])
    out["compare_baseline_mse"] = ("compare", {
        "data": _data("linear_cate", workdir), "plan": _plan(3, 150),
        "learner": "ols", "moment": "mse",
        "compare": {"baseline": "mean", "mc_draws": 2000},
    }, ["--emit-sigma"])
    out["compare_baseline_linreg"] = ("compare", {
        "data": _data("linear_cate", workdir), "plan": _plan(3, 150),
        "learner": "ols", "moment": "linreg_on_eta", "h": "coordinate:1",
        "compare": {"baseline": "ridge(50.0)", "mc_draws": 2000},
    }, ["--emit-sigma"])
    out["compare_learner_mse"] = ("compare", {
        "data": _data("linear_cate", workdir), "plan": _plan(3, 150),
        "learner": "ols", "moment": "mse",
        "compare": {"against_learner": "knn(5)", "mc_draws": 2000},
    }, [])
    out["compare_learner_linreg_k1"] = ("compare", {
        "data": _data("linear_cate", workdir), "plan": _plan(1, 150),
        "learner": "ols", "moment": "linreg_on_eta", "h": "coordinate:1",
        "compare": {"against_learner": "ridge(5.0)", "mc_draws": 2000},
    }, [])
    out["gates_het_baselines"] = ("gates", {
        "data": {"synthetic": {"kind": "linear_cate", "n": 240, "seed": 6}},
        "plan": {"M": 3, "K": 2, "seed": 2},
        "learners": ["ols", "ridge(1.0)"],
        "gates": {"J": 3, "L": 2, "het_test": True, "baselines": True, "mc_draws": 2000},
    }, [])
    out["repro_mse"] = ("repro", {
        "data": _data("base", workdir), "plan": _plan(3, 150),
        "learner": "ols", "moment": "mse",
        "repro": {"beta": 0.2, "tau": 0.1, "test_type": "two_sided"},
    }, [])
    out["repro_linreg"] = ("repro", {
        "data": _data("linear_cate", workdir), "plan": {"M": 6, "K": 2, "seed": 4},
        "learner": "ols", "moment": "linreg_on_eta", "h": "coordinate:1",
        "repro": {"beta": 0.1, "tau": 0.5, "test_type": "right"},
    }, [])
    for kind, dgp in (("gauss_linear", {"kind": "gauss_linear", "slope": 0.5}),
                      ("copula", {"kind": "copula", "base_n": 200}),
                      ("hte", {"kind": "hte", "mode": "shuffled"})):
        out[f"simulate_{kind}"] = ("simulate", {
            "plan": {"M": 3, "seed": 9}, "learner": "ols", "moment": "mse",
            "simulate": {"dgp": dgp, "n_list": [120], "K_list": [1, 3],
                         "methods": ["estimate", "compare", "gates"],
                         "iterations": 2, "oracle_rows": 1000,
                         "csv_path": str(workdir / f"simulate_{kind}.csv")},
        }, [])
    return out


def _csv_rows(path: Path) -> list[dict]:
    """The grid CSV's rows, numbers parsed so that the golden test compares
    them at its float tolerance."""
    def value(cell: str):
        for parse in (int, float):
            try:
                return parse(cell)
            except ValueError:
                pass
        return cell

    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: value(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def run_case(name: str, workdir: Path) -> dict:
    """Run one case through ``cli.run``; its report without ``config`` (and
    ``results.csv_path``), plus the exit code and a grid's CSV rows."""
    from splitinfer import cli

    command, config, flags = cases(workdir)[name]
    if not (workdir / "grouped.csv").exists():
        write_grouped_csv(workdir / "grouped.csv")
    report_path = workdir / f"{name}.report.json"
    config_path = workdir / f"{name}.config.json"
    config_path.write_text(json.dumps({"method": command, **config,
                                       "output": {"path": str(report_path)}}),
                           encoding="utf-8")
    grid_csv = Path(config["simulate"]["csv_path"]) if command == "simulate" else None
    code = cli.run([command, "--config", str(config_path), "--threads", "1", *flags])
    report = {}
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report.pop("config", None)
        report.get("results", {}).pop("csv_path", None)
    golden = {"exit_code": code, "report": report}
    if grid_csv is not None:
        golden["csv"] = _csv_rows(grid_csv)
    return golden


def main() -> int:
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in cases(workdir):
            golden = run_case(name, workdir)
            if golden["exit_code"] != 0:
                print(f"{name}: exit code {golden['exit_code']}", file=sys.stderr)
            with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
