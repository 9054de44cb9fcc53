import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from splitinfer import sim
from splitinfer.data import Dataset, Roles
from splitinfer.learners import ConstantModel, builtin, train_all
from splitinfer.moments import builtin_moment
from splitinfer.rng import substream
from splitinfer.sim import (
    CopulaDGP,
    ExperimentGrid,
    copula_sample,
    empirical_inverse,
    estimand_oracle,
    hte_sample,
    linear_cate_sample,
    nearest_positive_definite,
    run_grid,
    summarize_grid,
    synthetic_base,
)
from splitinfer.zestim import solve
from test_cli import python_env


def test_nearest_pd_idempotent_and_identity_on_pd():
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    np.testing.assert_array_equal(nearest_positive_definite(good), good)
    bad = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.9], [-0.99, 0.9, 1.0]])
    repaired = nearest_positive_definite(bad)
    assert np.linalg.eigvalsh(repaired).min() > 0
    np.testing.assert_allclose(np.diag(repaired), 1.0)
    twice = nearest_positive_definite(repaired)
    np.testing.assert_allclose(twice, repaired, atol=1e-12)


def test_empirical_inverse_type1():
    base = np.array([10.0, 20.0, 30.0])
    u = np.array([0.0, 0.33, 0.34, 0.66, 0.67, 1.0])
    np.testing.assert_array_equal(
        empirical_inverse(base, u), [10.0, 10.0, 20.0, 20.0, 30.0, 30.0]
    )


def test_copula_identity_correlation_independent_columns():
    rng = substream(5)
    base2 = Dataset({"y": rng.standard_normal(400), "x1": rng.standard_normal(400)},
                    Roles("y", ("x1",)))
    dgp = CopulaDGP(base2, mode="asis", sigma=np.eye(2))
    sample = copula_sample(dgp, 10_000, seed=2)
    rho = stats.spearmanr(sample.y, sample.column("x1")).statistic
    assert abs(rho) < 0.05


def test_copula_preserves_margins():
    base = synthetic_base(n=300, seed=3)
    sample = copula_sample(CopulaDGP(base, mode="asis"), 10_000, seed=4)
    for name in ("x1", "x2", "x3"):
        ks = stats.ks_2samp(sample.column(name), base.column(name)).statistic
        assert ks < 0.02


def test_copula_uncorrelated_outcome_rate():
    base = synthetic_base(n=300, seed=5)
    sample = copula_sample(CopulaDGP(base, mode="uncorrelated", outcome_p=0.07),
                           10_000, seed=6)
    assert abs(sample.y.mean() - 0.07) < 0.01
    assert set(np.unique(sample.y)) <= {0.0, 1.0}


def test_copula_correlated_mode_boosts_outcome_dependence():
    base = synthetic_base(n=400, seed=7)
    plain = copula_sample(CopulaDGP(base, mode="asis"), 8000, seed=8)
    boosted = copula_sample(CopulaDGP(base, mode="correlated"), 8000, seed=8)

    def max_abs_corr(ds):
        return max(abs(stats.spearmanr(ds.y, ds.column(c)).statistic)
                   for c in ("x1", "x4", "x6"))

    assert max_abs_corr(boosted) > max_abs_corr(plain)


def test_hte_shuffled_breaks_covariate_link():
    d = hte_sample(10_000, seed=9, mode="shuffled")
    te = d.column("_true_te")
    r = np.corrcoef(d.t, te)[0, 1]
    assert abs(r) < 0.03


def test_hte_outcome_consistency():
    d = hte_sample(5000, seed=10)
    y0 = d.column("_y0")
    y1 = d.column("_y1")
    np.testing.assert_array_equal(d.y, np.where(d.t == 1.0, y1, y0))
    assert np.all(y1 >= y0)  # effects are nonnegative by construction


def test_hte_strong_design_has_predictable_gap():
    # oracle tercile gap of the conditional effect is positive
    d = hte_sample(200_000, seed=11)
    te = d.column("_true_te")
    score = d.x @ np.ones(d.x.shape[1])
    cuts = np.quantile(score, [1 / 3, 2 / 3])
    top = te[score > cuts[1]].mean()
    bottom = te[score <= cuts[0]].mean()
    assert top - bottom > 0.1


def test_linear_cate_sample_roles():
    d = linear_cate_sample(500, seed=12)
    assert d.roles.treatment == "t"
    assert d.roles.propensity == 0.5
    assert set(np.unique(d.t)) == {0.0, 1.0}


def test_estimand_oracle_average_type():
    d = linear_cate_sample(100, seed=13)
    models = {(m, k): ConstantModel(float(m + k)) for m in range(2) for k in range(2)}
    fresh = linear_cate_sample(1000, seed=14)
    mf = builtin_moment("mse")
    oracle = estimand_oracle(mf, models, fresh)
    expected = np.mean(
        [np.mean((fresh.y - c) ** 2) for c in (0.0, 1.0, 1.0, 2.0)]
    )
    np.testing.assert_allclose(oracle, [expected])
    del d


def test_run_grid_smoke_rows_and_determinism(tmp_path):
    grid = ExperimentGrid(
        dgp={"kind": "gauss_linear"},
        n_list=(60,), K_list=(2, 3), M=2, methods=("estimate",),
        iterations=5, seed=77,
        out_csv=str(tmp_path / "grid.csv"),
        learner="ols", moment="mse", oracle_rows=2000,
    )
    rows = run_grid(grid)
    assert len(rows) == 2 * 5
    assert all(not r["error"] for r in rows)
    with open(grid.out_csv) as fh:
        text_a = fh.read()

    grid_b = ExperimentGrid(**{**grid.__dict__, "out_csv": str(tmp_path / "grid_b.csv")})
    run_grid(grid_b)
    with open(grid_b.out_csv) as fh:
        text_b = fh.read()
    assert text_a == text_b

    summary = summarize_grid(rows)
    assert len(summary) == 2
    for cell in summary.values():
        assert cell["failures"] == 0
        assert cell["coverage"] is not None


def test_run_grid_records_failures(tmp_path, monkeypatch):
    grid = ExperimentGrid(
        dgp={"kind": "gauss_linear"}, n_list=(30,), K_list=(2,), M=1,
        methods=("boom",), iterations=2, seed=1,
        out_csv=str(tmp_path / "grid.csv"),
    )

    def boom(grid, n, K, cell_index, iteration):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(sim.METHOD_RUNNERS, "boom", boom)
    rows = run_grid(grid)
    assert len(rows) == 2
    assert all("synthetic failure" in r["error"] for r in rows)


LAYERING_SCRIPT = """
import sys
from splitinfer.sim import ExperimentGrid, run_grid
grid = ExperimentGrid(dgp={"kind": "gauss_linear"}, n_list=(40,), K_list=(2,), M=1,
                      methods=("estimate", "compare"), iterations=1, seed=3,
                      out_csv=sys.argv[1], oracle_rows=200)
rows = run_grid(grid)
assert [row["error"] for row in rows] == ["", ""], rows
print("splitinfer.cli" in sys.modules)
"""


def test_run_grid_does_not_import_the_cli(tmp_path):
    """The grid's method runners live in ``sim``; running a grid needs no CLI."""
    proc = subprocess.run([sys.executable, "-c", LAYERING_SCRIPT, str(tmp_path / "grid.csv")],
                          capture_output=True, text=True, env=python_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
