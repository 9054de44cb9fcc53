import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from splitinfer import sim
from splitinfer.data import Dataset, Roles, complement
from splitinfer.learners import ConstantModel, builtin
from splitinfer.moments import builtin_moment
from splitinfer.rng import derived_seed, substream
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
from splitinfer.splits import generate_plan
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


def oracle_tercile_gap(d):
    """Mean effect in the top minus the bottom tercile of the covariate sum."""
    te = d.column("_true_te")
    score = d.x @ np.ones(d.x.shape[1])
    cuts = np.quantile(score, [1 / 3, 2 / 3])
    return te[score > cuts[1]].mean() - te[score <= cuts[0]].mean()


def test_hte_shuffled_breaks_covariate_link():
    # the same draw as the predictable design below, whose gap is about 1.9;
    # shuffled keeps the treatment draw and the unit effects, reordered
    assert abs(oracle_tercile_gap(hte_sample(200_000, seed=11, mode="shuffled"))) < 0.1
    shuffled, predictable = (hte_sample(5000, seed=10, mode=m) for m in ("shuffled", "predictable"))
    np.testing.assert_array_equal(shuffled.t, predictable.t)
    np.testing.assert_array_equal(np.sort(shuffled.column("_true_te")),
                                  np.sort(predictable.column("_true_te")))


def test_hte_outcome_consistency():
    d = hte_sample(5000, seed=10)
    y0 = d.column("_y0")
    y1 = d.column("_y1")
    np.testing.assert_array_equal(d.y, np.where(d.t == 1.0, y1, y0))
    assert np.all(y1 >= y0)  # effects are nonnegative by construction


def test_hte_strong_design_has_predictable_gap():
    # oracle tercile gap of the conditional effect is positive
    d = hte_sample(200_000, seed=11)
    assert oracle_tercile_gap(d) > 0.1


# the options each generator kind reads; any other is refused
KIND_READS = {"base": set(), "linear_cate": set(), "gauss_linear": {"slope", "noise"},
              "copula": {"mode", "outcome_p", "base_n", "base_seed"}, "hte": {"mode"}}
OPTION_VALUES = {"slope": 2.0, "noise": 0.5, "mode": "shuffled", "outcome_p": 0.2, "base_n": 50,
                 "base_seed": 3, "n": 40, "seed": 1}


@pytest.mark.parametrize("kind, option", [(kind, option) for kind, reads in KIND_READS.items()
                                          for option in OPTION_VALUES if option not in reads])
def test_dgp_sampler_refuses_an_option_the_kind_does_not_read(kind, option):
    with pytest.raises(ValueError, match=f"the '{kind}' generator reads no option '{option}'"):
        sim.dgp_sampler({"kind": kind, option: OPTION_VALUES[option]})


@pytest.mark.parametrize("kind, mode", [("copula", "shuffled"), ("copula", "uncorrelatd"),
                                        ("copula", 3), ("hte", "asis"), ("hte", "shufled")])
def test_dgp_sampler_refuses_a_mode_the_kind_does_not_have(kind, mode):
    with pytest.raises(ValueError, match=f"the '{kind}' generator has no mode {mode!r}"):
        sim.dgp_sampler({"kind": kind, "mode": mode})


def test_dgp_sampler_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown DGP kind 'weird'"):
        sim.dgp_sampler({"kind": "weird"})


def test_generators_check_their_mode():
    with pytest.raises(ValueError, match="the 'hte' generator has no mode 'shufled'"):
        hte_sample(10, 0, mode="shufled")
    with pytest.raises(ValueError, match="the 'copula' generator has no mode 'uncorrelatd'"):
        CopulaDGP(synthetic_base(50, 0), mode="uncorrelatd")


def test_linear_cate_sample_roles():
    d = linear_cate_sample(500, seed=12)
    assert d.roles.treatment == "t"
    assert d.roles.propensity == 0.5
    assert set(np.unique(d.t)) == {0.0, 1.0}


def oracle(mf, models, fresh):
    """``estimand_oracle`` on ``models``, each visited once in order."""
    visit, theta = estimand_oracle(mf, fresh)
    for k, model in enumerate(models):
        visit(model, 0, k)
    return theta()


def test_estimand_oracle_average_type():
    d = linear_cate_sample(100, seed=13)
    models = [ConstantModel(float(m + k)) for m in range(2) for k in range(2)]
    fresh = linear_cate_sample(1000, seed=14)
    mf = builtin_moment("mse")
    theta = oracle(mf, models, fresh)
    expected = np.mean(
        [np.mean((fresh.y - c) ** 2) for c in (0.0, 1.0, 1.0, 2.0)]
    )
    np.testing.assert_allclose(theta, [expected])
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


def test_run_grid_tercile_oracle_solves(tmp_path):
    # the oracle solves the tercile system in closed form, as the estimator
    # does, so no K leaves it to a Newton iteration that can stall
    grid = ExperimentGrid(
        dgp={"kind": "linear_cate"}, n_list=(300,), K_list=(1, 3), M=5,
        methods=("estimate",), iterations=2, seed=1,
        out_csv=str(tmp_path / "grid.csv"), moment="tercile_fractions", oracle_rows=5000,
    )
    rows = run_grid(grid)
    assert [(row["K"], row["error"]) for row in rows] == [(1, ""), (1, ""), (3, ""), (3, "")]
    assert all(row["covered"] in (0, 1) for row in rows)


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


def test_summary_rates_are_null_where_no_row_records_them():
    def row(method, it, **values):
        return {**dict.fromkeys(sim.GRID_COLUMNS, ""), "cell_id": method, "iteration": it,
                "method": method, "n": 40, "K": 2, "M": 1, **values}

    rows = [row("estimate", 0, estimate=1.0, covered=1),
            row("estimate", 1, estimate=3.0, covered=0),
            row("compare", 0, estimate=0.5, reject=1),
            row("compare", 1, error="Boom: failed"),
            row("gates", 0, estimate=2.0, p_value=0.25)]
    summary = summarize_grid(rows)
    assert {cell: [summary[cell][key] for key in ("mean_estimate", "coverage", "mean_p",
                                                  "reject_rate", "failures")]
            for cell in summary} == {"estimate": [2.0, 0.5, None, None, 0],
                                     "compare": [0.5, None, None, 1.0, 1],
                                     "gates": [2.0, None, 0.25, None, 0]}


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


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("moment", ["mse", "linreg_on_eta", "tercile_fractions"])
def test_grid_oracle_is_the_oracle_of_the_split_models(monkeypatch, moment, K):
    """An estimate row's oracle is ``estimand_oracle`` of its split models,
    retrained here with their derived seeds, bitwise."""
    grid = ExperimentGrid(dgp={"kind": "linear_cate"}, n_list=(90,), K_list=(K,), M=3,
                          methods=("estimate",), iterations=1, seed=6, out_csv="unused.csv",
                          moment=moment, oracle_rows=500)
    got, real = [], sim.estimand_oracle

    def recording(*args):
        visit, theta = real(*args)
        return visit, lambda: got.append(theta()) or got[-1]

    monkeypatch.setattr(sim, "estimand_oracle", recording)
    sim._grid_estimate(grid, 90, K, 0, 0)
    seed = derived_seed(grid.seed, 0, 0)
    sampler = sim.dgp_sampler(grid.dgp)
    d = sampler(90, derived_seed(seed, 0))
    plan = generate_plan(90, grid.M, K, b=45 if K == 1 else None, seed=derived_seed(seed, 1))
    models = [builtin(grid.learner).train(d.subset(complement(rows, 90)),
                                          derived_seed(derived_seed(seed, 2), m, k))
              for m, rep in enumerate(plan.repetitions) for k, rows in enumerate(rep)]
    fresh = sampler(grid.oracle_rows, derived_seed(seed, 3))
    np.testing.assert_array_equal(got, [oracle(builtin_moment(moment), models, fresh)])
