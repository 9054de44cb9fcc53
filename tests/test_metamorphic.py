"""Metamorphic relations: how the reported numbers must move when the input
moves, checked without a stored reference, so they hold on both sides of any
golden remake.

Scaling the outcome by 4, a power of two, scales every sum and product of
outcomes exactly, so the relations below hold bit for bit: each learner's
predictions scale by 4, the MSE, the covariance and their standard errors
by 16, the tercile group means and thresholds by 4, and a test statistic
that divides by a standard error does not move. GATES's
estimates scale by 4 and its p-values do not move; its het test's
statistic and critical value move in the last bits (see its test).
Scaling the covariates by 4 leaves the neighbours of kNN and the splits of a
tree where they were. Flipping a treatment assigned with probability 1/2
negates every predicted effect, so GATES's groups come in reverse order.
Permuting the rows together with the plan's fold labels gives every split
the same observations in another order, so each number moves only by the
round-off of summing in that order.
"""

import dataclasses

import numpy as np
import pytest

from splitinfer.compare import compare_models, compare_two_learners
from splitinfer.data import Dataset
from splitinfer.evaluation import cross_fit
from splitinfer.gates import CateLearner, GatesConfig, baselines, run_gates
from splitinfer.inference import named_reduction, normal_ci
from splitinfer.learners import builtin
from splitinfer.moments import builtin_moment
from splitinfer.rng import substream
from splitinfer.sim import hte_sample, linear_cate_sample, synthetic_base
from splitinfer.splits import generate_plan
from splitinfer.zestim import solve

N = 300
LEARNERS = ["ols", "ridge(1.0)", "knn(5)", "tree(3)"]
PLANS = {"K3": dict(M=10, K=3), "K1": dict(M=10, K=1, b=N // 2)}


def with_columns(d: Dataset, change, names) -> Dataset:
    """``d`` with ``change`` applied to each column in ``names``."""
    columns = {name: d.column(name) for name in d.column_names}
    columns.update({name: change(columns[name]) for name in names})
    return Dataset(columns, d.roles)


def scaled_outcome(d: Dataset, factor: float) -> Dataset:
    return with_columns(d, lambda v: factor * v, [d.roles.outcome])


def both_scales():
    d = linear_cate_sample(N, seed=21)
    return d, scaled_outcome(d, 4.0)


@pytest.mark.parametrize("plan_kind", sorted(PLANS))
@pytest.mark.parametrize("learner", LEARNERS)
def test_outcome_times_four_scales_the_mse_estimate_by_sixteen(learner, plan_kind):
    mf = builtin_moment("mse")
    plan = generate_plan(N, seed=4, **PLANS[plan_kind])
    reports = []
    for d in both_scales():
        ev = cross_fit(plan, d, builtin(learner), seed=5)
        reports.append(normal_ci(ev, solve(2, mf, ev)))
    base, scaled = reports
    np.testing.assert_array_equal(scaled.theta_hat, 16.0 * base.theta_hat)
    assert scaled.se == 16.0 * base.se
    assert scaled.ci == (16.0 * base.ci[0], 16.0 * base.ci[1])


def both_normal_cis(moment, reduction, learner, plan_kind, variant):
    """``normal_ci`` of one variant's estimate, on the data and with its outcome x 4."""
    mf = builtin_moment(moment)
    h = named_reduction(reduction, mf.dim)
    plan = generate_plan(N, seed=4, **PLANS[plan_kind])
    reports = []
    for d in both_scales():
        ev = cross_fit(plan, d, builtin(learner), seed=5)
        reports.append(normal_ci(ev, solve(variant, mf, ev), h))
    return reports


@pytest.mark.parametrize("variant", [1, 2, 3])
@pytest.mark.parametrize("plan_kind", sorted(PLANS))
@pytest.mark.parametrize("learner", ["ols", "knn(5)"])
@pytest.mark.parametrize("moment, reduction, factor", [("covariance", "identity", 16.0),
                                                       ("tercile_fractions", "diff:2-0", 4.0)])
def test_outcome_times_four_scales_every_variants_estimate(moment, reduction, factor, learner,
                                                           plan_kind, variant):
    """The covariance scales by 16; the tercile group means and thresholds,
    and so the gap of the top and bottom group means, by 4."""
    base, scaled = both_normal_cis(moment, reduction, learner, plan_kind, variant)
    np.testing.assert_array_equal(scaled.theta_hat, factor * base.theta_hat)
    assert scaled.se == factor * base.se


@pytest.mark.parametrize("variant", [1, 2, 3])
@pytest.mark.parametrize("plan_kind", sorted(PLANS))
@pytest.mark.parametrize("learner", ["ols", "knn(5)"])
def test_outcome_times_four_scales_the_linreg_intercept_and_keeps_its_slope(learner, plan_kind,
                                                                            variant):
    # not bitwise: the intercept x 4 moved by up to 1.43e-14 relative, the
    # slope and the SE by 2.3e-16 (knn(5) and ols, all three variants); the
    # cause is not located (ROADMAP item 15 lists the candidates)
    base, scaled = both_normal_cis("linreg_on_eta", "coordinate:1", learner, plan_kind, variant)
    np.testing.assert_allclose(scaled.theta_hat, [4.0, 1.0] * base.theta_hat, rtol=1e-12, atol=0)
    assert scaled.se == pytest.approx(base.se, rel=1e-12, abs=0)


@pytest.mark.parametrize("plan_kind", sorted(PLANS))
@pytest.mark.parametrize("learner", LEARNERS)
def test_outcome_times_four_leaves_the_comparison_test_unchanged(learner, plan_kind):
    mf = builtin_moment("mse")
    plan = generate_plan(N, seed=4, **PLANS[plan_kind])
    results = []
    for d in both_scales():
        ev = cross_fit(plan, d, builtin(learner), seed=5)
        results.append(compare_models(mf, ev, builtin("mean").train(d), mc_draws=2_000, seed=6))
    base, scaled = results
    assert scaled.point == 16.0 * base.point
    assert scaled.test.statistic == base.test.statistic
    assert scaled.test.critical_value == base.test.critical_value


@pytest.mark.parametrize("plan", [dict(M=5, K=3), dict(M=5, K=1, b=N // 2)], ids=["K3", "K1"])
@pytest.mark.parametrize("learner", LEARNERS)
def test_a_learner_compared_with_itself_gives_equal_directions(learner, plan):
    """Both directions fit the same learner on the same splits, so each is the
    other's mirror; at K = 1 this also covers the rows no split evaluates."""
    d = linear_cate_sample(N, seed=21)
    plan = generate_plan(N, seed=4, **plan)
    evaluated = np.zeros(N, dtype=bool)
    for rows in plan.eval_sets():
        evaluated[rows] = True
    assert evaluated.all() == (plan.K > 1)
    res = compare_two_learners(builtin_moment("mse"), plan, d, builtin(learner),
                               builtin(learner), seed=7, mc_draws=500)
    np.testing.assert_array_equal(res.theta_a, res.theta_b)
    np.testing.assert_array_equal(res.delta_ab.deltas, res.delta_ba.deltas)


def test_outcome_times_four_scales_gates_and_leaves_its_p_values_unchanged():
    d = hte_sample(400, seed=3, mode="predictable")
    cfg = GatesConfig(learners=tuple(CateLearner(builtin(name)) for name in ("ols", "ridge(1.0)")),
                      M=5, K=3)
    runs = []
    for data in (d, scaled_outcome(d, 4.0)):
        result, het = run_gates(cfg, data, seed=7, run_het=True, mc_draws=2_000)
        runs.append((result, het, baselines(cfg, data, seed=9)))
    (base, het, pvalues), (scaled, het_scaled, pvalues_scaled) = runs
    assert scaled.delta_hat == 4.0 * base.delta_hat
    assert scaled.delta_se == 4.0 * base.delta_se
    assert (scaled.p_one_sided, scaled.p_two_sided) == (base.p_one_sided, base.p_two_sided)
    assert pvalues_scaled == pvalues
    # the het test is not bitwise: its statistic and critical value moved by
    # 1.6e-14 and 1.2e-14 relative, and the split MSRs are not exactly x 16;
    # the cause is not located (ROADMAP item 15)
    np.testing.assert_allclose(het_scaled.msr_splits, 16.0 * het.msr_splits, rtol=1e-12, atol=0)
    assert het_scaled.msr_baseline == pytest.approx(16.0 * het.msr_baseline, rel=1e-12, abs=0)
    assert het_scaled.test.statistic == pytest.approx(het.test.statistic, rel=1e-12, abs=0)
    assert het_scaled.test.critical_value == pytest.approx(het.test.critical_value, rel=1e-12,
                                                           abs=0)


@pytest.mark.parametrize("learner", ["knn(10)", "knn(1)", "tree(3)"])
def test_covariates_times_four_leave_knn_and_tree_predictions_unchanged(learner):
    """Every squared distance scales by 16 and every split point by 4, exactly,
    so each neighbour set, tie order and tree split stays; synthetic_base's
    discrete columns put ties in both. ols (2.9e-15 relative here) and ridge
    (its penalty does not scale, 1.1e-2) move and are left out."""
    d = synthetic_base(N, 0)
    plan = generate_plan(N, seed=4, **PLANS["K3"])
    etas = [cross_fit(plan, data, builtin(learner), seed=5).etas
            for data in (d, with_columns(d, lambda v: 4.0 * v, d.roles.covariates))]
    np.testing.assert_array_equal(etas[1], etas[0])


def test_flipping_a_fair_treatment_reverses_and_negates_gamma_and_keeps_delta():
    """At propensity 1/2, t -> 1 - t negates t - p and swaps the T-learner's
    arms, so every predicted effect is negated exactly and the groups come in
    reverse order: gamma_hat reverses and negates, and delta = gamma_J -
    gamma_1 keeps its value (it is not negated) and its SE. Not bitwise: the
    regressions take their columns in the other order, so delta_hat and
    gamma_hat moved by 1.1e-15 relative and three of the five repetitions'
    SEs in their last bits."""
    d = hte_sample(400, seed=3, mode="predictable")
    cfg = GatesConfig(learners=tuple(CateLearner(builtin(name)) for name in ("ols", "ridge(1.0)")),
                      M=5, K=3)
    base, _ = run_gates(cfg, d, seed=7)
    flipped, _ = run_gates(cfg, with_columns(d, lambda t: 1.0 - t, [d.roles.treatment]), seed=7)
    np.testing.assert_allclose(flipped.gamma_hat, -base.gamma_hat[::-1], rtol=1e-12, atol=0)
    assert flipped.delta_hat == pytest.approx(base.delta_hat, rel=1e-12, abs=0)
    assert flipped.delta_se == pytest.approx(base.delta_se, rel=1e-12, abs=0)


def leaves(report, path=""):
    """(path, value) for each scalar of a JSON-like report, in order."""
    if isinstance(report, dict):
        for key, value in report.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(report, (list, tuple)):
        for i, value in enumerate(report):
            yield from leaves(value, f"{path}/{i}")
    else:
        yield path, report


@pytest.mark.parametrize("plan_kind", sorted(PLANS))
@pytest.mark.parametrize("learner", ["ols", "knn(10)"])
def test_permuting_rows_with_the_plans_labels_moves_no_number_beyond_round_off(learner,
                                                                                plan_kind):
    """Each estimate leaf of the three variants and the normal CI, and the
    comparison's point, T and CIs, stay within 1e-12 relative; the covariates
    are continuous, so no kNN distance ties. The residual norm is the solve's
    own round-off (about 1e-16 on either side) and has no relative relation:
    it stays below 1e-12. The Monte-Carlo critical value is left out: the
    Cholesky factor amplifies the round-off, and at K = 3 with ols it moved by
    3.7e-12 relative (ROADMAP item 3)."""
    d = linear_cate_sample(N, seed=21)
    plan = generate_plan(N, seed=4, **PLANS[plan_kind])
    perm = substream(8).permutation(N)
    permuted = (with_columns(d, lambda v: v[perm], d.column_names),
                dataclasses.replace(plan, folds=plan.folds[:, perm]))
    mf = builtin_moment("mse")
    reports, comparisons = [], []
    for data, split_plan in ((d, plan), permuted):
        ev = cross_fit(split_plan, data, builtin(learner), seed=5)
        ests = [solve(variant, mf, ev) for variant in (1, 2, 3)]
        reports.append([*(est.to_jsonable() for est in ests), normal_ci(ev, ests[1]).to_jsonable()])
        comparisons.append(compare_models(mf, ev, builtin("mean").train(data), mc_draws=2_000,
                                          seed=6))
    for (path, base), (permuted_path, value) in zip(*map(leaves, reports), strict=True):
        assert path == permuted_path
        if path.endswith("residual_norm"):
            assert max(base, value) < 1e-12, path
        elif isinstance(base, float):
            assert value == pytest.approx(base, rel=1e-12, abs=0), path
        else:
            assert value == base, path
    base, permuted_cmp = comparisons
    for field in ("point", "ci_normal", "ci_final"):
        assert getattr(permuted_cmp, field) == pytest.approx(getattr(base, field), rel=1e-12,
                                                             abs=0), field
    assert permuted_cmp.test.statistic == pytest.approx(base.test.statistic, rel=1e-12, abs=0)
