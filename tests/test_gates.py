import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from splitinfer.data import Dataset, Roles
from splitinfer.errors import EmptyGroup, ZeroDiagonal
from splitinfer.gates import (
    CateLearner,
    GatesConfig,
    _fold_groups,
    baselines,
    ensemble_predict,
    gates_estimate,
    het_test,
    run_gates,
    ttm_aggregate,
    wls_fit,
)
from splitinfer.learners import builtin
from splitinfer.rng import substream
from splitinfer.sim import linear_cate_sample


def small_trial(n=300, seed=0, hte_coef=1.0, base_effect=1.0):
    return linear_cate_sample(n, seed=seed, hte_coef=hte_coef, base_effect=base_effect)


def config(n_learners=1, **kwargs):
    names = ["ols", "ridge(1.0)", "ols"][:n_learners]
    learners = tuple(CateLearner(builtin(name)) for name in names)
    defaults = dict(M=3, K=2, L=2, J=3)
    defaults.update(kwargs)
    return GatesConfig(learners=learners, **defaults)


def test_wls_equal_weights_matches_ols():
    rng = substream(1)
    x = np.column_stack([np.ones(50), rng.standard_normal(50)])
    y = x @ np.array([1.0, 2.0]) + rng.standard_normal(50)
    beta_w, _, _, _ = wls_fit(x, y, np.full(50, 3.0))
    beta_o, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(beta_w, beta_o, atol=1e-10)


def test_row_propensity_and_covariate_controls_enter_the_gates_design():
    # propensity varying by row is a control column of its own, and so is a
    # named covariate: gamma-hat is the WLS of y on [1, p, x2, (t - p) 1{group j}]
    n = 240
    rng = substream(21)
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    p = 0.3 + 0.4 / (1.0 + np.exp(-x1))
    t = (rng.random(n) < p).astype(np.float64)
    y = x2 + t * (1.0 + x1) + rng.standard_normal(n)
    d = Dataset({"y": y, "x1": x1, "x2": x2, "t": t, "p": p},
                Roles("y", ("x1", "x2"), treatment="t", propensity="p"))
    cfg = config(M=1, K=2, controls=("const", "propensity", "x2"))
    result, _, fit = run_gates(cfg, d, seed=2)
    group = np.empty(n, dtype=np.int64)
    for rows in fit.train_folds[0]:
        group[rows], _ = _fold_groups(fit.tau[0][rows], cfg.J)
    design = np.column_stack([np.ones(n), p, x2,
                              (t - p)[:, None] * (group[:, None] == np.arange(cfg.J))])
    beta, *_ = wls_fit(design, y, 1.0 / (p * (1.0 - p)))
    np.testing.assert_allclose(result.gamma_hat, beta[3:], rtol=1e-12, atol=0)


def test_fold_groups_balance_and_ties():
    tau = np.array([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])
    labels, cuts = _fold_groups(tau, J=3)
    # sizes 2/2/2 ordered by tau rank
    assert [np.sum(labels == j) for j in range(3)] == [2, 2, 2]
    assert set(np.flatnonzero(labels == 0)) == {1, 2}
    assert set(np.flatnonzero(labels == 2)) == {3, 5}
    assert cuts == [2.0, 4.0, 6.0]


def test_fold_groups_too_small():
    with pytest.raises(EmptyGroup):
        _fold_groups(np.array([1.0, 2.0]), J=3)


def test_group_balance_invariant():
    d = small_trial(n=200, seed=3)
    cfg = config(M=2, K=3)
    fit = ensemble_predict(cfg, d, seed=0)
    for m in range(cfg.M):
        for rows in fit.train_folds[m]:
            labels, _ = _fold_groups(fit.tau[m][rows], cfg.J)
            sizes = [np.sum(labels == j) for j in range(cfg.J)]
            assert max(sizes) - min(sizes) <= 1


def test_calibration_weight_near_one_for_good_predictor():
    # linear CATE, OLS T-learner: mean calibration weight close to 1
    betas = []
    for seed in range(12):
        d = small_trial(n=500, seed=seed, hte_coef=1.5)
        cfg = config(M=2, K=2)
        fit = ensemble_predict(cfg, d, seed=seed)
        betas.extend(float(b) for bm in fit.betas for b in bm.ravel())
    assert abs(np.mean(betas) - 1.0) < 0.1


def test_duplicated_learner_triggers_ridge_flag():
    d = small_trial(n=200, seed=5)
    cfg = config(n_learners=3, M=1, K=2)  # first and third learner identical
    fit = ensemble_predict(cfg, d, seed=1)
    assert fit.ridge_fallback
    result = gates_estimate(cfg, d, fit)
    assert result.flags.get("collinear_calibration_ridge")


def test_constant_effect_delta_near_zero():
    deltas = []
    for seed in range(10):
        d = small_trial(n=400, seed=100 + seed, hte_coef=0.0, base_effect=1.0)
        cfg = config(M=2, K=2)
        result, _, _ = run_gates(cfg, d, seed=seed)
        deltas.append(result.delta_hat)
        assert abs(np.mean(result.gamma_hat) - 1.0) < 0.5
    assert abs(np.mean(deltas)) < 0.2


def test_two_group_cate_gap_detected():
    # CATE = +/-1 by the sign of x1: top minus bottom tercile ~ 2
    rng = substream(9)
    n = 1200
    x = rng.standard_normal((n, 2))
    t = (rng.random(n) < 0.5).astype(float)
    cate = np.where(x[:, 0] > 0, 1.0, -1.0)
    y = 0.5 * x[:, 1] + t * cate + 0.5 * rng.standard_normal(n)
    d = Dataset({"x1": x[:, 0], "x2": x[:, 1], "y": y, "t": t},
                Roles("y", ("x1", "x2"), treatment="t", propensity=0.5))
    cfg = config(M=3, K=2)
    result, _, _ = run_gates(cfg, d, seed=2)
    assert result.delta_hat == pytest.approx(2.0, abs=0.35)
    assert result.p_one_sided < 0.01


def test_gamma_equals_per_group_ratio_without_controls():
    # with no controls the interacted regression separates by group exactly
    d = small_trial(n=300, seed=11)
    learners = (CateLearner(builtin("ols")),)
    cfg = GatesConfig(learners=learners, M=1, K=2, L=2, J=3, controls=())
    fit = ensemble_predict(cfg, d, seed=3)
    result = gates_estimate(cfg, d, fit)
    p = d.propensity_values()
    w = 1.0 / (p * (1.0 - p))
    tau = fit.tau[0]
    group = np.empty(d.n, dtype=np.int64)
    for rows in fit.train_folds[0]:
        labels, _ = _fold_groups(tau[rows], cfg.J)
        group[rows] = labels
    centered = d.t - p
    for j in range(cfg.J):
        mask = group == j
        ratio = np.sum(w[mask] * centered[mask] * d.y[mask]) / np.sum(
            w[mask] * centered[mask] ** 2
        )
        assert result.per_repetition[0]["gamma"][j] == pytest.approx(ratio, abs=1e-8)


def test_learner_relabeling_invariance():
    d = small_trial(n=250, seed=13)
    l1 = CateLearner(builtin("ols"), name="a")
    l2 = CateLearner(builtin("ridge(2.0)"), name="b")
    res_ab, _, _ = run_gates(GatesConfig(learners=(l1, l2), M=2, K=2), d, seed=4)
    res_ba, _, _ = run_gates(GatesConfig(learners=(l2, l1), M=2, K=2), d, seed=4)
    assert res_ab.delta_hat == pytest.approx(res_ba.delta_hat, rel=1e-9)
    assert res_ab.p_one_sided == pytest.approx(res_ba.p_one_sided, rel=1e-9)


def test_cate_learners_share_a_training_view_across_threads():
    def fresh_view():
        return small_trial(n=200, seed=21).subset(np.arange(0, 200, 2))

    jobs = [(CateLearner(builtin(name)), seed) for name in ("ols", "knn(5)") for seed in range(6)]
    x_eval = small_trial(n=200, seed=21).x
    seq = [cate.train(fresh_view(), seed).predict(x_eval) for cate, seed in jobs]
    shared = fresh_view()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            models = list(pool.map(lambda job: job[0].train(shared, job[1]), jobs))
    finally:
        sys.setswitchinterval(interval)
    for want, model in zip(seq, models):
        assert np.array_equal(model.predict(x_eval), want)


def test_het_test_smoke_and_degenerate():
    d = small_trial(n=240, seed=17, hte_coef=1.5)
    cfg = config(M=2, K=2)
    fit = ensemble_predict(cfg, d, seed=5)
    het = het_test(cfg, d, fit, mc_draws=2000, seed=6)
    assert het.msr_baseline > 0
    assert het.msr_splits.shape == (cfg.M * cfg.K,)

    # deterministic outcome: zero residual variance errors out
    n = 100
    rng = substream(23)
    x = rng.standard_normal(n)
    t = (rng.random(n) < 0.5).astype(float)
    d_const = Dataset({"x1": x, "y": np.full(n, 3.0), "t": t},
                      Roles("y", ("x1",), treatment="t", propensity=0.5))
    fit_c = ensemble_predict(config(M=1, K=2), d_const, seed=0)
    with pytest.raises(ZeroDiagonal):
        het_test(config(M=1, K=2), d_const, fit_c, mc_draws=500, seed=0)


def test_ttm_aggregation_examples():
    assert ttm_aggregate([0.01, 0.02, 0.03]) == pytest.approx(0.04)
    assert ttm_aggregate([0.6, 0.6, 0.6]) == 1.0


def test_sequential_scaling_example():
    # t-stats {1, 1} with K = 3 -> final t = sqrt(2)
    assert np.sqrt(3 - 1) * np.mean([1.0, 1.0]) == pytest.approx(np.sqrt(2))


def test_baselines_smoke():
    d = small_trial(n=240, seed=19, hte_coef=2.0)
    cfg = config(M=2, K=3)
    out = baselines(cfg, d, seed=7)
    assert 0.0 <= out["ttm_pvalue"] <= 1.0
    assert 0.0 <= out["seq_pvalue"] <= 1.0


def test_flat_predictions_warn():
    d = small_trial(n=200, seed=29, hte_coef=0.0)
    cfg = GatesConfig(learners=(CateLearner(builtin("mean")),), M=1, K=2, L=2, J=3)
    fit = ensemble_predict(cfg, d, seed=8)
    fit.tau[0] = np.zeros(d.n)  # force flat combined predictions
    with pytest.warns(UserWarning):
        gates_estimate(cfg, d, fit)
