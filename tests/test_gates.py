import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from splitinfer import evaluation, gates
from splitinfer.data import Dataset, Roles, complement
from splitinfer.errors import EmptyGroup, IncompatibleRoles, LearnerFailure, ZeroDiagonal
from splitinfer.gates import (
    CateLearner,
    GatesConfig,
    _design,
    _fold_groups,
    _group_bounds,
    _group_regression,
    baselines,
    repetition,
    run_gates,
    ttm_aggregate,
    wls_fit,
)
from splitinfer.inference import norm_cdf
from splitinfer.learners import FixedFunctionModel, Learner, builtin
from splitinfer.rng import derived_seed, substream
from splitinfer.sim import linear_cate_sample
from splitinfer.splits import eval_rows, generate_plan


def small_trial(n=300, seed=0, hte_coef=1.0, base_effect=1.0):
    return linear_cate_sample(n, seed=seed, hte_coef=hte_coef, base_effect=base_effect)


def config(n_learners=1, **kwargs):
    names = ["ols", "ridge(1.0)", "ols"][:n_learners]
    learners = tuple(CateLearner(builtin(name)) for name in names)
    defaults = dict(M=3, K=2, L=2, J=3)
    defaults.update(kwargs)
    return GatesConfig(learners=learners, **defaults)


def groups(rep, cfg):
    """A repetition's group per row: J rank-balanced groups within each fold."""
    group = np.empty(rep.tau.size, dtype=np.int64)
    for k in range(cfg.K):
        rows = eval_rows(rep.folds, k)
        group[rows], _ = _fold_groups(rep.tau[rows], cfg.J)
    return group


def test_wls_equal_weights_matches_ols():
    rng = substream(1)
    x = np.column_stack([np.ones(50), rng.standard_normal(50)])
    y = x @ np.array([1.0, 2.0]) + rng.standard_normal(50)
    beta_w, _, _, _ = wls_fit(x, y, np.full(50, 3.0))
    beta_o, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(beta_w, beta_o, atol=1e-10)


@pytest.mark.parametrize("collinear", [False, True], ids=["full_rank", "ridge"])
def test_wls_without_the_covariance_keeps_beta_residuals_and_ridge_flag(collinear):
    rng = substream(2)
    x = np.column_stack([np.ones(60), rng.standard_normal((60, 2))])
    if collinear:
        x = np.column_stack([x, 2.0 * x[:, 1]])
    y = x[:, 1] + rng.standard_normal(60)
    w = 1.0 / rng.uniform(0.1, 0.25, 60)
    beta, cov, resid, ridge = wls_fit(x, y, w)
    beta_b, cov_b, resid_b, ridge_b = wls_fit(x, y, w, hc0=False)
    assert ridge == ridge_b == collinear
    assert cov.shape == (x.shape[1],) * 2 and cov_b is None
    assert np.array_equal(beta_b, beta) and np.array_equal(resid_b, resid)


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
    result, _ = run_gates(cfg, d, seed=2)
    group = groups(repetition(cfg, d, 2, 0), cfg)
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


def test_cached_group_bounds_equal_linspace():
    for size in range(2, 2001):
        for J in range(2, min(10, size) + 1):
            want = np.linspace(0, size, J + 1).round().astype(int)
            assert np.array_equal(_group_bounds(size, J), want), (size, J)


def test_fold_groups_too_small():
    with pytest.raises(EmptyGroup):
        _fold_groups(np.array([1.0, 2.0]), J=3)


def test_group_balance_invariant():
    d = small_trial(n=200, seed=3)
    cfg = config(M=2, K=3)
    for m in range(cfg.M):
        rep = repetition(cfg, d, 0, m)
        group = groups(rep, cfg)
        for k in range(cfg.K):
            sizes = np.bincount(group[rep.folds == k], minlength=cfg.J)
            assert max(sizes) - min(sizes) <= 1


def test_calibration_weight_near_one_for_good_predictor():
    # linear CATE, OLS T-learner: mean calibration weight close to 1
    betas = []
    for seed in range(12):
        d = small_trial(n=500, seed=seed, hte_coef=1.5)
        cfg = config(M=2, K=2)
        betas.extend(float(b) for m in range(cfg.M)
                     for b in repetition(cfg, d, seed, m).beta.ravel())
    assert abs(np.mean(betas) - 1.0) < 0.1


def test_duplicated_learner_triggers_ridge_flag():
    d = small_trial(n=200, seed=5)
    cfg = config(n_learners=3, M=1, K=2)  # first and third learner identical
    assert repetition(cfg, d, 1, 0).ridge_used
    result, _ = run_gates(cfg, d, seed=1)
    assert result.flags.get("collinear_calibration_ridge")


def test_constant_effect_delta_near_zero():
    deltas = []
    for seed in range(10):
        d = small_trial(n=400, seed=100 + seed, hte_coef=0.0, base_effect=1.0)
        cfg = config(M=2, K=2)
        result, _ = run_gates(cfg, d, seed=seed)
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
    result, _ = run_gates(cfg, d, seed=2)
    assert result.delta_hat == pytest.approx(2.0, abs=0.35)
    assert result.p_one_sided < 0.01


def test_gamma_equals_per_group_ratio_without_controls():
    # with no controls the interacted regression separates by group exactly
    d = small_trial(n=300, seed=11)
    learners = (CateLearner(builtin("ols")),)
    cfg = GatesConfig(learners=learners, M=1, K=2, L=2, J=3, controls=())
    result, _ = run_gates(cfg, d, seed=3)
    p = d.propensity_values()
    w = 1.0 / (p * (1.0 - p))
    group = groups(repetition(cfg, d, 3, 0), cfg)
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
    res_ab, _ = run_gates(GatesConfig(learners=(l1, l2), M=2, K=2), d, seed=4)
    res_ba, _ = run_gates(GatesConfig(learners=(l2, l1), M=2, K=2), d, seed=4)
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


def test_arms_are_split_once_and_shared():
    d = small_trial(n=200, seed=21).subset(np.arange(0, 200, 2))
    treated, control = d.arms
    assert d.arms[0] is treated and d.arms[1] is control
    assert np.array_equal(treated.y, d.y[d.t == 1.0])
    assert np.array_equal(control.design, d.design[d.t == 0.0])
    lone = Dataset({"x1": np.arange(6.0), "y": np.arange(6.0), "t": np.eye(6)[0]},
                   Roles("y", ("x1",), treatment="t", propensity=0.5))
    with pytest.raises(IncompatibleRoles):
        CateLearner(builtin("ols")).train(lone)


@pytest.mark.parametrize("n_learners", [1, 2, 3])
def test_repetition_builds_three_views_per_fold_whatever_the_learners(monkeypatch,
                                                                      n_learners):
    # one training view per fold, and its two arms, shared by the A T-learners
    calls = []
    subset = Dataset.subset

    def counting(self, rows):
        calls.append(rows)
        return subset(self, rows)

    monkeypatch.setattr(Dataset, "subset", counting)
    cfg = config(n_learners=n_learners, K=3)
    repetition(cfg, small_trial(n=150, seed=5), 0, 0)
    assert len(calls) == 3 * cfg.K


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("seeded", [False, True])
def test_seq_takes_ttms_last_t_statistic_for_a_learner_that_reads_no_seed(K, seeded):
    # Seq's step K-1 trains on the complement of fold K-1, as TTM does there:
    # an unseeded learner is not refitted for it, a seeded one is
    calls = []
    cate = CateLearner(builtin("ols"))

    def fit(d, seed):
        calls.append(seed)
        return cate.train(d, seed)

    cfg = GatesConfig(learners=(Learner("counting", fit, seeded=seeded),), M=2, K=K)
    d = small_trial(n=240, seed=19)
    got = baselines(cfg, d, seed=7)
    assert len(calls) == cfg.M * (K + K - (1 if seeded else 2))
    assert got == retrained_baselines(cfg, d, 7)


def test_het_test_smoke_and_degenerate():
    d = small_trial(n=240, seed=17, hte_coef=1.5)
    cfg = config(M=2, K=2)
    _, het = run_gates(cfg, d, seed=5, run_het=True, mc_draws=2000)
    assert het.msr_baseline > 0
    assert het.msr_splits.shape == (cfg.M * cfg.K,)

    # deterministic outcome: zero residual variance errors out before any fit
    n = 100
    rng = substream(23)
    x = rng.standard_normal(n)
    t = (rng.random(n) < 0.5).astype(float)
    d_const = Dataset({"x1": x, "y": np.full(n, 3.0), "t": t},
                      Roles("y", ("x1",), treatment="t", propensity=0.5))
    calls = []

    def counting_fit(d, seed):
        calls.append(seed)
        return CateLearner(builtin("ols")).train(d, seed)

    cfg_const = GatesConfig(learners=(Learner("counting", counting_fit),), M=1, K=2)
    with pytest.raises(ZeroDiagonal):
        run_gates(cfg_const, d_const, seed=0, run_het=True, mc_draws=500)
    assert calls == []


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
    zero = Learner("zero", lambda d, seed: FixedFunctionModel(lambda x: np.zeros(len(x))))
    cfg = GatesConfig(learners=(zero,), M=1, K=2, L=2, J=3)
    with pytest.warns(UserWarning):
        run_gates(cfg, d, seed=8)


def seeded_shift(d, seed):
    """ols plus a constant drawn from the fit's seed, so a fit's predictions
    tell which seed it was given."""
    model = builtin("ols").train(d, seed)
    shift = float(substream(seed).standard_normal())
    return FixedFunctionModel(lambda x: model.predict(x) + shift)


def retrained_tau_by_alg(cfg, d, seed):
    """The ensemble's out-of-fold predictions from a loop of its own: per
    fold, one training view shared by the learners, a fresh model per
    (m, k, a)."""
    out = []
    for m in range(cfg.M):
        plan = generate_plan(d.n, M=1, K=cfg.K, seed=derived_seed(seed, m, 0))
        tau_mat = np.empty((d.n, len(cfg.learners)))
        for k, rows in enumerate(plan.repetitions[0]):
            train_d = d.subset(complement(rows, d.n))
            x_rows = d.x.take(rows, axis=0)
            for a, learner in enumerate(cfg.learners):
                model = learner.train(train_d, derived_seed(seed, m, 1, k, a))
                tau_mat[rows, a] = model.predict(x_rows)
        out.append(tau_mat)
    return out


def retrained_baselines(cfg, d, seed):
    """TTM and Seq p-values from a loop of their own."""
    p, w, controls = _design(cfg, d)
    learner = cfg.learners[0]

    def t_stat(rows, model):
        labels, _ = _fold_groups(model.predict(d.x.take(rows, axis=0)), cfg.J)
        gam, _, gap_var = _group_regression(controls.take(rows, axis=0), d.y[rows], w[rows],
                                            d.t[rows] - p[rows], labels, cfg.J)
        return float(gam[-1] - gam[0]) / float(np.sqrt(max(gap_var, 1e-300)))

    ttm, seq = [], []
    for m in range(cfg.M):
        folds = generate_plan(d.n, M=1, K=cfg.K, seed=derived_seed(seed, m, 0)).repetitions[0]
        for k, rows in enumerate(folds):
            model = learner.train(d.subset(complement(rows, d.n)), derived_seed(seed, m, 1, k))
            ttm.append(float(1.0 - norm_cdf(t_stat(rows, model))))
        t_stats = []
        for k in range(1, cfg.K):
            model = learner.train(d.subset(np.sort(np.concatenate(folds[:k]))),
                                  derived_seed(seed, m, 2, k))
            t_stats.append(t_stat(folds[k], model))
        seq.append(float(1.0 - norm_cdf(float(np.sqrt(cfg.K - 1) * np.mean(t_stats)))))
    return {"ttm_pvalue": ttm_aggregate(ttm), "seq_pvalue": ttm_aggregate(seq)}


@pytest.mark.parametrize("base", [builtin("ols"), builtin("ridge(1.0)"), builtin("knn(5)"),
                                  builtin("tree(2)"), Learner("seeded_shift", seeded_shift)],
                         ids=lambda base: base.name)
def test_gates_fits_equal_an_independent_retrain(base):
    d = small_trial(n=180, seed=31, hte_coef=1.5)
    cfg = GatesConfig(learners=(CateLearner(base), CateLearner(builtin("ols"))), M=3, K=3)
    for m, want in enumerate(retrained_tau_by_alg(cfg, d, 6)):
        assert np.array_equal(repetition(cfg, d, 6, m).tau_by_alg, want)
    assert baselines(cfg, d, seed=8) == retrained_baselines(cfg, d, 8)


def failing_fit(n_fit, calls):
    """An ols T-learner whose ``n_fit``-th fit raises; every fit's seed goes
    into ``calls``."""
    cate = CateLearner(builtin("ols"))

    def fit(d, seed):
        calls.append(seed)
        if len(calls) == n_fit:
            raise ValueError("fit failed on purpose")
        return cate.train(d, seed)

    return Learner("flaky", fit)


# M=2, K=3, one learner. The ensemble fits (m, k) in order; baselines fits,
# per repetition, 3 TTM models (seed path m, 1, k) and then 2 Seq models
# (seed path m, 2, k for k = 1, 2).
@pytest.mark.parametrize("run, n_fit, m, k, seed_path", [
    (run_gates, 5, 1, 1, (1, 1, 1, 0)),
    (baselines, 7, 1, 1, (1, 1, 1)),
    (baselines, 10, 1, 2, (1, 2, 2)),
], ids=["ensemble", "ttm", "seq"])
def test_learner_failure_names_its_split(run, n_fit, m, k, seed_path):
    calls = []
    cfg = GatesConfig(learners=(failing_fit(n_fit, calls),), M=2, K=3)
    with pytest.raises(LearnerFailure) as info:
        run(cfg, small_trial(n=150, seed=3), seed=4)
    assert (info.value.m, info.value.k) == (m, k)
    assert info.value.learner == "flaky"
    assert str(info.value).startswith(f"learner 'flaky' failed on split (m={m}, k={k}): ")
    assert isinstance(info.value.cause, ValueError)
    assert calls[-1] == derived_seed(4, *seed_path)


def test_builtin_learners_derive_only_plan_and_het_test_seeds(monkeypatch):
    # every built-in reads no seed, so none is derived for its fits: run_gates
    # derives each repetition's two plan seeds and the het test's, baselines
    # each repetition's plan seed
    paths = []

    def counting(seed, *path):
        paths.append(path)
        return derived_seed(seed, *path)

    monkeypatch.setattr(gates, "derived_seed", counting)
    monkeypatch.setattr(evaluation, "derived_seed", counting)
    cfg, d, M = config(n_learners=2, M=3, K=3), small_trial(n=150, seed=3), 3
    run_gates(cfg, d, seed=4, run_het=True, mc_draws=500)
    assert len(paths) == 2 * M + 1
    assert sorted(paths) == sorted([(m, 0) for m in range(M)] + [(m, 2) for m in range(M)]
                                   + [(3,)])
    paths.clear()
    baselines(cfg, d, seed=4)
    assert paths == [(m, 0) for m in range(M)]


def test_ensemble_holds_at_most_one_model_between_fits():
    # bound fixed before the first run: a fit may start while the previous
    # fit's model is still held, never while two are
    cate = CateLearner(builtin("ols"))
    alive = weakref.WeakSet()
    held_at_fit = []

    def fit(d, seed):
        held_at_fit.append(len(alive))
        model = cate.train(d, seed)
        alive.add(model)
        return model

    cfg = GatesConfig(learners=(Learner("a", fit), Learner("b", fit)), M=2, K=3)
    run_gates(cfg, small_trial(n=150, seed=5), seed=0)
    assert len(held_at_fit) == cfg.M * cfg.K * 2
    assert max(held_at_fit) <= 1
    assert len(alive) == 0


def test_a_repetitions_predictions_die_before_the_next_repetition_fits(monkeypatch):
    alive, alive_at_fit = [], []

    def tracked(*args, **kwargs):
        rep = repetition(*args, **kwargs)
        alive.append(weakref.ref(rep.tau_by_alg))
        return rep

    cate = CateLearner(builtin("ols"))

    def fit(d, seed):
        alive_at_fit.append(sum(ref() is not None for ref in alive))
        return cate.train(d, seed)

    monkeypatch.setattr(gates, "repetition", tracked)
    cfg = GatesConfig(learners=(Learner("a", fit), Learner("b", fit)), M=3, K=3)
    run_gates(cfg, small_trial(n=150, seed=5), seed=0, run_het=True, mc_draws=500)
    assert len(alive) == cfg.M
    assert alive_at_fit == [0] * (cfg.M * cfg.K * 2)


def test_the_het_test_holds_only_its_residuals_and_labels_at_sigma(monkeypatch):
    # bound fixed before the first run: when Sigma starts, run_gates holds the
    # M n squared residuals (8 bytes each), the (M, n) uint8 fold labels and
    # at most 1 MiB besides, and no repetition's (n, A) predictions
    class AtSigma(Exception):
        pass

    held = []

    def at_sigma(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        raise AtSigma

    monkeypatch.setattr(gates, "sigma_from_values", at_sigma)
    d = small_trial(n=1000, seed=0)
    cfg = config(n_learners=2, M=60, K=3)
    tracemalloc.start()
    try:
        with pytest.raises(AtSigma):
            run_gates(cfg, d, seed=0, run_het=True, mc_draws=500)
    finally:
        tracemalloc.stop()
    assert held[0] <= cfg.M * d.n * 9 + 2**20
