import json
import tracemalloc
import weakref

import numpy as np
import pytest

from splitinfer import cli
from splitinfer import compare as compare_mod
from splitinfer.adaptive import AdaptiveConfig, adaptive_ci
from splitinfer.data import Dataset, Roles
from splitinfer.evaluation import Block, cross_fit, group_codes, pool
from splitinfer.inference import named_reduction, normal_ci
from splitinfer.learners import FixedFunctionModel, Learner, Model, builtin
from splitinfer.moments import builtin_moment
from splitinfer.repro import repro_measure, sigma_D_hat
from splitinfer.rng import substream
from splitinfer.sim import linear_cate_sample, synthetic_base
from splitinfer.splits import generate_plan
from splitinfer.zestim import solve
from test_sim import oracle


def fixed(model):
    """A learner whose every fit returns ``model``."""
    return Learner("fixed", lambda d, seed: model)


def in_turn(models):
    """A learner whose fits return ``models`` one after another; cross_fit
    fits split by split in plan order."""
    remaining = iter(models)
    return Learner("in_turn", lambda d, seed: next(remaining))


class CountingModel(Model):
    """Wraps a model and counts its predict calls in a shared list."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls

    def predict(self, x):
        self.calls.append(len(x))
        return self.inner.predict(x)


@pytest.fixture
def predict_calls(monkeypatch):
    """Every model the CLI trains counts its predicts into the returned list."""
    calls = []

    def counting_builtin(name):
        base = builtin(name)
        return Learner(name, lambda d, seed: CountingModel(base.train(d, seed), calls))

    monkeypatch.setattr(cli, "builtin", counting_builtin)
    return calls


def run_cli(tmp_path, method, flags=(), **config):
    payload = {
        "method": method,
        "data": {"synthetic": {"kind": "linear_cate", "n": 90, "seed": 1}},
        "plan": {"M": 3, "K": 3, "seed": 2},
        "learner": "ols",
        "output": {"path": str(tmp_path / "report.json")},
        **config,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.run([method, "--config", str(path), *flags]) == 0


@pytest.mark.parametrize("variant", [1, 2, 3])
@pytest.mark.parametrize("moment, h", [("mse", "identity"), ("linreg_on_eta", "coordinate:1"),
                                       ("tercile_fractions", "diff:2-0")])
def test_estimate_predicts_once_per_split(tmp_path, predict_calls, variant, moment, h):
    run_cli(tmp_path, "estimate", variant=variant, moment=moment, h=h)
    assert len(predict_calls) == 9


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_adaptive_estimate_predicts_once_per_split(tmp_path, predict_calls, variant):
    run_cli(tmp_path, "estimate", ["--adaptive"], variant=variant, moment="covariance")
    assert len(predict_calls) == 9


@pytest.mark.parametrize("moment, h", [("mse", "identity"), ("linreg_on_eta", "coordinate:1")])
def test_repro_predicts_once_per_split(tmp_path, predict_calls, moment, h):
    run_cli(tmp_path, "repro", moment=moment, h=h)
    assert len(predict_calls) == 9


@pytest.mark.parametrize("moment, h, baseline", [("mse", "identity", "mean"),
                                                 ("linreg_on_eta", "coordinate:1", "ridge(5.0)")])
def test_compare_predicts_once_per_split_and_once_for_baseline(tmp_path, predict_calls,
                                                               moment, h, baseline):
    run_cli(tmp_path, "compare", moment=moment, h=h,
            compare={"baseline": baseline, "mc_draws": 500})
    assert len(predict_calls) == 9 + 1
    assert sorted(predict_calls)[-1] == 90  # the baseline predicts on all rows


def test_evaluate_blocks_follow_plan_order():
    rng = substream(3)
    d = Dataset({"y": rng.standard_normal(20), "x": rng.standard_normal(20),
                 "g": (rng.random(20) < 0.5) * 5.0},
                Roles("y", ("x",), group="g"))
    plan = generate_plan(20, M=2, K=2, seed=1)
    models = [FixedFunctionModel(lambda z, c=m + k: z[:, 0] + c)
              for m in range(2) for k in range(2)]
    ev = cross_fit(plan, d, in_turn(models))
    blocks = list(ev)
    assert [(b.m, b.k) for b in blocks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for b, rows in zip(blocks, plan.eval_sets(), strict=True):
        np.testing.assert_array_equal(b.rows, rows)
        np.testing.assert_array_equal(b.eta, d.x[rows, 0] + b.m + b.k)
        np.testing.assert_array_equal(b.y, d.y[rows])
        np.testing.assert_array_equal(b.g, (d.g[rows] == 5.0).astype(int))
        assert b.eta.base is ev.etas  # one buffer holds every prediction, fold-major
    assert ev.etas.shape == (2 * 20,)
    np.testing.assert_array_equal(ev.etas, np.concatenate([b.eta for b in blocks]))
    np.testing.assert_array_equal(ev.codes, (d.g == 5.0).astype(int))
    np.testing.assert_array_equal(group_codes(d), ev.codes)


def test_a_pass_derives_each_blocks_rows_once(monkeypatch):
    from splitinfer import evaluation

    rng = substream(5)
    d = Dataset({"y": rng.standard_normal(30), "x": rng.standard_normal(30),
                 "g": (rng.random(30) < 0.5) * 1.0}, Roles("y", ("x",), group="g"))
    ev = cross_fit(generate_plan(30, M=2, K=3, seed=2), d, builtin("ols"))
    derived = []
    real = evaluation.eval_rows
    monkeypatch.setattr(evaluation, "eval_rows",
                        lambda labels, k: derived.append(k) or real(labels, k))
    # psi and the Jacobian read each block's y and g twice, its rows once
    pool(builtin_moment("linreg_on_eta"), ev, np.zeros(2), meat=True, jacobian=True)
    assert derived == [0, 1, 2] * 2
    no_group = cross_fit(generate_plan(30, M=2, K=3, seed=2), Dataset(
        {"y": d.y, "x": d.x[:, 0]}, Roles("y", ("x",))), builtin("ols"))
    assert no_group.codes is None
    assert all(b.g is None for b in no_group)


def test_passes_over_the_splits_per_statistic(monkeypatch):
    """A pass over the splits derives each split's rows once. For an average
    moment ``solve(2)`` takes two passes, theta and the moment pooled at
    theta_hat, which ``normal_ci`` and ``sigma_D_hat`` read without a pass of
    their own; ``compare_models`` adds the per-split estimates and the
    covariance loop of ``sigma_delta_hat``."""
    from splitinfer import evaluation

    d = linear_cate_sample(120, seed=3)
    mf = builtin_moment("mse")
    ev = cross_fit(generate_plan(120, M=4, K=3, seed=1), d, builtin("ols"))
    derived = []
    real = evaluation.eval_rows
    monkeypatch.setattr(evaluation, "eval_rows",
                        lambda labels, k: derived.append(k) or real(labels, k))

    def passes(fn, *args, **kwargs):
        derived.clear()
        fn(*args, **kwargs)
        return len(derived) / ev.plan.n_splits

    assert passes(lambda: normal_ci(mf, ev, solve(2, mf, ev))) == 2
    assert passes(lambda: sigma_D_hat(mf, ev, solve(2, mf, ev))) == 2
    assert passes(compare_mod.compare_models, mf, ev, builtin("mean").train(d),
                  mc_draws=1_000) == 4


def test_pool_matches_per_split_model_forms():
    rng = substream(4)
    x = rng.standard_normal(30)
    d = Dataset({"y": 2.0 * x + rng.standard_normal(30), "x": x}, Roles("y", ("x",)))
    plan = generate_plan(30, M=2, K=3, seed=0)
    models = [FixedFunctionModel(lambda z, c=m - k: (1.0 + 0.1 * c) * z[:, 0])
              for m in range(2) for k in range(3)]
    mf = builtin_moment("linreg_on_eta")
    theta = np.array([0.1, 1.5])
    ev = cross_fit(plan, d, in_turn(models))
    pooled = pool(mf, ev, theta, meat=True, jacobian=True)
    etas = [(model.predict(d.x[rows]), d.y[rows])
            for model, rows in zip(models, plan.eval_sets(), strict=True)]
    psis = [mf.psi_eta(theta, eta, y) for eta, y in etas]
    jacs = [mf.jac_rows_eta(theta, eta, y).mean(axis=0) for eta, y in etas]
    np.testing.assert_allclose(pooled.split_psi, [v.mean(axis=0) for v in psis])
    np.testing.assert_allclose(pooled.psi, np.mean([v.mean(axis=0) for v in psis], axis=0))
    np.testing.assert_allclose(pooled.meat, np.mean([v.T @ v / len(v) for v in psis], axis=0))
    np.testing.assert_allclose(pooled.jacobian, np.mean(jacs, axis=0))
    jac_only = pool(mf, ev, theta, psi=False, jacobian=True)
    assert jac_only.psi is None and jac_only.split_psi is None and jac_only.meat is None
    np.testing.assert_array_equal(jac_only.jacobian, pooled.jacobian)


def test_library_reports_are_plain_json():
    # to_jsonable hands back lists and Python scalars, so json.dumps takes it
    rng = substream(6)
    x = rng.standard_normal(60)
    d = Dataset({"y": x + rng.standard_normal(60), "x": x}, Roles("y", ("x",)))
    plan = generate_plan(60, M=2, K=3, seed=0)
    ev = cross_fit(plan, d, builtin("ols"), seed=0)
    mf = builtin_moment("mse")
    reports = [solve(variant, mf, ev) for variant in (1, 2, 3)]
    reports.append(normal_ci(mf, ev, reports[1]))
    reports.append(adaptive_ci(mf, ev, reports[1], reports[3], AdaptiveConfig(grid_points=51)))
    comps = sigma_D_hat(mf, ev, reports[1])
    reports += [comps, repro_measure(comps, 0.2)]
    for report in reports:
        payload = report.to_jsonable()
        assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("moment", ["mse", "linreg_on_eta", "tercile_fractions"])
def test_oracle_predicts_each_model_once(moment):
    # every model predicts on the fresh sample once; an average moment streams
    # the models, so a model's predictions are dropped before the next model
    # predicts, and any other moment is solved by solve_blocks on them all
    rng = substream(5)
    x = rng.standard_normal(400)
    fresh = Dataset({"y": 3.0 * x + 0.5, "x": x}, Roles("y", ("x",)))
    handed_out, held, calls = [], [], []

    class Tracked(Model):
        def predict(self, z):
            calls.append(self)
            held.append(sum(ref() is not None for ref in handed_out))
            eta = z[:, 0].copy()
            handed_out.append(weakref.ref(eta))
            return eta

    models = [Tracked() for _ in range(4)]
    mf = builtin_moment(moment)
    theta = oracle(mf, models, fresh)
    assert calls == models
    if moment == "mse":
        np.testing.assert_allclose(theta, [np.mean((fresh.y - x) ** 2)])
        assert max(held) <= 1
    elif moment == "linreg_on_eta":
        np.testing.assert_allclose(theta, [0.5, 3.0], atol=1e-9)
    else:
        expected = mf.solve_pooled([(x, fresh.y)] * len(models))
        np.testing.assert_array_equal(theta, expected)


def test_no_split_model_outlives_cross_fit(traced_peak):
    """A kNN model copies its training covariates, so models kept past their
    split would hold O(M K n p) memory. After cross_fit returns only its
    n M predictions (0.32 MB here) and their blocks remain, and no model is
    reachable. The in-call bound adds 4 MiB to the predictions for one
    split's step: the kNN predict's 1 MiB budgets (two filter planes, the
    refine's squared differences and index arrays) and one model with its training
    view (about 0.2 MB)."""
    n, M, K = 2_000, 20, 3
    d = synthetic_base(n, 0)
    assert d.x.shape == (n, 8)  # the root's covariate matrix, built before tracing
    plan = generate_plan(n, M, K, seed=1)
    knn, models, kept = builtin("knn(10)"), [], []

    def train(view, seed):
        model = knn.train(view, seed)
        models.append(weakref.ref(model))
        return model

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        peak = traced_peak(lambda: kept.append(cross_fit(plan, d, Learner("knn(10)", train))))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(models) == M * K
    assert all(ref() is None for ref in models)
    assert held <= 1_000_000
    assert peak <= n * M * 8 + 4 * 2**20


def test_a_pass_holds_one_split_at_a_time(traced_peak):
    """A pass iterates the ``Evaluations``, so it holds one split's rows, y
    and moment values at a time, never every split's: at n = 20 000, M = 100,
    K = 3 those take 24 MB (int32 rows and float64 y), and a pool pass,
    ``solve`` (its Newton passes and the closing pool at theta_hat) or
    ``sigma_delta_hat`` stays within 2 MiB above what the caller holds."""
    n = 20_000
    d = linear_cate_sample(n, seed=8)
    mf, h = builtin_moment("linreg_on_eta"), named_reduction("coordinate:1", 2)
    ev = cross_fit(generate_plan(n, M=100, K=3, seed=9), d, builtin("ols"), seed=1)
    est = solve(2, mf, ev)
    theta = est.theta_hat
    base = Block.of(builtin("ols").train(d), d)
    base_vals = compare_mod._influence_rows(mf, base, theta, h.gradient(theta))
    assert traced_peak(pool, mf, ev, theta, meat=True, jacobian=True) <= 2 * 2**20
    assert traced_peak(solve, 2, mf, ev) <= 2 * 2**20
    assert traced_peak(compare_mod.sigma_delta_hat, mf, ev, est, base_vals, h) <= 2 * 2**20


def test_pooled_row_values_hold_one_split_at_a_time(traced_peak):
    """At K = 1 the rows no split evaluates (about 120 here) take every
    model's block on them, which the caller holds. The pass over the splits
    and those blocks adds the two n-row accumulators (0.32 MB) and one
    block's values; holding all 100 splits' rows and y at once would add
    1.2 MB, above the 1 MiB bound."""
    n, M = 20_000, 100
    d = linear_cate_sample(n, seed=8)
    mf, h = builtin_moment("linreg_on_eta"), named_reduction("coordinate:1", 2)
    plan = generate_plan(n, M=M, K=1, b=1_000, seed=9)
    uncovered_rows = np.flatnonzero((plan.folds == plan.K).all(axis=0))
    assert uncovered_rows.size > 0
    uncovered = []
    ev = cross_fit(plan, d, builtin("ols"), seed=1, visit=lambda model, m, k: uncovered.append(
        Block.of(model, d, uncovered_rows, m, k)))
    theta = solve(2, mf, ev).theta_hat
    assert traced_peak(compare_mod._pooled_row_values, mf, ev, theta, h, uncovered) <= 2**20
