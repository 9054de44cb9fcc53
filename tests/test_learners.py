import sys

import numpy as np
import pytest

from splitinfer.data import Dataset, Roles
from splitinfer.errors import EmptyModelList, UnknownLearner
from splitinfer.learners import (
    ConstantModel,
    KnnModel,
    SubprocessLearner,
    average_model,
    builtin,
    train_all,
)
from splitinfer.splits import enumerate_pairs, generate_plan
from splitinfer.rng import substream


def linear_dataset(n=20, noiseless=True, seed=0):
    rng = substream(seed)
    x = rng.standard_normal(n)
    y = 2.0 * x + 1.0
    if not noiseless:
        y = y + 0.1 * rng.standard_normal(n)
    return Dataset({"y": y, "x": x}, Roles("y", ("x",)))


def test_mean_learner_is_constant():
    d = linear_dataset()
    model = builtin("mean").train(d)
    np.testing.assert_allclose(model.predict(d.x), np.full(d.n, d.y.mean()))


def test_ols_exact_on_noiseless_line():
    d = linear_dataset(noiseless=True)
    plan = generate_plan(d.n, M=1, K=2, seed=4)
    models = train_all(plan, d, builtin("ols"), seed=0)
    for m, k, pair in enumerate_pairs(plan):
        pred = models[(m, k)].predict(d.x[pair.eval_rows])
        np.testing.assert_allclose(pred, d.y[pair.eval_rows], atol=1e-9)


def test_train_all_uses_train_fold_mean():
    d = linear_dataset()
    plan = generate_plan(d.n, M=2, K=2, seed=1)
    models = train_all(plan, d, builtin("mean"), seed=0)
    for m, k, pair in enumerate_pairs(plan):
        expected = d.y[pair.train_rows].mean()
        np.testing.assert_allclose(models[(m, k)].predict(d.x[:1]), [expected])


def test_ridge_zero_matches_ols():
    d = linear_dataset(noiseless=False)
    ols = builtin("ols").train(d)
    ridge = builtin("ridge(0)").train(d)
    np.testing.assert_allclose(ridge.beta, ols.beta, atol=1e-9)


def test_knn_on_identical_points():
    d = Dataset({"y": np.array([1.0, 2.0, 3.0]), "x": np.zeros(3)}, Roles("y", ("x",)))
    model = builtin("knn(3)").train(d)
    np.testing.assert_allclose(model.predict(np.array([[0.0]])), [2.0])


def test_knn1_interpolates_training_points():
    d = linear_dataset(n=15)
    model = builtin("knn(1)").train(d)
    np.testing.assert_allclose(model.predict(d.x), d.y)


@pytest.mark.parametrize("data", ["continuous", "discrete"])
@pytest.mark.parametrize("k", [1, 4, 10])
def test_knn_matches_full_stable_sort(data, k):
    # the reference: every distance row sorted in full, ties to the lowest index
    rng = substream(21)
    if data == "continuous":
        train_x, x = rng.standard_normal((300, 5)), rng.standard_normal((150, 5))
    else:  # few distinct points, so nearly every k-th distance is tied
        train_x = rng.integers(0, 3, (300, 2)).astype(float)
        x = rng.integers(0, 3, (150, 2)).astype(float)
    model = KnnModel(train_x, rng.standard_normal(300), k)
    d2 = ((x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    expected = model.train_y[order].mean(axis=1)
    np.testing.assert_array_equal(model.predict(x), expected)


def test_tree_fits_step_function():
    x = np.concatenate([np.zeros(10), np.ones(10)])
    y = np.concatenate([np.zeros(10), np.ones(10)])
    d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
    model = builtin("tree(2)").train(d)
    np.testing.assert_allclose(model.predict(d.x), y)


def test_logistic_learner_probabilities():
    rng = substream(7)
    x = rng.standard_normal(300)
    p = 1 / (1 + np.exp(-(0.5 + 2.0 * x)))
    y = (rng.random(300) < p).astype(float)
    d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
    model = builtin("logistic").train(d)
    pred = model.predict(d.x)
    assert np.all((pred > 0) & (pred < 1))
    assert abs(model.beta[1] - 2.0) < 0.6


def test_unknown_learner():
    for name in ("forest", "knn(0)", "knn(1e400)", "tree(1e400)", "ridge(1e400)"):
        with pytest.raises(UnknownLearner):
            builtin(name)


def test_average_model_basic():
    avg = average_model([ConstantModel(0.0), ConstantModel(1.0)])
    np.testing.assert_allclose(avg.predict(np.zeros((3, 1))), 0.5)


def test_average_model_identity():
    base = builtin("ols").train(linear_dataset())
    avg = average_model([base])
    x = np.array([[0.3], [0.7]])
    np.testing.assert_array_equal(avg.predict(x), base.predict(x))


def test_average_model_empty():
    with pytest.raises(EmptyModelList):
        average_model([])


def test_binary_outcome_error_identity():
    # for binary y the squared error of a probabilistic classification is
    # |y - eta|, linear in the prediction, so averaging models commutes with
    # averaging errors exactly; the plain squared error only contracts
    rng = substream(21)
    y = (rng.random(60) < 0.4).astype(float)
    x = rng.standard_normal((60, 2))
    members = [ConstantModel(c) for c in (0.1, 0.4, 0.9)]
    avg = average_model(members)
    err_avg = np.mean(np.abs(y - avg.predict(x)))
    err_members = np.mean([np.mean(np.abs(y - m.predict(x))) for m in members])
    assert abs(err_avg - err_members) <= 1e-12
    mse_avg = np.mean((y - avg.predict(x)) ** 2)
    mse_members = np.mean([np.mean((y - m.predict(x)) ** 2) for m in members])
    assert mse_avg <= mse_members + 1e-12


def test_risk_contraction_continuous():
    rng = substream(31)
    y = rng.standard_normal(80)
    x = rng.standard_normal((80, 2))
    members = [ConstantModel(c) for c in (-0.5, 0.2, 1.0)]
    avg = average_model(members)
    mae_avg = np.mean(np.abs(y - avg.predict(x)))
    mae_members = np.mean([np.mean(np.abs(y - m.predict(x))) for m in members])
    assert mae_avg <= mae_members + 1e-12
    rmse_avg = np.sqrt(np.mean((y - avg.predict(x)) ** 2))
    rmse_members = np.mean([np.sqrt(np.mean((y - m.predict(x)) ** 2)) for m in members])
    assert rmse_avg <= rmse_members + 1e-12


def test_model_purity_bitwise():
    d = linear_dataset(noiseless=False)
    model = builtin("ols").train(d)
    first = model.predict(d.x)
    second = model.predict(d.x)
    assert np.array_equal(first, second)


def test_train_all_threads_match_sequential():
    d = linear_dataset(n=40, noiseless=False)
    plan = generate_plan(d.n, M=3, K=2, seed=5)
    seq = train_all(plan, d, builtin("ols"), seed=9, threads=1)
    par = train_all(plan, d, builtin("ols"), seed=9, threads=4)
    for key in seq:
        np.testing.assert_array_equal(seq[key].beta, par[key].beta)


MEAN_WORKER = """
import json, sys
req = json.loads(sys.stdin.readline())
if req["op"] == "train":
    ys = req["y"]
    print(json.dumps({"ok": True, "model": {"mean": sum(ys) / len(ys)}}))
else:
    print(json.dumps({"ok": True, "pred": [req["model"]["mean"]] * len(req["x"])}))
"""


def test_subprocess_learner_roundtrip():
    d = linear_dataset(n=10)
    learner = SubprocessLearner([sys.executable, "-c", MEAN_WORKER])
    model = learner.train(d, seed=0)
    np.testing.assert_allclose(model.predict(d.x), np.full(d.n, d.y.mean()))
