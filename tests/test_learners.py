import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitinfer import learners
from splitinfer.data import Dataset, Roles, complement
from splitinfer.errors import UnknownLearner
from splitinfer.evaluation import cross_fit
from splitinfer.gates import CateLearner
from splitinfer.learners import ConstantModel, KnnModel, Learner, builtin
from splitinfer.splits import generate_plan
from splitinfer.rng import derived_seed, substream


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
    for b in cross_fit(plan, d, builtin("ols"), seed=0):
        np.testing.assert_allclose(b.eta, b.y, atol=1e-9)


def test_cross_fit_uses_train_fold_mean():
    d = linear_dataset()
    plan = generate_plan(d.n, M=2, K=2, seed=1)
    for b in cross_fit(plan, d, builtin("mean"), seed=0):
        expected = d.y[complement(b.rows, d.n)].mean()
        np.testing.assert_allclose(b.eta, np.full(b.rows.size, expected))


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


@pytest.mark.parametrize("chunk_rows", [1, 5, None])  # None: the default budget
@pytest.mark.parametrize("data", ["continuous", "discrete"])
def test_knn_chunked_distances_equal_the_cube_bitwise(monkeypatch, data, chunk_rows):
    # the reference sorts the whole (rows x train x p) cube's distances with
    # numpy; the filter must keep each chunk's k nearest, and the refine's
    # exact distances must pick them among ties as the cube does
    rng = substream(22)
    n_train, rows, k = 60, 37, 5  # 37 rows: a chunk of 5 does not divide them
    seen = []
    refine = KnnModel._refine

    def recording(self, x, kept):
        seen.append(kept.copy())
        return refine(self, x, kept)

    monkeypatch.setattr(KnnModel, "_refine", recording)
    for p in [*range(20), 130, 257, 300]:  # p = 0: every distance is 0
        if data == "continuous":
            scale = rng.lognormal(size=p)
            train_x = rng.standard_normal((n_train, p)) * scale
            x = rng.standard_normal((rows, p)) * scale
        else:  # values 0.1 apart: many distances tie, and inexactly
            train_x = rng.integers(-5, 6, (n_train, p)) * 0.1
            x = rng.integers(-5, 6, (rows, p)) * 0.1
        train_y = rng.standard_normal(n_train)
        if chunk_rows is not None:
            monkeypatch.setattr(learners, "_CHUNK_TERMS", chunk_rows * 2 * n_train)
        seen.clear()
        pred = KnnModel(train_x, train_y, k).predict(x)
        d2 = ((x[:, None, :] - train_x[None]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert len(seen) == (-(-rows // chunk_rows) if chunk_rows else 1)
        assert np.take_along_axis(np.concatenate(seen), order, axis=1).all()
        np.testing.assert_array_equal(pred, train_y[order].mean(axis=1))


def test_knn_predict_holds_no_rows_by_train_array():
    # the cube of a 20 000 x 667 x 3 predict is 305 MB, and one
    # (rows x train) float64 array 102 MB
    rng = substream(23)
    model = KnnModel(rng.standard_normal((667, 3)), rng.standard_normal(667), 10)
    x = rng.standard_normal((20_000, 3))
    tracemalloc.start()
    try:
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("rows, p", [(20_000, 3), (2_000, 130)])
def test_knn_predict_with_every_column_tied_stays_bounded(monkeypatch, rows, p):
    # 667 identical training rows: every column ties with the k-th, so every
    # column is a candidate and the refine works through all of them in groups
    rng = substream(24)
    train_y = rng.standard_normal(667)
    model = KnnModel(np.tile(rng.standard_normal(p), (667, 1)), train_y, 10)
    x = rng.standard_normal((rows, p))
    kept = []
    refine = KnnModel._refine

    def counting(self, x, chunk_kept):
        kept.append(int(chunk_kept.sum()))
        return refine(self, x, chunk_kept)

    monkeypatch.setattr(KnnModel, "_refine", counting)
    tracemalloc.start()
    try:
        pred = model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(kept) == rows * 667
    assert peak < 16 * 2**20
    np.testing.assert_array_equal(pred, np.full(rows, train_y[:10].mean()))


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_knn_refine_computes_about_k_exact_distances_a_row(monkeypatch, offset):
    # on continuous data hardly any column lies within 2E of the k-th
    # approximate distance, so the exact sum runs on about k of 666 columns;
    # centring keeps E small when every covariate carries a large offset
    rng = substream(25)
    k = 10
    model = KnnModel(rng.standard_normal((666, 8)) + offset, rng.standard_normal(666), k)
    x = rng.standard_normal((334, 8)) + offset
    computed = []
    refine = KnnModel._refine

    def counting(self, x, kept):
        # a refine group computes rows x its widest candidate count; the
        # chunk's widest bounds every group's
        computed.append(kept.shape[0] * int(kept.sum(axis=1).max()))
        return refine(self, x, kept)

    monkeypatch.setattr(KnnModel, "_refine", counting)
    model.predict(x)
    assert sum(computed) / len(x) <= k + 1


# numpy's pairwise sum splits the feature axis above 128, and twice above 256
KNN_FEATURES = [*range(15), *range(129, 137), 257, 300]


def _knn_covariates(rng, kind, rows, p, base):
    if kind == "continuous":
        return rng.uniform(-1.0, 1.0, (rows, p))
    if kind == "grid":  # values 0.1 apart: many distances tie, and inexactly
        return rng.integers(-5, 6, (rows, p)) * 0.1
    return base[rng.integers(0, len(base), rows)]  # duplicated rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=st.sampled_from(KNN_FEATURES), n_train=st.integers(1, 40), rows=st.integers(1, 25),
       kind=st.sampled_from(["continuous", "grid", "duplicates"]),
       scale=st.floats(-320.0, 308.0), spread=st.sampled_from([0.0, 10.0, 700.0]),
       offset=st.sampled_from([0.0, 1e4, 1e8]), chunk_terms=st.sampled_from([None, 1, 7, 100]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_knn_predict_equals_the_full_stable_sort(p, n_train, rows, kind, scale, spread, offset,
                                                 chunk_terms, seed, data):
    # the columns are scaled by 10**c, c the overall scale plus up to
    # +-spread per feature, within 1e-320 .. 1e308 and below overflow after
    # the offset; at the top the distances themselves overflow to inf
    k = data.draw(st.integers(1, n_train), label="k")
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (3, p))
    shift = rng.uniform(-offset, offset, p)
    c = np.clip(scale + rng.uniform(-spread, spread, p), -320.0,
                307.0 - np.log10(1.0 + np.abs(shift)))
    train_x = (_knn_covariates(rng, kind, n_train, p, base) + shift) * 10.0**c
    x = (_knn_covariates(rng, kind, rows, p, base) + shift) * 10.0**c
    train_y = rng.standard_normal(n_train)
    terms = learners._CHUNK_TERMS
    learners._CHUNK_TERMS = chunk_terms or terms
    try:
        with np.errstate(over="ignore"):  # an inf distance, as in the cube
            pred = KnnModel(train_x, train_y, k).predict(x)
            d2 = ((x[:, None, :] - train_x[None]) ** 2).sum(axis=2)
    finally:
        learners._CHUNK_TERMS = terms
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(pred, train_y[order].mean(axis=1))


def test_tree_fits_step_function():
    x = np.concatenate([np.zeros(10), np.ones(10)])
    y = np.concatenate([np.zeros(10), np.ones(10)])
    d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
    model = builtin("tree(2)").train(d)
    np.testing.assert_allclose(model.predict(d.x), y)


def tree_walk(model, x):
    """One row at a time from the root: left when x <= threshold (so NaN goes
    right), until a leaf."""
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        node = 0
        while model.feature[node] >= 0:
            if row[model.feature[node]] <= model.threshold[node]:
                node = model.left[node]
            else:
                node = model.right[node]
        out[i] = model.value[node]
    return out


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_tree_predict_matches_row_walk(depth):
    rng = substream(40 + depth)
    x = rng.integers(0, 5, (200, 3)) + 0.5 * rng.integers(0, 2, (200, 3))
    d = Dataset({"y": rng.standard_normal(200), "a": x[:, 0], "b": x[:, 1], "c": x[:, 2]},
                Roles("y", ("a", "b", "c")))
    model = builtin(f"tree({depth})").train(d)
    assert np.any(model.feature >= 0)
    # rows that sit exactly on the thresholds, grid rows, and NaN entries
    split = model.feature >= 0
    on_thr = np.tile(rng.choice(x.ravel(), (1, 3)), (split.sum(), 1))
    on_thr[np.arange(split.sum()), model.feature[split]] = model.threshold[split]
    query = np.vstack([x, on_thr, rng.integers(0, 5, (50, 3)).astype(float)])
    query[rng.random(query.shape) < 0.1] = np.nan
    np.testing.assert_array_equal(model.predict(query), tree_walk(model, query))
    assert model.predict(np.empty((0, 3))).shape == (0,)


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
    # separable data: the fit's slope is large, so far points saturate
    # exp(-z) to inf or 0 and predict exactly 0 or 1, without a warning
    x = rng.standard_normal(60)
    d = Dataset({"y": (x > 0).astype(float), "x": x}, Roles("y", ("x",)))
    model = builtin("logistic").train(d)
    assert model.beta[1] > 50
    np.testing.assert_array_equal(model.predict(np.array([[-50.0], [50.0]])), [0.0, 1.0])


def test_unknown_learner():
    for name in ("forest", "knn(0)", "knn(1e400)", "tree(1e400)", "ridge(1e400)"):
        with pytest.raises(UnknownLearner):
            builtin(name)


@pytest.mark.parametrize("name, raw", [("knn(3.7)", "3.7"), ("tree(2.5)", "2.5"),
                                       ("knn(0.5)", "0.5")])
def test_fractional_knn_and_tree_parameters_are_refused(name, raw):
    with pytest.raises(UnknownLearner, match=rf"needs an integer parameter, got {raw}$"):
        builtin(name)


def test_model_purity_bitwise():
    d = linear_dataset(noiseless=False)
    model = builtin("ols").train(d)
    first = model.predict(d.x)
    second = model.predict(d.x)
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# the seed contract: a built-in reads no seed, so the split steps derive none


BUILTIN_NAMES = ["mean", "ols", "logistic", "ridge(0.5)", "knn(3)", "tree(2)"]


def binary_dataset(n=40, seed=5):
    rng = substream(seed)
    x = rng.standard_normal((n, 3))
    y = (x @ np.array([0.8, -1.0, 0.3]) + rng.standard_normal(n) > 0.0).astype(np.float64)
    return Dataset({"y": y, **{f"x{i}": x[:, i] for i in range(3)}},
                   Roles("y", ("x0", "x1", "x2")))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_builtin_learner_is_unseeded_and_ignores_its_seed(name):
    learner = builtin(name)
    assert learner.seeded is False
    assert CateLearner(learner).seeded is False
    d = binary_dataset()
    train = d.subset(np.arange(0, d.n, 3).tolist() + [d.n - 1])
    first = learner.train(train, 0).predict(d.x)
    second = learner.train(train, derived_seed(3, 1, 2)).predict(d.x)
    assert first.tobytes() == second.tobytes()


def recording(calls, seeded=True):
    """A learner that records each seed it is trained with."""

    def fit(d, seed):
        calls.append(seed)
        return ConstantModel(float(np.mean(d.y)))

    return Learner("recording", fit, seeded=seeded)


def test_cross_fit_derives_a_seeded_learners_seeds_and_passes_zero_otherwise():
    d = binary_dataset()
    plan = generate_plan(d.n, M=2, K=3, seed=1)
    splits = [(m, k) for m in range(2) for k in range(3)]
    seeded, unseeded = [], []
    assert Learner("outside", lambda d, seed: None).seeded is True
    cross_fit(plan, d, recording(seeded), seed=11)
    cross_fit(plan, d, recording(unseeded, seeded=False), seed=11)
    assert seeded == [derived_seed(11, m, k) for m, k in splits]
    assert unseeded == [0] * len(splits)


@pytest.mark.parametrize("seeded", [True, False])
def test_a_t_learner_seeds_its_arms_exactly_when_its_base_is_seeded(seeded):
    calls = []
    cate = CateLearner(recording(calls, seeded))
    assert cate.seeded is seeded
    d = binary_dataset()
    t = (np.arange(d.n) % 2).astype(np.float64)
    trial = Dataset({"y": d.y, "t": t, "x0": d.x[:, 0]}, Roles("y", ("x0",), treatment="t"))
    cate.train(trial, 9)
    assert calls == ([derived_seed(9, 1), derived_seed(9, 0)] if seeded else [0, 0])
