import numpy as np
import pytest

from splitinfer.data import Dataset, Roles
from splitinfer.errors import IncompatibleRoles, UnknownMoment
from splitinfer.evaluation import Block
from splitinfer.learners import ConstantModel, FixedFunctionModel
from splitinfer.moments import builtin_moment
from splitinfer.rng import substream

ALL_ROWS = lambda d: np.arange(d.n)  # noqa: E731


def dataset_from(y, x=None, **extra):
    cols = {"y": np.asarray(y, dtype=float)}
    if x is None:
        x = np.zeros(len(y))
    cols["x"] = np.asarray(x, dtype=float)
    roles_kwargs = {}
    if "g" in extra:
        cols["g"] = np.asarray(extra["g"], dtype=float)
        roles_kwargs["group"] = "g"
    return Dataset(cols, Roles("y", ("x",), **roles_kwargs))


def psi(mf, theta, model, d, rows):
    """Per-row psi at theta on ``rows``, with the model's predictions there."""
    b = Block.of(model, d, rows)
    return mf.psi_eta(theta, b.eta, b.y, b.g)


def test_mse_single_row_value():
    d = dataset_from([2.0, 2.0])
    mf = builtin_moment("mse")
    values = psi(mf, np.array([1.0]), ConstantModel(0.0), d, np.array([0]))
    assert values[0, 0] == 3.0  # (2-0)^2 - 1


def test_classify_prob_zero_at_rate():
    d = dataset_from([1.0, 0.0])
    mf = builtin_moment("classify_prob")
    values = psi(mf, np.array([0.7]), ConstantModel(0.7), d, np.array([0]))
    np.testing.assert_allclose(values[0, 0], 0.0, atol=1e-15)


def test_covariance_zero_predictor_degenerate():
    # eta == 0 makes every psi value equal to -theta: zero variance trigger
    d = dataset_from([1.0, -1.0, 2.0])
    mf = builtin_moment("covariance")
    values = psi(mf, np.array([0.0]), ConstantModel(0.0), d, ALL_ROWS(d))
    assert np.all(values == 0.0)


def test_linreg_moment_exact_fit():
    rng = substream(3)
    x = rng.standard_normal(12)
    d = dataset_from(2.0 * x + 1.0, x)
    mf = builtin_moment("linreg_on_eta")
    eta = FixedFunctionModel(lambda z: z[:, 0])
    mean = psi(mf, np.array([1.0, 2.0]), eta, d, ALL_ROWS(d)).mean(axis=0)
    np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name", ["mse", "classify_prob", "covariance", "linreg_on_eta", "group_mse_gap"])
def test_jacobian_matches_finite_differences(name):
    rng = substream(11)
    n = 40
    y = (rng.random(n) < 0.5).astype(float) if name == "classify_prob" else rng.standard_normal(n)
    x = rng.standard_normal(n)
    extra = {"g": (rng.random(n) < 0.5).astype(float)} if name == "group_mse_gap" else {}
    d = dataset_from(y, x, **extra)
    mf = builtin_moment(name)
    model = FixedFunctionModel(lambda z: 0.3 + 0.5 * z[:, 0])
    theta = 0.1 + 0.2 * np.arange(1, mf.dim + 1)
    rows = ALL_ROWS(d)
    b = Block.of(model, d, rows)
    analytic = mf.jac_rows_eta(theta, b.eta, b.y, b.g).mean(axis=0)
    # central finite differences of the mean psi
    fd = np.empty((mf.dim, mf.dim))
    for j in range(mf.dim):
        step = 1e-6 * (1 + abs(theta[j]))
        hi, lo = theta.copy(), theta.copy()
        hi[j] += step
        lo[j] -= step
        fd[:, j] = (psi(mf, hi, model, d, rows).mean(0) - psi(mf, lo, model, d, rows).mean(0)) / (2 * step)
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)


def test_group_mse_gap_requires_group_column():
    d = dataset_from([1.0, 2.0])
    with pytest.raises(IncompatibleRoles):
        builtin_moment("group_mse_gap").validate(d)


def test_unknown_moment():
    with pytest.raises(UnknownMoment):
        builtin_moment("auc")


def test_tercile_thresholds_are_left_inverse_quantiles():
    # t_j = inf{t : Fhat(t) >= j/3}, the smallest prediction reaching the fraction
    mf = builtin_moment("tercile_fractions")
    for eta, thresholds in (([3.0, 1.0, 2.0], [1.0, 2.0]),
                            ([1.0, 2.0, 3.0, 4.0], [2.0, 3.0]),
                            ([2.0, 1.0, 2.0, 3.0, 2.0, 1.0], [1.0, 2.0])):  # ties
        theta = mf.solve_pooled([(np.array(eta), np.zeros(len(eta)))])
        assert theta[3:].tolist() == thresholds


def test_tercile_solution_balances_groups():
    rng = substream(5)
    n = 31
    y = rng.standard_normal(n)
    x = rng.standard_normal(n)
    d = dataset_from(y, x)
    mf = builtin_moment("tercile_fractions")
    model = FixedFunctionModel(lambda z: z[:, 0])
    theta = mf.solve_pooled([(model.predict(d.x), d.y)])
    g1, g2, g3 = mf.group_masks(model.predict(d.x), theta[3], theta[4])
    lo, hi = n // 3, -(-n // 3)
    for g in (g1, g2, g3):
        assert lo <= g.sum() <= hi
    # group means of y solve the fraction coordinates exactly
    np.testing.assert_allclose(theta[0], y[g1].mean())
    np.testing.assert_allclose(theta[1], y[g2].mean())
    np.testing.assert_allclose(theta[2], y[g3].mean())


def test_tercile_constant_outcome():
    rng = substream(6)
    x = rng.standard_normal(30)
    d = dataset_from(np.ones(30), x)
    mf = builtin_moment("tercile_fractions")
    theta = mf.solve_pooled([(FixedFunctionModel(lambda z: z[:, 0]).predict(d.x), d.y)])
    np.testing.assert_allclose(theta[:3], 1.0)
