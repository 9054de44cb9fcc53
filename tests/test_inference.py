import numpy as np
import pytest

from splitinfer.data import Dataset, Roles
from splitinfer.errors import SingularJacobian, ZeroVariance
from splitinfer.evaluation import cross_fit, pool
from splitinfer.inference import (
    named_reduction,
    norm_cdf,
    norm_ppf,
    normal_ci,
    sandwich,
    variance_inflation,
)
from splitinfer.learners import ConstantModel, FixedFunctionModel, builtin
from splitinfer.moments import builtin_moment
from splitinfer.rng import substream
from splitinfer.splits import generate_plan
from splitinfer.zestim import solve
from test_evaluation import fixed


def test_variance_inflation_paper_values():
    assert variance_inflation(M=1, K=1, b=50, n=100) == pytest.approx(2.0)
    assert variance_inflation(M=7, K=3, b=33, n=100) == 1.0
    assert variance_inflation(M=2, K=1, b=50, n=100) == pytest.approx(1.5)
    # nonincreasing in M toward the cross-fitting value
    values = [variance_inflation(M, 1, 50, 100) for M in (1, 2, 5, 20, 1000)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-2)


def test_jacobian_average_type_is_minus_identity():
    d = Dataset({"y": np.arange(6.0), "x": np.zeros(6)}, Roles("y", ("x",)))
    plan = generate_plan(6, M=1, K=2, seed=0)
    ev = cross_fit(plan, d, fixed(ConstantModel(0.0)))
    jac = pool(builtin_moment("mse"), ev, np.array([1.0]),
               psi=False, jacobian=True).jacobian
    np.testing.assert_allclose(jac, [[-1.0]])


def test_jacobian_linreg_is_minus_gram():
    # hand Gram on 4 rows with eta(x) = x
    x = np.array([1.0, 2.0, 3.0, 4.0])
    d = Dataset({"y": np.zeros(4), "x": x}, Roles("y", ("x",)))
    plan = generate_plan(4, M=1, K=2, seed=1)
    ev = cross_fit(plan, d, fixed(FixedFunctionModel(lambda z: z[:, 0])))
    jac = pool(builtin_moment("linreg_on_eta"), ev, np.zeros(2),
               psi=False, jacobian=True).jacobian
    s1, s2 = plan.repetitions[0]
    gram = np.zeros((2, 2))
    for rows in (s1, s2):
        e = x[rows]
        gram += np.array([[1.0, e.mean()], [e.mean(), (e**2).mean()]]) / 2.0
    np.testing.assert_allclose(jac, -gram)


def test_sandwich_scalar():
    v = sandwich(np.array([[-1.0]]), np.array([[2.5]]), 1.5)
    np.testing.assert_allclose(v, [[3.75]])


def test_sandwich_identity_jacobian():
    v = sandwich(np.eye(3), np.eye(3), 2.0)
    np.testing.assert_allclose(v, 2.0 * np.eye(3))


def test_sandwich_singular_jacobian():
    with pytest.raises(SingularJacobian):
        sandwich(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2), 1.0)


def test_degenerate_meat_flags_fast_convergence():
    # covariance moment with a zero predictor: psi == 0 identically at theta=0
    d = Dataset({"y": np.array([1.0, -1.0, 0.5, 2.0]), "x": np.zeros(4)}, Roles("y", ("x",)))
    plan = generate_plan(4, M=1, K=2, seed=0)
    ev = cross_fit(plan, d, fixed(ConstantModel(0.0)))
    mf = builtin_moment("covariance")
    meat = pool(mf, ev, np.array([0.0]), meat=True).meat
    np.testing.assert_allclose(meat, 0.0, atol=1e-30)
    est = solve(2, mf, ev)
    np.testing.assert_array_equal(est.theta_hat, [0.0])
    with pytest.raises(ZeroVariance):
        normal_ci(ev, est)


def test_normal_ci_frozen_interval():
    # z_{0.975} = 1.959964: theta=0, sigma=1, n=100 -> +/- 0.1959964
    d = Dataset({"y": np.zeros(4), "x": np.zeros(4)}, Roles("y", ("x",)))
    from splitinfer.inference import norm_ppf

    z = norm_ppf(0.975)
    assert z == pytest.approx(1.959964, abs=5e-7)
    half = z * 1.0 / np.sqrt(100)
    assert half == pytest.approx(0.1959964, abs=5e-7)


def test_normal_cdf_and_quantile_match_scipy_into_the_tails():
    from scipy import special

    # erfc's argument -x/sqrt(2) carries one rounding, which the tail
    # amplifies by about x^2: 37^2 * 1.1e-16 = 1.5e-13 at the far end
    x = np.linspace(-37.0, 37.0, 20001)
    np.testing.assert_allclose(norm_cdf(x), special.ndtr(x), rtol=1e-12, atol=0)
    assert float(norm_cdf(0.3)) == pytest.approx(special.ndtr(0.3), rel=1e-15)
    q = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.01, 0.99, 99),
                        1.0 - np.logspace(-16, -1, 100)])
    np.testing.assert_allclose([norm_ppf(v) for v in q], special.ndtri(q), rtol=1e-14, atol=0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_reductions_are_constant_contrasts(dim):
    """Every nameable h is linear: h(theta) == gradient(theta) @ theta exactly,
    and the gradient does not depend on theta."""
    specs = ["identity", *(f"coordinate:{j}" for j in range(dim)),
             *(f"diff:{i}-{j}" for i in range(dim) for j in range(dim) if i != j)]
    thetas = substream(dim).standard_normal((4, dim)) * [[1.0], [1e-8], [1e8], [0.0]]
    for spec in specs:
        h = named_reduction(spec, dim)
        grad = h.gradient(thetas[0])
        for theta in thetas:
            assert h.h(theta) == grad @ theta
            np.testing.assert_array_equal(h.gradient(theta), grad)


def test_named_reduction_parsing():
    assert named_reduction("identity", 1).name == "identity"
    assert named_reduction("coordinate:2", 5).h(np.arange(5.0)) == 2.0
    assert named_reduction("diff:2-0", 3).h(np.array([1.0, 5.0, 4.0])) == 3.0
    with pytest.raises(ValueError):
        named_reduction("median", 2)
    with pytest.raises(ValueError, match="i != j"):
        named_reduction("diff:1-1", 2)


def test_full_report_fields_and_ci_contains_estimate():
    rng = substream(2)
    x = rng.standard_normal(90)
    d = Dataset({"y": x + rng.standard_normal(90), "x": x}, Roles("y", ("x",)))
    plan = generate_plan(90, M=3, K=3, seed=5)
    ev = cross_fit(plan, d, builtin("ols"), seed=0)
    mf = builtin_moment("mse")
    report = normal_ci(ev, solve(2, mf, ev), alpha=0.1)
    assert report.ci[0] < report.h_hat < report.ci[1]
    assert report.se > 0
    assert report.variance_inflation == 1.0
    eigs = np.linalg.eigvalsh(report.sandwich_matrix)
    assert eigs.min() >= -1e-10
    payload = report.to_jsonable()
    assert set(payload) >= {"theta_hat", "ci", "sandwich", "meat", "jacobian"}


def test_ci_halfwidth_scales_root_n():
    # slope of log-width against log-n should be close to -1/2
    rng = substream(14)
    sizes = [200, 400, 800, 1600, 3200]
    widths = []
    mf = builtin_moment("mse")
    for n in sizes:
        acc = 0.0
        reps = 8
        for r in range(reps):
            x = rng.standard_normal(n)
            d = Dataset({"y": x + rng.standard_normal(n), "x": x}, Roles("y", ("x",)))
            plan = generate_plan(n, M=2, K=3, seed=r)
            ev = cross_fit(plan, d, builtin("ols"), seed=r)
            report = normal_ci(ev, solve(2, mf, ev))
            acc += report.ci[1] - report.ci[0]
        widths.append(acc / reps)
    slope = np.polyfit(np.log(sizes), np.log(widths), 1)[0]
    assert abs(slope + 0.5) < 0.05
