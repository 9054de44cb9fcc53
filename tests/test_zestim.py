import subprocess
import sys

import numpy as np
import pytest
from test_cli import python_env

from splitinfer.data import Dataset, Roles
from splitinfer.errors import NoConvergence
from splitinfer.evaluation import Block, cross_fit
from splitinfer.learners import ConstantModel, FixedFunctionModel, builtin
from splitinfer.moments import MomentFunction, builtin_moment
from splitinfer.rng import substream
from splitinfer.splits import generate_plan
from splitinfer.zestim import newton_solve, per_split_estimates, solve, solve_blocks
from test_evaluation import fixed

IDENTITY = fixed(FixedFunctionModel(lambda z: z[:, 0]))
ZERO = fixed(ConstantModel(0.0))


def test_constant_moment_all_variants_equal_constant():
    d = Dataset({"y": np.full(6, 3.0), "x": np.zeros(6)}, Roles("y", ("x",)))
    plan = generate_plan(6, M=2, K=3, seed=0)
    mf = builtin_moment("mse")
    for variant in (1, 2, 3):
        est = solve(variant, mf, cross_fit(plan, d, ZERO))
        np.testing.assert_allclose(est.theta_hat, [9.0], atol=1e-12)


def test_cross_fitting_mean_recovers_full_sample_mean():
    # psi = f - theta with f(w) = y: K=2 covers every row exactly once
    values = np.array([1.0, 2.0, 3.0, 4.0])
    d = Dataset({"y": values, "x": np.zeros(4)}, Roles("y", ("x",)))
    plan = generate_plan(4, M=1, K=2, seed=3)

    class Raw(MomentFunction):
        dim = 1

        def psi_eta(self, theta, eta, y, g=None):
            return (y - theta[0])[:, None]

    from splitinfer.moments import AverageMoment

    class RawAvg(AverageMoment):
        def f_eta(self, eta, y, g=None):
            return y

    est = solve(2, RawAvg(), cross_fit(plan, d, ZERO))
    np.testing.assert_allclose(est.theta_hat, [2.5])


def test_sample_splitting_mean_matches_selected_rows():
    values = np.arange(10, dtype=float)
    d = Dataset({"y": values, "x": np.zeros(10)}, Roles("y", ("x",)))
    plan = generate_plan(10, M=1, K=1, b=2, seed=17)
    from splitinfer.moments import AverageMoment

    class RawAvg(AverageMoment):
        def f_eta(self, eta, y, g=None):
            return y

    est = solve(1, RawAvg(), cross_fit(plan, d, ZERO))
    selected = plan.repetitions[0][0]
    np.testing.assert_allclose(est.theta_hat, [values[selected].mean()])


def test_variant_equality_linear_moments():
    rng = substream(8)
    configs = [(37, 2, 3, None), (50, 1, 1, 20), (24, 3, 2, None), (41, 2, 1, 13)]
    mf = builtin_moment("mse")
    for i, (n, M, K, b) in enumerate(configs):
        y = rng.standard_normal(n)
        x = rng.standard_normal(n)
        d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
        plan = generate_plan(n, M=M, K=K, b=b, seed=i)
        ev = cross_fit(plan, d, builtin("mean"), seed=i)
        thetas = [solve(v, mf, ev).theta_hat for v in (1, 2, 3)]
        for a in thetas:
            for c in thetas:
                assert np.max(np.abs(a - c)) <= 1e-10


def test_degenerate_variant_equalities_nonlinear():
    # variant 1 == 3 when K = 1; variant 2 == 3 when M = 1, even for the
    # nonlinear tercile system
    rng = substream(9)
    n = 45
    y = rng.standard_normal(n)
    x = rng.standard_normal(n)
    d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
    mf = builtin_moment("tercile_fractions")

    plan_k1 = generate_plan(n, M=3, K=1, b=20, seed=4)
    ev = cross_fit(plan_k1, d, IDENTITY)
    est1 = solve(1, mf, ev)
    est3 = solve(3, mf, ev)
    np.testing.assert_allclose(est1.theta_hat, est3.theta_hat, atol=1e-12)

    plan_m1 = generate_plan(n, M=1, K=3, seed=5)
    ev = cross_fit(plan_m1, d, IDENTITY)
    est2 = solve(2, mf, ev)
    est3 = solve(3, mf, ev)
    np.testing.assert_allclose(est2.theta_hat, est3.theta_hat, atol=1e-12)


def test_per_split_estimates_constant():
    d = Dataset({"y": np.full(8, 2.0), "x": np.zeros(8)}, Roles("y", ("x",)))
    plan = generate_plan(8, M=2, K=2, seed=0)
    per_split = per_split_estimates(builtin_moment("mse"), cross_fit(plan, d, ZERO))
    for theta in per_split.values():
        np.testing.assert_allclose(theta, [4.0])


def test_per_split_estimates_evaluate_an_average_moment_once_a_split(monkeypatch):
    # theta_s of psi = f - theta is the split's mean f; no residual is needed
    rng = substream(11)
    x = rng.standard_normal(30)
    d = Dataset({"y": 2.0 * x + rng.standard_normal(30), "x": x}, Roles("y", ("x",)))
    plan = generate_plan(30, M=4, K=3, seed=2)
    ev = cross_fit(plan, d, IDENTITY)
    mf = builtin_moment("mse")
    expected = {(b.m, b.k): solve_blocks(mf, [b])[0] for b in ev}
    psi_eta, calls = type(mf).psi_eta, []

    def counting(self, *args, **kwargs):
        calls.append(1)
        return psi_eta(self, *args, **kwargs)

    monkeypatch.setattr(type(mf), "psi_eta", counting)
    per_split = per_split_estimates(mf, ev)
    assert len(calls) == 12
    assert list(per_split) == list(expected)
    for key, theta in per_split.items():
        np.testing.assert_array_equal(theta, expected[key])


def test_per_split_linreg_noiseless():
    rng = substream(10)
    x = rng.standard_normal(30)
    d = Dataset({"y": 2.0 * x + 1.0, "x": x}, Roles("y", ("x",)))
    plan = generate_plan(30, M=2, K=3, seed=1)
    per_split = per_split_estimates(builtin_moment("linreg_on_eta"), cross_fit(plan, d, IDENTITY))
    for theta in per_split.values():
        np.testing.assert_allclose(theta, [1.0, 2.0], atol=1e-8)


def test_per_split_tercile_constant_outcome():
    rng = substream(12)
    x = rng.standard_normal(27)
    d = Dataset({"y": np.ones(27), "x": x}, Roles("y", ("x",)))
    plan = generate_plan(27, M=1, K=3, seed=2)
    per_split = per_split_estimates(builtin_moment("tercile_fractions"),
                                    cross_fit(plan, d, IDENTITY))
    for theta in per_split.values():
        np.testing.assert_allclose(theta[:3], 1.0)


def test_fullsample_mse_of_mean_is_biased_variance():
    values = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
    d = Dataset({"y": values, "x": np.zeros(5)}, Roles("y", ("x",)))
    base = builtin("mean").train(d)
    theta = solve_blocks(builtin_moment("mse"), [Block.of(base, d)])[0]
    np.testing.assert_allclose(theta, [np.mean((values - values.mean()) ** 2)])


def test_fullsample_constant_outcome_zero_mse():
    d = Dataset({"y": np.full(5, 2.0), "x": np.zeros(5)}, Roles("y", ("x",)))
    base = builtin("mean").train(d)
    theta = solve_blocks(builtin_moment("mse"), [Block.of(base, d)])[0]
    np.testing.assert_allclose(theta, [0.0], atol=1e-15)


def test_fullsample_classify_prob_brute_force():
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    d = Dataset({"y": y, "x": np.zeros(6)}, Roles("y", ("x",)))
    base = builtin("mean").train(d)
    theta = solve_blocks(builtin_moment("classify_prob"), [Block.of(base, d)])[0]
    ybar = y.mean()
    brute = np.mean([ybar if yi == 1 else 1 - ybar for yi in y])
    np.testing.assert_allclose(theta, [brute])
    np.testing.assert_allclose(theta, [ybar**2 + (1 - ybar) ** 2])


def test_newton_on_linear_system_one_step():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    target = np.array([1.0, -1.0])
    theta, iters, res = newton_solve(lambda t: a @ (t - target), lambda t: a, np.zeros(2))
    np.testing.assert_allclose(theta, target, atol=1e-12)
    assert iters <= 2


def test_newton_no_convergence():
    # moment bounded away from zero: |psi| >= 1 for every theta
    with pytest.raises(NoConvergence):
        newton_solve(lambda t: np.array([np.cos(t[0]) + 2.0]),
                     lambda t: np.array([[-np.sin(t[0]) - 1e-3]]),
                     np.array([0.0]), max_iter=10)


def test_newton_singular_step_raises_and_loads_no_other_solver():
    # an exactly singular Jacobian leaves theta unidentified: a typed error,
    # with no second algorithm (and no scipy.optimize) behind it
    code = ("import sys\n"
            "import numpy as np\n"
            "from splitinfer.errors import SingularJacobian\n"
            "from splitinfer.zestim import newton_solve\n"
            "a = np.ones((2, 2))\n"
            "try:\n"
            "    newton_solve(lambda t: a @ t - np.array([1.0, -1.0]), lambda t: a, np.zeros(2))\n"
            "except SingularJacobian:\n"
            "    print('SingularJacobian', 'scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=python_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "SingularJacobian False"


def test_solver_residual_within_tolerance():
    rng = substream(13)
    x = rng.standard_normal(60)
    d = Dataset({"y": 1.5 * x + rng.standard_normal(60), "x": x}, Roles("y", ("x",)))
    plan = generate_plan(60, M=2, K=3, seed=3)
    mf = builtin_moment("linreg_on_eta")
    est = solve(2, mf, cross_fit(plan, d, builtin("ols"), seed=0))
    assert est.residual_norm <= 1e-10 * (1 + np.linalg.norm(est.theta_hat))
