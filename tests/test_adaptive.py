import numpy as np
import pytest

from splitinfer.adaptive import AdaptiveConfig, adaptive_ci, gate
from splitinfer.data import Dataset, Roles
from splitinfer.evaluation import evaluate
from splitinfer.learners import ConstantModel, builtin, train_all
from splitinfer.moments import MomentFunction, builtin_moment
from splitinfer.rng import substream
from splitinfer.splits import generate_plan
from splitinfer.zestim import solve


def signal_setup(n=200, seed=0):
    rng = substream(seed)
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
    plan = generate_plan(n, M=2, K=3, seed=seed)
    models = train_all(plan, d, builtin("ols"), seed=seed)
    mf = builtin_moment("covariance")
    est = solve(2, mf, evaluate(models, plan, d))
    return mf, models, plan, d, est


def test_gate_thresholding():
    mf, models, plan, d, est = signal_setup()
    theta = float(est.theta_hat[0])
    # exactly at the solution the pooled moment is ~0: gate off
    psi, a_n = gate(mf, evaluate(models, plan, d), theta, gamma_n=1e-12)
    assert a_n == 0
    assert abs(psi) <= 1e-10
    # far away the product is large: gate on
    _, a_far = gate(mf, evaluate(models, plan, d), theta + 5.0, gamma_n=1e-12)
    assert a_far == 1


def test_gate_example_values():
    # product 0.002 vs gamma 0.001 -> on; vs gamma 0.01 -> off
    d = Dataset({"y": np.full(4, 1.0), "x": np.zeros(4)}, Roles("y", ("x",)))
    plan = generate_plan(4, M=1, K=2, seed=0)
    models = {(0, 0): ConstantModel(1.0), (0, 1): ConstantModel(1.0)}
    mf = builtin_moment("covariance")
    # pooled moment at tau: f == 1, so psi = 1 - tau
    psi, on = gate(mf, evaluate(models, plan, d), 1.0 - np.sqrt(0.002), 0.001)
    assert psi * psi == pytest.approx(0.002, rel=1e-9)
    assert on == 1
    _, off = gate(mf, evaluate(models, plan, d), 1.0 - np.sqrt(0.002), 0.01)
    assert off == 0


def test_gate_monotone_in_gamma():
    mf, models, plan, d, est = signal_setup(seed=3)
    taus = float(est.theta_hat[0]) + np.linspace(-0.5, 0.5, 11)
    for tau in taus:
        previous = 1
        for gamma in (1e-8, 1e-4, 1e-2, 1.0):
            _, a_n = gate(mf, evaluate(models, plan, d), tau, gamma)
            assert a_n <= previous
            previous = a_n


def test_adaptive_matches_normal_when_gate_always_on():
    mf, models, plan, d, est = signal_setup(seed=5)
    ci = adaptive_ci(mf, evaluate(models, plan, d), est, AdaptiveConfig(c_gamma=0.0))
    assert not ci.unbounded
    (lo, hi), (nlo, nhi) = ci.intervals[0], ci.normal_interval
    se = (nhi - nlo) / 2
    assert lo == pytest.approx(nlo, abs=2e-4 * se)
    assert hi == pytest.approx(nhi, abs=2e-4 * se)


def test_adaptive_all_conservative_unbounded():
    mf, models, plan, d, est = signal_setup(seed=7)
    ci = adaptive_ci(mf, evaluate(models, plan, d), est,
                     AdaptiveConfig(c_gamma=1e12 * plan.n))
    assert ci.unbounded
    assert len(ci.intervals) == 1
    assert ci.intervals[0] == (float(ci.grid[0]), float(ci.grid[-1]))


def test_adaptive_signal_width_close_to_normal():
    widths = []
    for seed in range(10):
        mf, models, plan, d, est = signal_setup(n=400, seed=seed)
        ci = adaptive_ci(mf, evaluate(models, plan, d), est)
        lo, hi = ci.intervals[0]
        nlo, nhi = ci.normal_interval
        widths.append((hi - lo) / (nhi - nlo))
    assert np.mean(np.abs(np.array(widths) - 1.0) < 0.10) >= 0.9


def test_adaptive_requires_scalar_moment():
    d = Dataset({"y": np.zeros(6), "x": np.zeros(6)}, Roles("y", ("x",)))
    plan = generate_plan(6, M=1, K=2, seed=0)
    models = {(0, 0): ConstantModel(0.0), (0, 1): ConstantModel(0.0)}
    mf = builtin_moment("linreg_on_eta")
    from splitinfer.zestim import ZEstimate

    with pytest.raises(ValueError):
        adaptive_ci(mf, evaluate(models, plan, d), ZEstimate(2, np.zeros(2)))


def test_adaptive_and_gate_require_average_moment():
    # a one-dimensional moment that is not an AverageMoment has no scalar
    # pooled f to gate on
    class Centered(MomentFunction):
        def psi_eta(self, theta, eta, y, g=None):
            return (y - theta[0])[:, None]

        def jac_rows_eta(self, theta, eta, y, g=None):
            return np.broadcast_to(-np.eye(1), (eta.shape[0], 1, 1))

    mf, models, plan, d, est = signal_setup()
    ev = evaluate(models, plan, d)
    with pytest.raises(ValueError, match="average-type"):
        adaptive_ci(Centered(), ev, est)
    with pytest.raises(ValueError, match="average-type"):
        gate(Centered(), ev, 0.0, 1e-12)


def test_adaptive_degenerate_keeps_estimand():
    # y independent of x with mean zero: true estimand is 0; the conservative
    # branch must keep it
    rng = substream(100)
    covered = 0
    for seed in range(20):
        n = 200
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
        plan = generate_plan(n, M=2, K=3, seed=seed)
        models = train_all(plan, d, builtin("ols"), seed=seed)
        mf = builtin_moment("covariance")
        est = solve(2, mf, evaluate(models, plan, d))
        ci = adaptive_ci(mf, evaluate(models, plan, d), est)
        inside = any(lo <= 0.0 <= hi for lo, hi in ci.intervals)
        covered += int(inside)
    assert covered >= 18
