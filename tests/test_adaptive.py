import numpy as np
import pytest

from splitinfer.adaptive import AdaptiveConfig, adaptive_ci
from splitinfer.data import Dataset, Roles
from splitinfer.errors import ZeroVariance
from splitinfer.evaluation import cross_fit
from splitinfer.inference import norm_ppf, normal_ci
from splitinfer.learners import ConstantModel, builtin
from splitinfer.moments import MomentFunction, builtin_moment
from splitinfer.rng import substream
from splitinfer.splits import generate_plan
from splitinfer.zestim import solve
from test_evaluation import fixed


def signal_setup(n=200, seed=0):
    rng = substream(seed)
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
    plan = generate_plan(n, M=2, K=3, seed=seed)
    ev = cross_fit(plan, d, builtin("ols"), seed=seed)
    mf = builtin_moment("covariance")
    return mf, ev, solve(2, mf, ev)


def adaptive(mf, ev, est, cfg=None):
    """The adaptive CI given the normal CI at its alpha, or None where the
    normal CI's variance is zero, as the CLI runs it."""
    try:
        normal = normal_ci(mf, ev, est, alpha=(cfg or AdaptiveConfig()).alpha)
    except ZeroVariance:
        normal = None
    return adaptive_ci(mf, ev, est, normal, cfg)


def test_gate_thresholding():
    mf, ev, est = signal_setup()
    ci = adaptive(mf, ev, est)
    np.testing.assert_array_equal(ci.gate, ci.psi * ci.psi > ci.gamma_n)
    # on far from the estimate, off next to it
    assert ci.gate[0] == ci.gate[-1] == 1
    assert ci.gate[np.argmin(np.abs(ci.psi))] == 0


def test_gate_example_values():
    # f == 1 on every row, so theta_hat = 1 and Psi(tau) = 1 - tau
    d = Dataset({"y": np.full(4, 1.0), "x": np.zeros(4)}, Roles("y", ("x",)))
    plan = generate_plan(4, M=1, K=2, seed=0)
    mf = builtin_moment("covariance")
    ev = cross_fit(plan, d, fixed(ConstantModel(1.0)))
    est = solve(2, mf, ev)
    assert est.theta_hat[0] == 1.0
    ci = adaptive(mf, ev, est, AdaptiveConfig(c_gamma=0.004))
    np.testing.assert_array_equal(ci.psi, est.theta_hat[0] - ci.grid)
    assert ci.gamma_n == 0.001
    np.testing.assert_array_equal(ci.gate, ci.psi * ci.psi > 0.001)


def test_gate_monotone_in_gamma():
    mf, ev, est = signal_setup(seed=3)
    counts = []
    for c_gamma in (0.0, 1e-4, 1e-2, 1.0, 10.0):
        ci = adaptive(mf, ev, est, AdaptiveConfig(c_gamma=c_gamma))
        # the grid follows the standard error, not c_gamma: counts compare
        np.testing.assert_array_equal(ci.psi, est.theta_hat[0] - ci.grid)
        counts.append(int(ci.gate.sum()))
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]


def test_adaptive_matches_normal_when_gate_always_on():
    mf, ev, est = signal_setup(seed=5)
    ci = adaptive(mf, ev, est, AdaptiveConfig(c_gamma=0.0))
    assert not ci.unbounded
    (lo, hi), (nlo, nhi) = ci.intervals[0], ci.normal_interval
    se = (nhi - nlo) / 2
    assert lo == pytest.approx(nlo, abs=2e-4 * se)
    assert hi == pytest.approx(nhi, abs=2e-4 * se)


def test_adaptive_all_conservative_unbounded():
    mf, ev, est = signal_setup(seed=7)
    ci = adaptive(mf, ev, est, AdaptiveConfig(c_gamma=1e12 * ev.plan.n))
    assert ci.unbounded
    assert len(ci.intervals) == 1
    assert ci.intervals[0] == (float(ci.grid[0]), float(ci.grid[-1]))


def test_adaptive_signal_width_close_to_normal():
    """At the default c_gamma the gate is off only within SE / 2 of the
    estimate, inside the normal interval, so the adaptive CI is the normal CI
    up to the bisection tolerance of 1e-4 SE."""
    for seed in range(10):
        mf, ev, est = signal_setup(n=400, seed=seed)
        ci = adaptive(mf, ev, est)
        [(lo, hi)], (nlo, nhi) = ci.intervals, ci.normal_interval
        se = (nhi - nlo) / (2.0 * norm_ppf(0.975))
        assert abs(lo - nlo) <= 1e-4 * se
        assert abs(hi - nhi) <= 1e-4 * se


def test_adaptive_requires_scalar_moment():
    d = Dataset({"y": np.zeros(6), "x": np.zeros(6)}, Roles("y", ("x",)))
    plan = generate_plan(6, M=1, K=2, seed=0)
    mf = builtin_moment("linreg_on_eta")
    from splitinfer.zestim import ZEstimate

    with pytest.raises(ValueError):
        adaptive_ci(mf, cross_fit(plan, d, fixed(ConstantModel(0.0))), ZEstimate(2, np.zeros(2)),
                    None)


def test_adaptive_and_gate_require_average_moment():
    # a one-dimensional moment that is not an AverageMoment has no scalar
    # pooled f to gate on
    class Centered(MomentFunction):
        def psi_eta(self, theta, eta, y, g=None):
            return (y - theta[0])[:, None]

        def jac_rows_eta(self, theta, eta, y, g=None):
            return np.broadcast_to(-np.eye(1), (eta.shape[0], 1, 1))

    mf, ev, est = signal_setup()
    with pytest.raises(ValueError, match="average-type"):
        adaptive_ci(Centered(), ev, est, None)


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
        ev = cross_fit(plan, d, builtin("ols"), seed=seed)
        mf = builtin_moment("covariance")
        ci = adaptive(mf, ev, solve(2, mf, ev))
        inside = any(lo <= 0.0 <= hi for lo, hi in ci.intervals)
        covered += int(inside)
    assert covered >= 18
