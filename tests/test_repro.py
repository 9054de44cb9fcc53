import numpy as np
import pytest
from scipy.stats import norm

from splitinfer.data import Dataset, Roles, complement
from splitinfer.evaluation import cross_fit
from splitinfer.learners import builtin
from splitinfer.moments import builtin_moment
from splitinfer.repro import (
    ReproComponents,
    conditional_variance_curve,
    repro_measure,
    sigma_D_hat,
)
from splitinfer.rng import substream
from splitinfer.splits import generate_plan
from splitinfer.zestim import solve


def fitted(n=120, M=4, K=3, seed=0, learner="mean"):
    rng = substream(seed)
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    d = Dataset({"y": y, "x": x}, Roles("y", ("x",)))
    plan = generate_plan(n, M=M, K=K, seed=seed)
    ev = cross_fit(plan, d, builtin(learner), seed=seed)
    mf = builtin_moment("mse")
    return mf, ev, solve(2, mf, ev)


def components_at(tau, **kwargs):
    mf, ev, est = fitted(**kwargs)
    return sigma_D_hat(mf, ev, est, tau=tau), est


def test_tau_at_estimate_kills_zeta_and_rho():
    mf, ev, est = fitted()
    comps = sigma_D_hat(mf, ev, est, tau=float(est.theta_hat[0]))
    assert comps.zeta_hat_D2 == pytest.approx(0.0, abs=1e-25)
    assert comps.rho_hat == pytest.approx(0.0, abs=1e-25)
    assert comps.sigma_hat_D2 == pytest.approx(2.0 * comps.v_hat_D2, rel=1e-12)


def test_d1_reduction_matches_direct_formula():
    # d = 1, psi = f - theta: v2 = sigma^-2 * mean over repetitions of
    # (per-repetition pooled moment)^2
    mf, ev, est = fitted(M=5)
    comps = sigma_D_hat(mf, ev, est, tau=0.0)
    theta, d = est.theta_hat, ev.d
    g = []
    for m in range(ev.plan.M):
        # the mean learner predicts the training fold's mean outcome
        acc = [mf.psi_eta(theta, np.full(b.rows.size, d.y[complement(b.rows, d.n)].mean()),
                          d.y[b.rows]).mean()
               for b in ev if b.m == m]
        g.append(np.mean(acc))
    direct = np.mean(np.square(g)) / comps.sigma_hat_eta**2
    assert comps.v_hat_D2 == pytest.approx(direct, rel=1e-10)


def test_identical_splits_zero_spread():
    # all repetitions identical -> per-repetition moments all equal the pooled
    # (zero) moment -> v2 = 0
    n = 40
    rng = substream(9)
    y = rng.standard_normal(n)
    d = Dataset({"y": y, "x": np.zeros(n)}, Roles("y", ("x",)))
    one = generate_plan(n, M=1, K=2, seed=5)
    from splitinfer.splits import SplitPlan

    plan = SplitPlan(n=n, M=3, K=2, b=one.b, seed=5, folds=np.repeat(one.folds, 3, axis=0))
    # identical models too (same training rows, deterministic learner)
    ev = cross_fit(plan, d, builtin("mean"), seed=0)
    mf = builtin_moment("mse")
    comps = sigma_D_hat(mf, ev, solve(2, mf, ev), tau=0.0)
    assert comps.v_hat_D2 == pytest.approx(0.0, abs=1e-20)


def test_sigma_d_invariant_to_split_order():
    mf, ev, est = fitted(M=4, seed=3)
    comps = sigma_D_hat(mf, ev, est, tau=0.1)
    # permute repetitions; the mean learner refits the same models on them
    from splitinfer.splits import SplitPlan

    plan = ev.plan
    order = [2, 0, 3, 1]
    plan_p = SplitPlan(n=plan.n, M=plan.M, K=plan.K, b=plan.b, seed=plan.seed,
                       folds=plan.folds[order])
    # solved on the permuted plan, whose theta_hat may differ in its last bits
    ev_p = cross_fit(plan_p, ev.d, builtin("mean"))
    comps_p = sigma_D_hat(mf, ev_p, solve(2, mf, ev_p), tau=0.1)
    assert comps.sigma_hat_D2 == pytest.approx(comps_p.sigma_hat_D2, rel=1e-12)


def frozen_components(t, kappa, n=100, M=10):
    return ReproComponents(
        a_hat=np.array([-1.0]), v_hat_D2=1.0, zeta_hat_D2=0.0, rho_hat=0.0,
        sigma_hat_D2=(kappa * np.sqrt(M) / np.sqrt(n)) ** 2,
        sigma_hat_eta=1.0, h_hat=t / np.sqrt(n), tau=0.0, t_stat=t, kappa=kappa,
        n=n, M=M, V_G=np.eye(1), clamped=False,
    )


def test_measure_zero_when_sigma_d_zero():
    comps = frozen_components(t=1.0, kappa=0.0)
    comps.sigma_hat_D2 = 0.0
    for tt in ("two_sided", "right", "left"):
        assert repro_measure(comps, 0.2, tt).delta_hat == 0.0


def test_measure_frozen_normal_arithmetic():
    comps = frozen_components(t=0.0, kappa=1.0)
    right = repro_measure(comps, 0.2, "right")
    # Phi(-Phi^-1(0.2)) - Phi(0) = Phi(0.8416) - 0.5
    assert right.delta_hat == pytest.approx(norm.cdf(0.8416212) - 0.5, abs=1e-6)
    assert right.delta_hat == pytest.approx(0.2999, abs=2e-4)
    two = repro_measure(comps, 0.2, "two_sided")
    # 2 Phi(-Phi^-1(0.1)) - 1 = 2 Phi(1.2816) - 1
    assert two.delta_hat == pytest.approx(2 * norm.cdf(1.2815516) - 1, abs=1e-6)
    assert two.delta_hat == pytest.approx(0.8000, abs=2e-4)


def test_measure_nonincreasing_in_beta():
    comps = frozen_components(t=0.7, kappa=0.8)
    for tt in ("two_sided", "right", "left"):
        deltas = [repro_measure(comps, b, tt).delta_hat
                  for b in (0.05, 0.1, 0.2, 0.3, 0.45)]
        assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_measure_rejects_bad_beta():
    comps = frozen_components(t=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        repro_measure(comps, 0.75)


def small_fixed_dataset(n=90, seed=4):
    rng = substream(seed)
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    return Dataset({"y": y, "x": x}, Roles("y", ("x",)))


def test_variance_decreases_m1_to_m2_variant1():
    d = small_fixed_dataset()
    curve = conditional_variance_curve(1, builtin_moment("mse"), d, builtin("mean"),
                                       K=1, b=45, M_list=(1, 2), seed=0, reps=500)
    v1, v2 = curve[1], curve[2]
    margin = 3.0 * np.hypot(v1["se"], v2["se"])
    assert v1["variance"] - v2["variance"] > margin


def test_variance_scales_inverse_m_variant3():
    d = small_fixed_dataset(seed=5)
    curve = conditional_variance_curve(3, builtin_moment("mse"), d, builtin("mean"),
                                       K=2, b=None, M_list=(1, 4), seed=1, reps=500)
    ratio = curve[1]["variance"] / curve[4]["variance"]
    assert abs(ratio - 4.0) <= 0.8


def test_variance_positive_and_vanishing_for_cross_fitting():
    d = small_fixed_dataset(seed=6)
    curve = conditional_variance_curve(2, builtin_moment("mse"), d, builtin("mean"),
                                       K=3, b=None, M_list=(1, 16), seed=2, reps=400)
    assert curve[1]["variance"] > 0
    assert curve[16]["variance"] < curve[1]["variance"] / 8.0
