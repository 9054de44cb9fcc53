"""Reproducibility diagnostics for split-sample p-values.

Two researchers with the same dataset but different random splits compute
different p-values. For the pooled (variant-2) estimator this module builds
the conditional standard deviation sigma_D of the t-statistic across plan
draws from one realized plan, and turns it into the additive p-value margin
delta(beta): an independent re-split exceeds p_1 + delta(beta) with
probability about beta. It also provides the direct Monte-Carlo estimate of
the conditional variance of the estimators as a function of the number of
repetitions M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ZeroVariance
from .evaluation import Evaluations, cross_fit
from .inference import IDENTITY, DeltaSpec, delta_variance, norm_cdf, norm_ppf
from .learners import Learner
from .moments import MomentFunction
from .rng import derived_seed
from .splits import generate_plan
from .zestim import ZEstimate, solve


@dataclass
class ReproComponents:
    """sigma_D stack for a variant-2 estimate at hypothesis value tau."""

    a_hat: np.ndarray
    v_hat_D2: float
    zeta_hat_D2: float
    rho_hat: float
    sigma_hat_D2: float
    sigma_hat_eta: float
    h_hat: float
    tau: float
    t_stat: float
    kappa: float
    n: int
    M: int
    V_G: np.ndarray
    clamped: bool

    def to_jsonable(self) -> dict:
        return {
            "a_hat": self.a_hat.tolist(),
            "v_hat_D2": self.v_hat_D2,
            "zeta_hat_D2": self.zeta_hat_D2,
            "rho_hat": self.rho_hat,
            "sigma_hat_D2": self.sigma_hat_D2,
            "sigma_hat_eta": self.sigma_hat_eta,
            "h_hat": self.h_hat,
            "tau": self.tau,
            "t_stat": self.t_stat,
            "kappa": self.kappa,
            "n": self.n,
            "M": self.M,
            "clamped": self.clamped,
        }


@dataclass
class ReproMeasure:
    test_type: str
    beta: float
    delta_hat: float
    p1: float
    M: int
    n: int

    def to_jsonable(self) -> dict:
        return {
            "test_type": self.test_type,
            "beta": self.beta,
            "delta_hat": self.delta_hat,
            "p1": self.p1,
            "M": self.M,
            "n": self.n,
        }


def sigma_D_hat(mf: MomentFunction, ev: Evaluations, estimate: ZEstimate,
                h: DeltaSpec = IDENTITY, tau: float = 0.0) -> ReproComponents:
    """All sigma_D components from one plan's variant-2 estimate, read from
    the moment ``estimate`` pooled at theta_hat over the splits of ``ev``.

    The zeta and rho terms carry the factor (h(theta) - tau), so the stack is
    specific to the hypothesis value tau being tested.
    """
    theta_hat, pooled, plan = estimate.theta_hat, estimate.pooled, ev.plan
    dv = delta_variance(estimate, plan, h)
    vmk = dv.inflation
    psi_split = pooled.split_psi      # per-split moment at theta_hat

    # row vector grad . J^{-1}; delta_variance has checked that J is nonsingular
    a_hat = np.linalg.solve(pooled.jacobian.T, dv.grad)
    sigma2_eta = dv.variance
    if sigma2_eta <= 0.0:
        raise ZeroVariance("delta-method variance is zero; reproducibility margin undefined")
    sigma_eta = float(np.sqrt(sigma2_eta))

    # V_G: spread of per-repetition pooled moments (they average to ~0 at the
    # variant-2 solution, so the uncentered outer product is the variance)
    g_reps = psi_split.reshape(plan.M, plan.K, mf.dim).mean(axis=1)
    v_g = g_reps.T @ g_reps / plan.M
    v_hat_D2 = float(a_hat @ v_g @ a_hat) / sigma2_eta

    h_hat = h.h(theta_hat)
    gap = h_hat - tau

    centered_meat = pooled.split_meat - pooled.meat
    q = np.einsum("i,sij,j->s", a_hat, centered_meat, a_hat)
    zeta = 0.25 * sigma_eta**-6 * gap**2 * vmk**2 * float(np.mean(q**2))

    proj_psi = (psi_split - pooled.psi) @ a_hat
    rho = 0.5 * sigma_eta**-4 * gap * vmk * float(np.mean(proj_psi * q))

    sigma_d2 = 2.0 * (v_hat_D2 + zeta + 2.0 * rho)
    clamped = sigma_d2 < 0.0
    sigma_d2 = max(sigma_d2, 0.0)

    t_stat = float(np.sqrt(plan.n) * gap / sigma_eta)
    kappa = float(np.sqrt(plan.n) * np.sqrt(sigma_d2) / np.sqrt(plan.M))
    return ReproComponents(
        a_hat=a_hat, v_hat_D2=v_hat_D2, zeta_hat_D2=zeta, rho_hat=rho,
        sigma_hat_D2=sigma_d2, sigma_hat_eta=sigma_eta, h_hat=h_hat, tau=tau,
        t_stat=t_stat, kappa=kappa, n=plan.n, M=plan.M, V_G=v_g, clamped=clamped,
    )


def pvalue(t_stat: float, test_type: str) -> float:
    """Normal-approximation p-value for the given alternative."""
    if test_type == "two_sided":
        return float(2.0 * norm_cdf(-abs(t_stat)))
    if test_type == "right":
        return float(norm_cdf(t_stat))
    if test_type == "left":
        return float(norm_cdf(-t_stat))
    raise ValueError(f"unknown test_type {test_type!r}")


def repro_measure(components: ReproComponents, beta: float,
                  test_type: str = "two_sided") -> ReproMeasure:
    """delta(beta): margin such that P(p_2 > p_1 + delta | data) ~ beta."""
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 0.5)")
    t = components.t_stat
    kappa = components.kappa
    if components.sigma_hat_D2 == 0.0:
        delta = 0.0
    elif test_type == "two_sided":
        delta = float(2.0 * norm_cdf(-abs(t) - kappa * norm_ppf(beta / 2.0))
                      - 2.0 * norm_cdf(-abs(t)))
    elif test_type == "right":
        delta = float(norm_cdf(t - kappa * norm_ppf(beta)) - norm_cdf(t))
    elif test_type == "left":
        delta = float(norm_cdf(-t - kappa * norm_ppf(beta)) - norm_cdf(-t))
    else:
        raise ValueError(f"unknown test_type {test_type!r}")
    return ReproMeasure(
        test_type=test_type, beta=beta, delta_hat=delta,
        p1=pvalue(t, test_type), M=components.M, n=components.n,
    )


def conditional_variance_curve(variant: int, mf: MomentFunction, d: Dataset,
                               learner: Learner, K: int, b: int | None,
                               M_list, seed: int = 0, reps: int = 500,
                               h: DeltaSpec = IDENTITY) -> dict:
    """Empirical Var(theta_hat | data) per M, over independent plan draws.

    Returns {M: {"variance": v, "se": standard error of v, "mean": m}}.
    The dataset stays fixed; only the plans (and per-model seeds) vary.
    """
    out = {}
    for j, M in enumerate(M_list):
        values = np.empty(reps)
        for r in range(reps):
            plan = generate_plan(d.n, M=M, K=K, b=b, seed=derived_seed(seed, j, r, 0))
            est = solve(variant, mf, cross_fit(plan, d, learner, seed=derived_seed(seed, j, r, 1)))
            values[r] = h.h(est.theta_hat)
        v = float(np.var(values, ddof=1))
        out[M] = {
            "variance": v,
            "se": v * np.sqrt(2.0 / (reps - 1)),
            "mean": float(values.mean()),
        }
    return out
