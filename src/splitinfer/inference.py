"""Normal-approximation inference for split-sample Z-estimates.

``delta_variance`` is the one delta method of the package. It reads the psi
"meat" and the plug-in Jacobian that ``zestim.solve`` pooled over the splits
at theta_hat (``ZEstimate.pooled``), applies the variance-inflation factor
V_{M,K}, forms the sandwich V = V_{M,K} J^{-1} meat J^{-T} and reduces it to
c^T V c for the gradient c of a scalar reduction h; it makes no pass over the
splits. ``normal_ci`` turns that into the CI
h(theta) +/- z_{1-alpha/2} * sigma / sqrt(n); the model comparison and the
reproducibility margin call it too. Every reduction a config can name is a
linear contrast (a ``DeltaSpec``), so its gradient is a constant vector and
the delta method is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularJacobian, ZeroVariance
from .evaluation import Evaluations
from .splits import SplitPlan
from .zestim import ZEstimate

try:  # the C routine statistics.NormalDist.inv_cdf calls, without statistics,
    # which loads fractions and decimal
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter built without the C module
    def _normal_dist_inv_cdf(p, mu, sigma):
        from statistics import NormalDist
        return NormalDist(mu, sigma).inv_cdf(p)


def norm_ppf(p: float) -> float:
    """The standard normal quantile, bitwise ``statistics.NormalDist().inv_cdf``;
    a p outside (0, 1) raises ValueError."""
    if p <= 0.0 or p >= 1.0:
        raise ValueError("p must be in the range 0.0 < p < 1.0")
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


# the standard normal CDF (elementwise), like the quantile from the standard
# library so that importing the CLI does not load scipy
norm_cdf = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)), otypes=[np.float64])


@dataclass(frozen=True)
class DeltaSpec:
    """The contrast h(theta) = theta_i - theta_j, or theta_i when j is None.

    Its gradient is the constant e_i - e_j, so the delta method is exact."""

    name: str
    i: int = 0
    j: int | None = None

    def h(self, theta) -> float:
        theta = np.asarray(theta, dtype=np.float64).ravel()
        return float(theta[self.i] if self.j is None else theta[self.i] - theta[self.j])

    def gradient(self, theta) -> np.ndarray:
        grad = np.zeros(np.asarray(theta).size)
        grad[self.i] = 1.0
        if self.j is not None:
            grad[self.j] -= 1.0
        return grad


IDENTITY = DeltaSpec("identity")

_REDUCTION_RE = re.compile(r"identity|coordinate:(\d+)|diff:(\d+)-(\d+)")


def named_reduction(spec: str, dim: int) -> DeltaSpec:
    """Parse "identity", "coordinate:j", or "diff:i-j" for a dim-dimensional theta.

    Raises ValueError for an unknown spec, an index outside [0, dim), or a
    difference of a coordinate with itself, which is identically zero.
    """
    match = _REDUCTION_RE.fullmatch(spec)
    if match is None:
        raise ValueError(f"unknown reduction {spec!r}")
    indices = [int(i) for i in match.groups() if i is not None]
    if not all(i < dim for i in indices):
        raise ValueError(f"reduction {spec!r} needs indices in [0, {dim})")
    if not indices:
        return IDENTITY
    if len(indices) == 2 and indices[0] == indices[1]:
        raise ValueError(f"reduction {spec!r} is identically zero: diff needs i != j")
    return DeltaSpec(spec, *indices)


def variance_inflation(M: int, K: int, b: int, n: int) -> float:
    """V_{M,K}: 1 for cross-fitting, (n/b + M - 1)/M for sample-splitting."""
    if K > 1:
        return 1.0
    return (n / b + M - 1.0) / M


def nonsingular(jac: np.ndarray) -> np.ndarray:
    """jac as a float array; ``SingularJacobian`` if it is numerically singular."""
    jac = np.asarray(jac, dtype=np.float64)
    scale = float(np.abs(jac).max())
    if scale == 0.0 or abs(np.linalg.det(jac)) <= 1e-12 * scale ** jac.shape[0]:
        raise SingularJacobian("moment Jacobian is numerically singular")
    return jac


def sandwich(jac: np.ndarray, meat: np.ndarray, inflation: float) -> np.ndarray:
    """V = inflation * J^{-1} meat J^{-T}, symmetrized."""
    jac = nonsingular(jac)
    inv = np.linalg.solve(jac, np.eye(jac.shape[0]))
    v = inflation * inv @ meat @ inv.T
    return 0.5 * (v + v.T)


@dataclass
class InferenceReport:
    theta_hat: np.ndarray
    h_hat: float
    jacobian: np.ndarray
    meat: np.ndarray
    sandwich_matrix: np.ndarray
    variance_inflation: float
    se: float
    ci: tuple[float, float]
    alpha: float
    n: int
    flags: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "theta_hat": self.theta_hat.tolist(),
            "h_hat": self.h_hat,
            "jacobian": self.jacobian.tolist(),
            "meat": self.meat.tolist(),
            "sandwich": self.sandwich_matrix.tolist(),
            "variance_inflation": self.variance_inflation,
            "se": self.se,
            "ci": list(self.ci),
            "alpha": self.alpha,
            "n": self.n,
            "flags": dict(self.flags),
        }


@dataclass(frozen=True)
class DeltaVariance:
    """V_{M,K}, the sandwich V, the gradient c of h and c^T V c."""

    inflation: float
    sandwich: np.ndarray
    grad: np.ndarray
    variance: float


def delta_variance(estimate: ZEstimate, plan: SplitPlan,
                   h: DeltaSpec = IDENTITY) -> DeltaVariance:
    """Delta-method variance of h(theta_hat) from ``estimate.pooled`` on ``plan``."""
    pooled = estimate.pooled
    vmk = variance_inflation(plan.M, plan.K, plan.b, plan.n)
    v = sandwich(pooled.jacobian, pooled.meat, vmk)
    grad = h.gradient(estimate.theta_hat)
    return DeltaVariance(vmk, v, grad, float(grad @ v @ grad))


def normal_ci(ev: Evaluations, estimate: ZEstimate, h: DeltaSpec = IDENTITY,
              alpha: float = 0.05) -> InferenceReport:
    """Sandwich-variance normal CI for h(theta_hat) from ``estimate.pooled``;
    ``ev`` holds the evaluations ``estimate`` solved.

    Flags ``fast_convergence_risk`` when the meat is numerically degenerate,
    which is the signature of a fast-converging moment (hand the problem to
    the adaptive CI in that case).
    """
    theta = estimate.theta_hat
    n = ev.plan.n
    dv = delta_variance(estimate, ev.plan, h)
    meat = estimate.pooled.meat
    flags = {}
    eigs = np.linalg.eigvalsh(meat)
    if eigs.min() <= 1e-12 * (1.0 + float(theta @ theta)):
        flags["fast_convergence_risk"] = True
    if dv.variance <= 0.0:
        raise ZeroVariance("delta-method variance is zero; normal CI undefined")
    se = float(np.sqrt(dv.variance))
    z = float(norm_ppf(1.0 - alpha / 2.0))
    point = h.h(theta)
    half = z * se / np.sqrt(n)
    return InferenceReport(
        theta_hat=theta,
        h_hat=point,
        jacobian=estimate.pooled.jacobian,
        meat=meat,
        sandwich_matrix=dv.sandwich,
        variance_inflation=dv.inflation,
        se=se / float(np.sqrt(n)),
        ci=(point - half, point + half),
        alpha=alpha,
        n=n,
        flags=flags,
    )
