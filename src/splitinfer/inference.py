"""Normal-approximation inference for split-sample Z-estimates.

Builds the plug-in Jacobian, the psi outer-product "meat", the
variance-inflation factor, and the sandwich covariance, then applies the delta
method for a scalar reduction h and forms the CI
h(theta) +/- z_{1-alpha/2} * sigma / sqrt(n). Both the moment's Jacobian and
the reduction's gradient are analytic: a ``DeltaSpec`` carries ``grad_h``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import SingularJacobian, ZeroVariance
from .evaluation import Evaluations, pool
from .moments import MomentFunction
from .zestim import ZEstimate

# the standard normal quantile and CDF (elementwise), from the standard library
# so that importing the CLI does not load scipy
norm_ppf = NormalDist().inv_cdf
norm_cdf = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)), otypes=[np.float64])


@dataclass(frozen=True)
class DeltaSpec:
    """Scalar reduction h with its analytic gradient grad_h."""

    name: str
    h: "callable"
    grad_h: "callable"

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_h(np.asarray(theta, dtype=np.float64)), dtype=np.float64)


IDENTITY = DeltaSpec("identity", lambda t: float(np.asarray(t).ravel()[0]),
                     lambda t: np.eye(np.asarray(t).size)[0])


def coordinate_reduction(j: int) -> DeltaSpec:
    def grad(t):
        g = np.zeros(np.asarray(t).size)
        g[j] = 1.0
        return g

    return DeltaSpec(f"coordinate:{j}", lambda t: float(np.asarray(t)[j]), grad)


def difference_reduction(i: int, j: int) -> DeltaSpec:
    def grad(t):
        g = np.zeros(np.asarray(t).size)
        g[i] = 1.0
        g[j] = -1.0
        return g

    return DeltaSpec(f"diff:{i}-{j}", lambda t: float(t[i] - t[j]), grad)


_REDUCTION_RE = re.compile(r"identity|coordinate:(\d+)|diff:(\d+)-(\d+)")


def named_reduction(spec: str, dim: int) -> DeltaSpec:
    """Parse "identity", "coordinate:j", or "diff:i-j" for a dim-dimensional theta.

    Raises ValueError for an unknown spec or an index outside [0, dim).
    """
    match = _REDUCTION_RE.fullmatch(spec)
    if match is None:
        raise ValueError(f"unknown reduction {spec!r}")
    indices = [int(i) for i in match.groups() if i is not None]
    if not all(i < dim for i in indices):
        raise ValueError(f"reduction {spec!r} needs indices in [0, {dim})")
    if not indices:
        return IDENTITY
    return coordinate_reduction(*indices) if len(indices) == 1 else difference_reduction(*indices)


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


def normal_ci(mf: MomentFunction, ev: Evaluations, estimate: ZEstimate,
              h: DeltaSpec = IDENTITY, alpha: float = 0.05) -> InferenceReport:
    """Sandwich-variance normal CI for h(theta_hat).

    Flags ``fast_convergence_risk`` when the meat is numerically degenerate,
    which is the signature of a fast-converging moment (hand the problem to
    the adaptive CI in that case).
    """
    theta = estimate.theta_hat
    plan = ev.plan
    pooled = pool(mf, ev.blocks, theta, meat=True, jacobian=True)
    jac, meat = pooled.jacobian, pooled.meat
    vmk = variance_inflation(plan.M, plan.K, plan.b, plan.n)
    flags = {}
    eigs = np.linalg.eigvalsh(meat)
    if eigs.min() <= 1e-12 * (1.0 + float(theta @ theta)):
        flags["fast_convergence_risk"] = True
    v = sandwich(jac, meat, vmk)
    grad = h.gradient(theta)
    var_h = float(grad @ v @ grad)
    if var_h <= 0.0:
        raise ZeroVariance("delta-method variance is zero; normal CI undefined")
    se = float(np.sqrt(var_h))
    z = float(norm_ppf(1.0 - alpha / 2.0))
    point = float(h.h(theta))
    half = z * se / np.sqrt(plan.n)
    return InferenceReport(
        theta_hat=theta,
        h_hat=point,
        jacobian=jac,
        meat=meat,
        sandwich_matrix=v,
        variance_inflation=vmk,
        se=se / float(np.sqrt(plan.n)),
        ci=(point - half, point + half),
        alpha=alpha,
        n=plan.n,
        flags=flags,
    )
