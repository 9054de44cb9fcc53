"""Adaptive confidence interval for fast-converging moments.

When the moment's limit variance can be zero (for example the
outcome/prediction covariance when the predictor degenerates to a constant),
the normal CI may undercover. The CI is defined for an average-type moment
psi = f - tau (an ``AverageMoment``; every one-dimensional built-in is one),
whose pooled empirical moment Psi(tau) = mean f - tau is a scalar. Every
variant's estimate of such a moment is theta_hat = pooled mean f, so
Psi(tau) = theta_hat - tau, and the paper's gate
a_n(tau) = 1{Psi_min(tau) * |Psi(tau)| > gamma_n} reads
1{(theta_hat - tau)^2 > gamma_n}. It detects whether Psi(tau) is away from
zero at the sqrt(n) scale; where it is, the exact normal p-value is used,
otherwise the conservative p-value 1. The CI collects the grid points whose
blended p-value exceeds alpha, with bisection-refined endpoints.

At the default c_gamma (see ``AdaptiveConfig``) and a positive standard error
SE, the gate is off exactly where |theta_hat - tau| <= SE / 2, and there the
normal p-value is at least 2 Phi(-1/2) = 0.617. So for every alpha < 0.617
the points the gate keeps already lie inside the normal interval, and the
adaptive CI is the normal CI up to the bisection tolerance of 1e-4 SE. It
differs from the normal CI only at SE = 0 or with a larger c_gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooNarrow
from .evaluation import Evaluations
from .inference import InferenceReport, norm_cdf
from .moments import AverageMoment
from .zestim import ZEstimate


@dataclass
class AdaptiveConfig:
    """Tuning for the adaptive CI.

    The gate threshold is gamma_n = c_gamma / n. The default scale constant
    c_gamma is data-driven (a quarter of the squared delta-method standard
    deviation on the h scale), which makes the gate switch on about half a
    standard error away from the estimate; for strict prespecification supply
    c_gamma explicitly before looking at the data. With that default and a
    standard error SE > 0 the adaptive CI is the normal CI, to the bisection
    tolerance, for every alpha < 0.617; it widens beyond the normal CI only
    when c_gamma exceeds n (z_{1-alpha/2} SE)^2, or when SE = 0.
    """

    c_gamma: float | None = None
    grid_points: int = 2001
    alpha: float = 0.05


@dataclass
class AdaptiveCI:
    intervals: list[tuple[float, float]]
    grid: np.ndarray
    p_values: np.ndarray
    gate: np.ndarray
    psi: np.ndarray
    gamma_n: float
    unbounded: bool
    alpha: float
    normal_interval: tuple[float, float]
    flags: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "intervals": [list(iv) for iv in self.intervals],
            "gamma_n": self.gamma_n,
            "unbounded": self.unbounded,
            "alpha": self.alpha,
            "normal_interval": list(self.normal_interval),
            "kept_points": int(self.gate.size - self.gate.sum()),
            "flags": dict(self.flags),
        }


def adaptive_ci(mf: AverageMoment, ev: Evaluations, estimate: ZEstimate,
                normal: InferenceReport | None, cfg: AdaptiveConfig | None = None) -> AdaptiveCI:
    """Grid inversion of the gated test for an average-type moment.

    ``normal`` is the normal CI of ``estimate`` (``inference.normal_ci`` at the
    same alpha), or None where its variance is zero.
    """
    if not isinstance(mf, AverageMoment):
        raise ValueError(f"the adaptive CI needs an average-type moment psi = f - theta, "
                         f"not {mf.name!r}")
    cfg = cfg or AdaptiveConfig()
    alpha = cfg.alpha
    n = ev.plan.n
    theta = float(estimate.theta_hat[0])

    # the p_e branch: normal approximation scale
    flags = {}
    if normal is None:
        se = 0.0
        normal_iv = (theta, theta)
        flags["zero_variance"] = True
    else:
        se = normal.se
        normal_iv = normal.ci
        flags.update(normal.flags)

    scale = se if se > 0.0 else (float(np.ptp(ev.d.y)) or 1.0) / np.sqrt(n)
    c_gamma = cfg.c_gamma if cfg.c_gamma is not None else 0.25 * (scale * np.sqrt(n)) ** 2
    gamma_n = c_gamma / n
    flags["gamma_n"] = gamma_n

    def blend(grid):
        """Gated p-values at each tau of the grid: (p, a_n, Psi)."""
        psi = theta - grid
        a_n = (psi * psi > gamma_n).astype(np.int64)
        if se > 0.0:
            p_e = 2.0 * norm_cdf(-np.abs(psi / se))
        else:
            p_e = (psi == 0.0).astype(np.float64)
        return a_n * p_e + (1 - a_n), a_n, psi

    lo, hi = theta - 10.0 * scale, theta + 10.0 * scale
    widened = False
    while True:
        grid = np.linspace(lo, hi, cfg.grid_points)
        p, a_n, psi = blend(grid)
        kept = p > alpha
        if not kept.any():
            # keep at least the estimate itself
            intervals = [(theta, theta)]
            return AdaptiveCI(intervals, grid, p, a_n, psi, gamma_n,
                              False, alpha, normal_iv, flags)
        touches = kept[0] or kept[-1]
        all_conservative = bool(kept.all() and (a_n == 0).all())
        if all_conservative:
            return AdaptiveCI([(float(grid[0]), float(grid[-1]))], grid, p, a_n,
                              psi, gamma_n, True, alpha, normal_iv, flags)
        if touches and not widened:
            span = hi - lo
            lo, hi = lo - span / 2.0, hi + span / 2.0
            widened = True
            continue
        if touches:
            raise GridTooNarrow("adaptive CI reaches the grid boundary after widening")
        break

    # contiguous kept runs, outer endpoints refined by bisection
    intervals = []
    idx = np.flatnonzero(kept)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)

    def keep_at(tau):
        return bool(blend(np.array([tau]))[0][0] > alpha)

    tol = 1e-4 * scale
    for run in runs:
        left = float(grid[run[0]])
        right = float(grid[run[-1]])
        if run[0] > 0:
            left = _bisect_edge(keep_at, float(grid[run[0] - 1]), left, tol)
        if run[-1] < grid.size - 1:
            right = _bisect_edge(keep_at, float(grid[run[-1] + 1]), right, tol)
        intervals.append((left, right))
    return AdaptiveCI(intervals, grid, p, a_n, psi, gamma_n,
                      False, alpha, normal_iv, flags)


def _bisect_edge(keep_at, outside: float, inside: float, tol: float) -> float:
    """Boundary between a kept point and a dropped point, to tolerance tol."""
    for _ in range(60):
        if abs(outside - inside) <= tol:
            break
        mid = 0.5 * (outside + inside)
        if keep_at(mid):
            inside = mid
        else:
            outside = mid
    return inside
