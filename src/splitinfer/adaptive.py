"""Adaptive confidence interval for fast-converging moments.

When the moment's limit variance can be zero (for example the
outcome/prediction covariance when the predictor degenerates to a constant),
the normal CI may undercover. The gate a_n(tau) = 1{Psi_min(tau) * Psi(tau) >
gamma_n} detects whether the pooled empirical moment at tau is away from zero
at the sqrt(n) scale; where it is, the exact normal p-value is used, otherwise
the conservative p-value 1. The CI collects the grid points whose blended
p-value exceeds alpha, with bisection-refined endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooNarrow, ZeroVariance
from .evaluation import Evaluations, pool
from .inference import IDENTITY, norm_cdf, normal_ci
from .moments import AverageMoment, MomentFunction
from .zestim import ZEstimate


@dataclass
class AdaptiveConfig:
    """Tuning for the adaptive CI.

    The gate threshold is gamma_n = c_gamma / n. The default scale constant
    c_gamma is data-driven (a quarter of the squared delta-method standard
    deviation on the h scale), which makes the gate switch on about half a
    standard error away from the estimate; for strict prespecification supply
    c_gamma explicitly before looking at the data.
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
    psi_min: np.ndarray
    psi_norm: np.ndarray
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


def _pooled_moment_fn(mf: MomentFunction, ev: Evaluations):
    """Returns tau -> pooled empirical moment vector, vectorizable over a grid."""
    if isinstance(mf, AverageMoment):
        # psi = f - tau, so each block's mean psi at tau = 0 is its mean f
        pooled_f = pool(mf, ev.blocks, np.zeros(1)).split_psi.mean()

        def fn(tau_grid):
            tau_grid = np.atleast_1d(np.asarray(tau_grid, dtype=np.float64))
            return (pooled_f - tau_grid)[:, None]

        return fn

    def fn(tau_grid):
        tau_grid = np.atleast_1d(np.asarray(tau_grid, dtype=np.float64))
        return np.array([pool(mf, ev.blocks, [tau]).psi for tau in tau_grid])

    return fn


def gate(mf: MomentFunction, ev: Evaluations, tau: float, gamma_n: float):
    """(Psi_min, Psi, a_n) at tau: a_n = 1{Psi_min * Psi > gamma_n}."""
    pooled = _pooled_moment_fn(mf, ev)(np.array([tau]))[0]
    psi_min = float(np.abs(pooled).min())
    psi_norm = float(np.linalg.norm(pooled))
    return psi_min, psi_norm, int(psi_min * psi_norm > gamma_n)


def adaptive_ci(mf: MomentFunction, ev: Evaluations, estimate: ZEstimate,
                cfg: AdaptiveConfig | None = None) -> AdaptiveCI:
    """Grid inversion of the gated test for a one-dimensional moment."""
    if mf.dim != 1:
        raise ValueError("adaptive_ci needs a one-dimensional moment (reduce first)")
    cfg = cfg or AdaptiveConfig()
    alpha = cfg.alpha
    n = ev.plan.n
    theta = float(estimate.theta_hat[0])

    # the p_e branch: normal approximation scale
    flags = {}
    try:
        report = normal_ci(mf, ev, estimate, IDENTITY, alpha)
        se = report.se
        normal_iv = report.ci
        flags.update(report.flags)
    except ZeroVariance:
        se = 0.0
        normal_iv = (theta, theta)
        flags["zero_variance"] = True

    scale = se if se > 0.0 else (float(np.ptp(ev.d.y)) or 1.0) / np.sqrt(n)
    c_gamma = cfg.c_gamma if cfg.c_gamma is not None else 0.25 * (scale * np.sqrt(n)) ** 2
    gamma_n = c_gamma / n
    flags["gamma_n"] = gamma_n

    pooled_fn = _pooled_moment_fn(mf, ev)

    def blend(grid):
        """Gated p-values at each tau of the grid: (p, a_n, psi_min, psi_norm)."""
        pooled = pooled_fn(grid)
        psi_min = np.abs(pooled).min(axis=1)
        psi_norm = np.linalg.norm(pooled, axis=1)
        a_n = (psi_min * psi_norm > gamma_n).astype(np.int64)
        if se > 0.0:
            p_e = 2.0 * norm_cdf(-np.abs((theta - grid) / se))
        else:
            p_e = (grid == theta).astype(np.float64)
        return a_n * p_e + (1 - a_n), a_n, psi_min, psi_norm

    lo, hi = theta - 10.0 * scale, theta + 10.0 * scale
    widened = False
    while True:
        grid = np.linspace(lo, hi, cfg.grid_points)
        p, a_n, psi_min, psi_norm = blend(grid)
        kept = p > alpha
        if not kept.any():
            # keep at least the estimate itself
            intervals = [(theta, theta)]
            return AdaptiveCI(intervals, grid, p, a_n, psi_min, psi_norm, gamma_n,
                              False, alpha, normal_iv, flags)
        touches = kept[0] or kept[-1]
        all_conservative = bool(kept.all() and (a_n == 0).all())
        if all_conservative:
            return AdaptiveCI([(float(grid[0]), float(grid[-1]))], grid, p, a_n,
                              psi_min, psi_norm, gamma_n, True, alpha, normal_iv, flags)
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
    return AdaptiveCI(intervals, grid, p, a_n, psi_min, psi_norm, gamma_n,
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
