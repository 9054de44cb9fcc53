"""Split-sample Z-estimators, three aggregation variants.

Variant 1 solves the moment condition separately on every evaluation split and
averages the solutions. Variant 2 solves the single equation obtained by
averaging the per-split empirical moments. Variant 3 pools within each
repetition and averages the per-repetition solutions. For average-type moments
(psi = f - theta) all three coincide and are computed in closed form; the
tercile-fraction system is likewise solved in closed form because its moment
is piecewise constant in the thresholds. Everything else goes through a damped
Newton iteration; a degenerate system (a singular Jacobian, or a line search
that stalls) raises ``SingularJacobian`` or ``NoConvergence`` rather than
switching to another algorithm.

The solvers read the out-of-fold predictions in an ``Evaluations`` (see
``evaluation.cross_fit``) and evaluate the moment in its array form through
``evaluation.pool``; they never call ``predict``. ``solve`` ends with the one
pass that pools the moment at theta_hat (``ZEstimate.pooled``); the residual,
the normal CI, sigma_delta and the reproducibility margin read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import NoConvergence, SingularJacobian
from .evaluation import Evaluations, Pooled, pool
from .moments import AverageMoment, MomentFunction, TercileFractions

DEFAULT_TOL = 1e-10


@dataclass
class ZEstimate:
    """One variant's theta_hat, and ``pooled``, psi, meat and Jacobian pooled
    over every split at theta_hat, which the inference reads; not reported."""

    variant: int
    theta_hat: np.ndarray
    per_split_thetas: dict[tuple[int, int], np.ndarray] | None = None
    per_repetition_thetas: dict[int, np.ndarray] | None = None
    iterations: int = 0
    residual_norm: float = 0.0
    pooled: Pooled | None = field(default=None, repr=False)

    def to_jsonable(self) -> dict:
        out = {
            "variant": self.variant,
            "theta_hat": self.theta_hat.tolist(),
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
        }
        if self.per_split_thetas is not None:
            out["per_split_thetas"] = {
                f"{m},{k}": v.tolist() for (m, k), v in self.per_split_thetas.items()
            }
        if self.per_repetition_thetas is not None:
            out["per_repetition_thetas"] = {
                str(m): v.tolist() for m, v in self.per_repetition_thetas.items()
            }
        return out


def _tolerance(theta: np.ndarray) -> float:
    return DEFAULT_TOL * (1.0 + float(np.linalg.norm(theta)))


def newton_solve(fun, jac, theta0, max_iter=80):
    """Damped Newton root-finder on a vector system.

    ``fun(theta)`` returns the stacked moment, ``jac(theta)`` its Jacobian
    estimate. A residual norm within ``DEFAULT_TOL`` * (1 + |theta|) counts
    as solved. Returns (theta, iterations, residual_norm). Raises
    ``SingularJacobian`` when a Newton step cannot be solved or is not
    finite, and ``NoConvergence`` when 40 step halvings give no sufficient
    decrease or ``max_iter`` iterations miss the tolerance.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    value = fun(theta)
    for it in range(1, max_iter + 1):
        norm = float(np.linalg.norm(value))
        if norm <= _tolerance(theta):
            return theta, it - 1, norm
        try:
            step = np.linalg.solve(jac(theta), -value)
        except np.linalg.LinAlgError:
            raise SingularJacobian("Newton step is unsolvable: singular Jacobian") from None
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Newton step is not finite")
        alpha = 1.0
        for _ in range(40):
            cand = theta + alpha * step
            cand_value = fun(cand)
            if np.linalg.norm(cand_value) <= (1.0 - 1e-4 * alpha) * norm:
                theta, value = cand, cand_value
                break
            alpha *= 0.5
        else:
            raise NoConvergence(f"line search stalled at residual {norm:.3e}")
    norm = float(np.linalg.norm(value))
    if norm <= _tolerance(theta):
        return theta, max_iter, norm
    raise NoConvergence(f"residual {norm:.3e} after {max_iter} iterations")


def solve_blocks(mf: MomentFunction, group) -> tuple[np.ndarray, int]:
    """Solve the averaged moment over one group of blocks (size >= 1): an
    ``Evaluations`` or a list, iterated again for each evaluation of the
    moment. An average moment and the tercile system take one pass.

    Returns (theta, iterations).
    """
    if isinstance(mf, AverageMoment):
        # psi = f - theta, so each block's mean psi at theta = 0 is its mean f
        return pool(mf, group, np.zeros(1)).split_psi.mean(axis=0), 0
    if isinstance(mf, TercileFractions):
        return mf.solve_pooled([(b.eta, b.y) for b in group]), 0
    b0 = next(iter(group))
    return newton_solve(lambda theta: pool(mf, group, theta).psi,
                        lambda theta: pool(mf, group, theta, psi=False, jacobian=True).jacobian,
                        mf.initial_guess_eta(b0.eta, b0.y, b0.g))[:2]


def per_split_estimates(mf: MomentFunction, ev: Evaluations):
    """Variant-1 ingredients: one solved theta per (m, k)."""
    mf.validate(ev.d)
    return {(b.m, b.k): solve_blocks(mf, [b])[0] for b in ev}


def solve(variant: int, mf: MomentFunction, ev: Evaluations) -> ZEstimate:
    """Solve the split-sample Z-estimator for the requested variant, then pool
    the moment at theta_hat over every split once (``ZEstimate.pooled``)."""
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    mf.validate(ev.d)

    thetas, iters, residual = {}, 0, 0.0
    if variant == 2:
        theta_hat, iters = solve_blocks(mf, ev)
    else:
        # a group is one split (variant 1) or one repetition's consecutive
        # splits (variant 3), held for all its passes and its residual's
        by = (lambda b: (b.m, b.k)) if variant == 1 else (lambda b: b.m)
        for key, group in groupby(ev, by):
            group = list(group)
            thetas[key], it = solve_blocks(mf, group)
            iters = max(iters, it)
            residual = max(residual, float(np.linalg.norm(pool(mf, group, thetas[key]).psi)))
        theta_hat = np.mean(list(thetas.values()), axis=0)
    pooled = pool(mf, ev, theta_hat, meat=True, jacobian=True)
    if variant == 2:  # the pooled moment's residual, else the largest group's
        residual = float(np.linalg.norm(pooled.psi))
    return ZEstimate(variant, theta_hat, thetas if variant == 1 else None,
                     thetas if variant == 3 else None, iters, residual, pooled)
