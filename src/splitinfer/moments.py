"""Moment functions psi(theta; eta, y, g).

Built-ins cover the standard model-property estimands: mean squared error,
probabilistic and exact classification rates, outcome/prediction covariance,
OLS of the outcome on the model prediction, the between-group MSE gap, and the
tercile-fraction system (three group fractions plus two quantile conditions).

Moments are evaluated on the arrays of one evaluation split: the predictions
``eta``, the outcome ``y`` and the group codes ``g`` (``evaluation.group_codes``).
This array form (``psi_eta``, ``f_eta``, ...) never calls ``predict``; custom
moments implement it, together with an analytic Jacobian (see
``MomentFunction``).

Every built-in carries an analytic Jacobian; the tercile system is piecewise
constant in theta and is handled by one closed-form solve
(``TercileFractions.solve_pooled``) plus a dedicated Jacobian construction
(see ``TercileFractions.jacobian_eta``).
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import IncompatibleRoles, NonFiniteJacobian, UnknownMoment


class MomentFunction:
    """Vector-valued moment abstraction.

    A custom moment implements ``psi_eta`` and either ``jac_rows_eta`` (the
    per-row Jacobians, averaged by the base ``jacobian_eta``) or
    ``jacobian_eta`` itself; the package computes no Jacobian numerically.
    Unless it subclasses ``AverageMoment`` it is solved by damped Newton from
    ``initial_guess_eta``.

    Attributes
    ----------
    dim : parameter/moment dimension d.

    A moment of the form psi = f(eta, y) - theta subclasses ``AverageMoment``;
    the solvers dispatch on that class and reduce Z-estimation to averaging f.
    """

    name = "custom"
    dim = 1

    def validate(self, d: Dataset) -> None:
        """Raise IncompatibleRoles when the dataset lacks required roles."""

    def psi_eta(self, theta, eta, y, g=None) -> np.ndarray:
        """Per-row moment values, shape (len(eta), dim)."""
        raise NotImplementedError

    def jac_rows_eta(self, theta, eta, y, g=None) -> np.ndarray:
        """Per-row Jacobians d psi / d theta, shape (len(eta), dim, dim)."""
        raise NotImplementedError

    def jacobian_eta(self, theta, eta, y, g=None) -> np.ndarray:
        """Estimated Jacobian of the subsample-mean moment at theta."""
        out = self.jac_rows_eta(theta, eta, y, g).mean(axis=0)
        if not np.all(np.isfinite(out)):
            raise NonFiniteJacobian(f"non-finite Jacobian for moment {self.name!r}")
        return out

    def initial_guess_eta(self, eta, y, g=None) -> np.ndarray:
        return np.zeros(self.dim)


class AverageMoment(MomentFunction):
    """psi = f(eta, y) - theta for a scalar f; Jacobian is -1.

    ``f_eta`` acts row by row: the comparison covariance evaluates it on the
    rows of several splits at once (see ``compare.sigma_from_values``)."""

    dim = 1

    def f_eta(self, eta, y, g=None) -> np.ndarray:
        raise NotImplementedError

    def psi_eta(self, theta, eta, y, g=None):
        theta = np.asarray(theta, dtype=np.float64)
        return (self.f_eta(eta, y, g) - theta[0])[:, None]

    def jac_rows_eta(self, theta, eta, y, g=None):
        return np.broadcast_to(-np.eye(1), (eta.shape[0], 1, 1))

    def jacobian_eta(self, theta, eta, y, g=None):
        return -np.eye(1)


class Mse(AverageMoment):
    name = "mse"

    def f_eta(self, eta, y, g=None):
        return (y - eta) ** 2


class ClassifyProb(AverageMoment):
    """Correct-classification rate of a probabilistic classifier."""

    name = "classify_prob"

    def f_eta(self, eta, y, g=None):
        return eta * (y == 1.0) + (1.0 - eta) * (y == 0.0)

    def validate(self, d):
        y = d.y
        if not np.all((y == 0.0) | (y == 1.0)):
            raise IncompatibleRoles("classify_prob needs a binary outcome")


class ClassifyBinary(AverageMoment):
    """Exact-match classification rate; the model must emit labels in {0,1}."""

    name = "classify_binary"

    def f_eta(self, eta, y, g=None):
        return (y == eta).astype(np.float64)


class Covariance(AverageMoment):
    """psi = y * eta(x) - theta, the prediction/outcome covariance when E y = 0."""

    name = "covariance"

    def f_eta(self, eta, y, g=None):
        return y * eta


class LinregOnEta(MomentFunction):
    """OLS moment for the regression y ~ theta0 + theta1 * eta(x)."""

    name = "linreg_on_eta"
    dim = 2

    def psi_eta(self, theta, eta, y, g=None):
        theta = np.asarray(theta, dtype=np.float64)
        r = y - theta[0] - theta[1] * eta
        return np.column_stack([r, r * eta])

    def jac_rows_eta(self, theta, eta, y, g=None):
        out = np.empty((eta.shape[0], 2, 2))
        out[:, 0, 0] = -1.0
        out[:, 0, 1] = -eta
        out[:, 1, 0] = -eta
        out[:, 1, 1] = -(eta**2)
        return out

    def initial_guess_eta(self, eta, y, g=None):
        z = np.column_stack([np.ones(eta.shape[0]), eta])
        beta, *_ = np.linalg.lstsq(z, y, rcond=None)
        return beta


class GroupMseGap(MomentFunction):
    """Per-group MSEs (theta_1, theta_2) for the two group labels, sorted.

    The fairness gap is the coordinate difference; combine with the "diff"
    reduction for inference on theta_1 - theta_2.
    """

    name = "group_mse_gap"
    dim = 2

    def validate(self, d):
        if d.roles.group is None:
            raise IncompatibleRoles("group_mse_gap needs a group column")
        if np.unique(d.g).size != 2:
            raise IncompatibleRoles("group_mse_gap needs exactly two group labels")

    def psi_eta(self, theta, eta, y, g=None):
        theta = np.asarray(theta, dtype=np.float64)
        in_a, in_b = g == 0, g == 1
        sq = (y - eta) ** 2
        return np.column_stack([(sq - theta[0]) * in_a, (sq - theta[1]) * in_b])

    def jac_rows_eta(self, theta, eta, y, g=None):
        out = np.zeros((eta.shape[0], 2, 2))
        out[:, 0, 0] = -(g == 0).astype(np.float64)
        out[:, 1, 1] = -(g == 1).astype(np.float64)
        return out

    def initial_guess_eta(self, eta, y, g=None):
        in_a, in_b = g == 0, g == 1
        sq = (y - eta) ** 2
        a = float(sq[in_a].mean()) if in_a.any() else 0.0
        b = float(sq[in_b].mean()) if in_b.any() else 0.0
        return np.array([a, b])


class TercileFractions(MomentFunction):
    """Outcome fractions by tercile of the model prediction, J = 3.

    Parameters are (theta_1, theta_2, theta_3, t_1, t_2): three group means of
    the outcome and the two prediction quantile thresholds. Group membership
    uses half-open intervals (t_{j-1}, t_j]; ties go to the lower group. The
    moment is piecewise constant in (t_1, t_2), so it is solved in closed form
    (``solve_pooled``) and its Jacobian is built from the block structure
    rather than finite differences: the threshold rows only require the
    prediction density and the outcome's conditional mean at each threshold,
    and the density factors cancel out of every functional of the fraction
    block. Heavily tied predictions (a shallow tree, say) make the Jacobian
    numerically singular: when the k nearest predictions to a threshold all
    equal it, the density estimate there is k / (n * 2e-12), so the CIs and
    tests raise ``SingularJacobian`` (exit 2 from the CLI).
    """

    name = "tercile_fractions"
    dim = 5

    @staticmethod
    def group_masks(eta, t1, t2):
        """Membership of each prediction in the groups (-inf, t1], (t1, t2], (t2, inf)."""
        return eta <= t1, (eta > t1) & (eta <= t2), eta > t2

    def psi_eta(self, theta, eta, y, g=None):
        theta = np.asarray(theta, dtype=np.float64)
        g1, g2, g3 = self.group_masks(eta, theta[3], theta[4])
        return np.column_stack(
            [
                (y - theta[0]) * g1,
                (y - theta[1]) * g2,
                (y - theta[2]) * g3,
                g1.astype(np.float64) - 1.0 / 3.0,
                (eta <= theta[4]).astype(np.float64) - 2.0 / 3.0,
            ]
        )

    def solve_pooled(self, split_items) -> np.ndarray:
        """Closed-form solve of the averaged moment over one or more splits.

        ``split_items`` is a list of (eta_values, y_values) pairs; each split
        contributes weight 1/(n_splits * |s|) per row. The thresholds are the
        type-1 (left-inverse) quantiles of the weighted predictions, the
        smallest prediction whose cumulative weight reaches 1/3 and 2/3; the
        group coordinates are the weighted group means of y.
        """
        n_splits = len(split_items)
        eta = np.concatenate([e for e, _ in split_items])
        y = np.concatenate([v for _, v in split_items])
        w = np.concatenate([np.full(e.shape[0], 1.0 / (n_splits * e.shape[0]))
                            for e, _ in split_items])
        order = np.argsort(eta, kind="stable")
        cum = np.cumsum(w[order])
        total = cum[-1]
        thresholds = []
        for j in (1, 2):
            target = j * total / 3.0
            pos = int(np.searchsorted(cum, target - 1e-12, side="left"))
            thresholds.append(float(eta[order[min(pos, eta.size - 1)]]))
        t1, t2 = thresholds
        means = [float((w[g] * y[g]).sum() / w[g].sum()) if g.any() else 0.0
                 for g in self.group_masks(eta, t1, t2)]
        return np.array([*means, t1, t2])

    def jacobian_eta(self, theta, eta, y, g=None):
        theta = np.asarray(theta, dtype=np.float64)
        g1, g2, g3 = self.group_masks(eta, theta[3], theta[4])
        n = eta.shape[0]
        p = np.array([g1.mean(), g2.mean(), g3.mean()])
        p = np.maximum(p, 1.0 / n)
        # local estimates at each threshold: k-nearest predictions by distance
        k = max(5, int(round(math.sqrt(n))))
        m_hat = np.empty(2)
        f_hat = np.empty(2)
        for idx, t in enumerate(theta[3:5]):
            near = np.argsort(np.abs(eta - t), kind="stable")[: min(k, n)]
            m_hat[idx] = float(y[near].mean())
            width = 2.0 * max(float(np.abs(eta[near] - t).max()), 1e-12)
            f_hat[idx] = near.size / (n * width)
        jac = np.zeros((5, 5))
        jac[0, 0], jac[1, 1], jac[2, 2] = -p
        jac[0, 3] = (m_hat[0] - theta[0]) * f_hat[0]
        jac[1, 3] = -(m_hat[0] - theta[1]) * f_hat[0]
        jac[1, 4] = (m_hat[1] - theta[1]) * f_hat[1]
        jac[2, 4] = -(m_hat[1] - theta[2]) * f_hat[1]
        jac[3, 3] = f_hat[0]
        jac[4, 4] = f_hat[1]
        return jac


_BUILTINS = {
    cls.name: cls
    for cls in (Mse, ClassifyProb, ClassifyBinary, Covariance, LinregOnEta, GroupMseGap, TercileFractions)
}


def builtin_moment(name: str) -> MomentFunction:
    """Instantiate a built-in moment function by name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise UnknownMoment(f"no built-in moment named {name!r}") from None

