"""Out-of-fold predictions, computed once per split, and the pooled moment.

Every estimator in this package is a function of the same out-of-fold
predictions eta = model_(m,k)(x[eval rows of (m, k)]). :func:`evaluate`
computes them once, after ``train_all``; the Z-solve, the CIs, the comparison
test and the reproducibility margin read them and never call ``predict``.
:func:`pool` is the one loop over splits that evaluates a moment on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import NonFiniteJacobian
from .splits import SplitPlan


def group_codes(d: Dataset) -> np.ndarray | None:
    """Index of each row's group label among the sorted labels of the whole
    dataset; None without a group column."""
    if d.roles.group is None:
        return None
    return np.unique(d.g, return_inverse=True)[1]


def _take(arr, rows):
    return arr if rows is None or arr is None else arr.take(rows, axis=0)


@dataclass(frozen=True, eq=False)
class Block:
    """One split's evaluation rows (None: all rows) and its model's predictions
    there. Only ``eta`` is held; ``y`` and the group codes ``g`` are gathered
    from the whole-dataset arrays on access."""

    m: int
    k: int
    rows: np.ndarray | None
    eta: np.ndarray
    model: object = field(repr=False)
    y_all: np.ndarray = field(repr=False)
    g_all: np.ndarray | None = field(repr=False)

    @classmethod
    def of(cls, model, d: Dataset, rows=None, m: int = -1, k: int = -1,
           codes=None) -> "Block":
        """Predict once on ``rows`` (all rows when None)."""
        if codes is None:
            codes = group_codes(d)
        return cls(m, k, rows, model.predict(_take(d.x, rows)), model, d.y, codes)

    @property
    def y(self) -> np.ndarray:
        return _take(self.y_all, self.rows)

    @property
    def g(self) -> np.ndarray | None:
        return _take(self.g_all, self.rows)


@dataclass(frozen=True, eq=False)
class Evaluations:
    """The blocks of every split in plan order, (m, k) lexicographic, and for
    a model comparison the baseline's block on all rows."""

    plan: SplitPlan
    d: Dataset
    blocks: tuple[Block, ...]
    baseline: Block | None = None


def evaluate(models, plan: SplitPlan, d: Dataset, baseline=None) -> Evaluations:
    """One ``predict`` per split on its evaluation rows, plus one for the
    baseline model on all rows when one is given."""
    codes = group_codes(d)
    blocks = tuple(
        Block.of(models[(m, k)], d, rows, m, k, codes)
        for m, rep in enumerate(plan.repetitions)
        for k, rows in enumerate(rep)
    )
    base = None if baseline is None else Block.of(baseline, d, None, codes=codes)
    return Evaluations(plan, d, blocks, base)


@dataclass(frozen=True)
class Pooled:
    """Each block's mean psi (S, dim) and mean psi psi^T (S, dim, dim) at one
    theta, their means over the blocks (``meat`` symmetrized), and the mean of
    the blocks' Jacobian estimates; the parts not asked for are None."""

    split_psi: np.ndarray | None = None
    psi: np.ndarray | None = None
    split_meat: np.ndarray | None = None
    meat: np.ndarray | None = None
    jacobian: np.ndarray | None = None


def pool(mf, blocks, theta, psi: bool = True, meat: bool = False,
         jacobian: bool = False) -> Pooled:
    """Evaluate the moment ``mf`` at ``theta`` on every block, in one pass over
    any iterable of blocks (which may make each block only when it is reached).
    psi is evaluated only when ``psi`` or ``meat`` is asked for."""
    theta = np.asarray(theta, dtype=np.float64)
    with_psi = psi or meat
    split_psi, split_meat, jacs = [], [], []
    count = 0
    for b in blocks:
        count += 1
        if with_psi:
            values = mf.psi_eta(theta, b.eta, b.y, b.g)
            split_psi.append(values.mean(axis=0))
        if meat:
            split_meat.append(values.T @ values / values.shape[0])
        if jacobian:
            jacs.append(mf.jacobian_eta(theta, b.eta, b.y, b.g))
    # sum() adds block by block; np.mean would sum pairwise and move the last
    # bits, which the golden reports pin
    dim = mf.dim
    jac = sum(jacs) / count if jacobian else None
    if jacobian and not np.all(np.isfinite(jac)):
        raise NonFiniteJacobian("plug-in Jacobian has non-finite entries")
    mean_meat = sum(split_meat) / count if meat else None
    return Pooled(
        split_psi=np.array(split_psi).reshape(count, dim) if with_psi else None,
        psi=sum(split_psi) / count if with_psi else None,
        split_meat=np.array(split_meat).reshape(count, dim, dim) if meat else None,
        meat=0.5 * (mean_meat + mean_meat.T) if meat else None,
        jacobian=jac,
    )
