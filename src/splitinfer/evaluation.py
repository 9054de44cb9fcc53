"""Out-of-fold predictions, computed once per split, and the pooled moment.

Every estimator in this package is a function of the same out-of-fold
predictions eta = model_(m,k)(x[eval rows of (m, k)]). :func:`fit_split` is
the one step that trains a split's model (on the complement of its evaluation
rows, unless told otherwise) and predicts once on those rows; a training error
leaves it as ``LearnerFailure``, naming the learner and the split (m, k). The
model dies with the step; a ``visit`` may predict with it on other rows first.
:func:`cross_fit` runs the step split after split over a plan, and GATES calls
it split by split. The Z-solve, the CIs, the comparison test and the
reproducibility margin read the predictions and never call ``predict``.
:func:`pool` is the one loop over splits that evaluates a moment on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, complement
from .errors import LearnerFailure, NonFiniteJacobian
from .learners import Learner
from .rng import derived_seed
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
    there. Only ``eta`` is held, not the model; ``y`` and the group codes ``g``
    are gathered from the whole-dataset arrays on access."""

    m: int
    k: int
    rows: np.ndarray | None
    eta: np.ndarray
    y_all: np.ndarray = field(repr=False)
    g_all: np.ndarray | None = field(repr=False)

    @classmethod
    def of(cls, model, d: Dataset, rows=None, m: int = -1, k: int = -1,
           codes=None) -> "Block":
        """Predict once on ``rows`` (all rows when None)."""
        if codes is None:
            codes = group_codes(d)
        return cls(m, k, rows, model.predict(_take(d.x, rows)), d.y, codes)

    @property
    def y(self) -> np.ndarray:
        return _take(self.y_all, self.rows)

    @property
    def g(self) -> np.ndarray | None:
        return _take(self.g_all, self.rows)


@dataclass(frozen=True, eq=False)
class Evaluations:
    """The blocks of every split in plan order, (m, k) lexicographic."""

    plan: SplitPlan
    d: Dataset
    blocks: tuple[Block, ...]


def fit_split(learner: Learner, d: Dataset, rows: np.ndarray, seed: int, m: int, k: int,
              train_rows=None, codes=None, visit=None) -> Block:
    """Split (m, k)'s step: train ``learner`` with ``seed`` on ``train_rows``
    (by default the complement of ``rows``, built for this split only),
    predict once on ``rows`` and call ``visit(model, block)``, the last use
    of the model; ``codes`` are ``group_codes(d)``, computed here when not
    given. A training error is raised as ``LearnerFailure`` with the
    learner's name and (m, k)."""
    if train_rows is None:
        train_rows = complement(rows, d.n)
    try:
        model = learner.train(d.subset(train_rows), seed)
    except Exception as exc:  # noqa: BLE001
        raise LearnerFailure(learner.name, m, k, exc) from exc
    block = Block.of(model, d, rows, m, k, codes)
    if visit is not None:
        visit(model, block)
    return block


def cross_fit(plan: SplitPlan, d: Dataset, learner: Learner, seed: int = 0,
              visit=None) -> Evaluations:
    """:func:`fit_split` with ``visit`` on each split (m, k) of ``plan``, one
    after another in plan order, seeded by derived_seed(seed, m, k).

    Each split's predictions are copied into one float64 buffer for the whole
    plan (its block holds a view), so none sits on the heap among later
    splits' freed training temporaries, where the holes left depended on
    earlier allocations and moved one commit's peak RSS by several MB.
    """
    codes = group_codes(d)
    splits = [(m, k, rows) for m, rep in enumerate(plan.repetitions)
              for k, rows in enumerate(rep)]
    ends = np.cumsum([rows.size for _, _, rows in splits])
    etas = np.empty(int(ends[-1]))

    def fit_one(split, end):
        m, k, rows = split
        block = fit_split(learner, d, rows, derived_seed(seed, m, k), m, k, codes=codes,
                          visit=visit)
        eta = etas[end - rows.size:end]
        eta[...] = block.eta
        return replace(block, eta=eta)

    return Evaluations(plan, d, tuple(map(fit_one, splits, ends)))


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
