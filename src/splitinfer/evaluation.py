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
from .splits import SplitPlan, eval_rows, fold_sizes


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
    """One split's evaluation rows and its model's predictions there. Only
    ``eta`` is held, not the model. The rows are ``index`` (None: all rows)
    or, in a ``cross_fit`` block, the rows whose label in ``labels``, a view
    of its repetition's row of the plan's fold labels, is ``k``; ``rows``
    derives those on each access and the block never keeps them. ``y`` and
    the group codes ``g`` are gathered from the whole-dataset arrays on
    access (``g`` reads no rows without a group column). A pass that reads a
    block's rows, y or g more than once takes ``with_rows()`` first, so it
    derives them once."""

    m: int
    k: int
    index: np.ndarray | None
    eta: np.ndarray
    y_all: np.ndarray = field(repr=False)
    g_all: np.ndarray | None = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def of(cls, model, d: Dataset, rows=None, m: int = -1, k: int = -1,
           codes=None) -> "Block":
        """Predict once on ``rows`` (all rows when None)."""
        if codes is None:
            codes = group_codes(d)
        return cls(m, k, rows, model.predict(_take(d.x, rows)), d.y, codes)

    @property
    def rows(self) -> np.ndarray | None:
        return self.index if self.labels is None else eval_rows(self.labels, self.k)

    def with_rows(self) -> "Block":
        """This block with its rows derived once and held, for one pass."""
        if self.labels is None:
            return self
        return Block(self.m, self.k, self.rows, self.eta, self.y_all, self.g_all)

    @property
    def y(self) -> np.ndarray:
        return _take(self.y_all, self.rows)

    @property
    def g(self) -> np.ndarray | None:
        return None if self.g_all is None else _take(self.g_all, self.rows)


@dataclass(frozen=True, eq=False)
class Evaluations:
    """The blocks of every split in plan order, (m, k) lexicographic, and
    ``etas``, the one buffer that holds their predictions: each split's on
    its rows in increasing order, one split after another (fold-major)."""

    plan: SplitPlan
    d: Dataset
    blocks: tuple[Block, ...]
    etas: np.ndarray


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
    after another in plan order, seeded by derived_seed(seed, m, k). Each
    split derives its rows from the plan's labels for its step; the block it
    leaves holds the labels, not the rows.

    Each split's predictions are copied into one float64 buffer for the whole
    plan (its block holds a view), so none sits on the heap among later
    splits' freed training temporaries, where the holes left depended on
    earlier allocations and moved one commit's peak RSS by several MB.
    """
    codes = group_codes(d)
    etas = np.empty(int(fold_sizes(plan.folds, plan.K).sum()))
    blocks, end = [], 0
    for m, labels in enumerate(plan.folds):
        for k in range(plan.K):
            rows = eval_rows(labels, k)
            block = fit_split(learner, d, rows, derived_seed(seed, m, k), m, k, codes=codes,
                              visit=visit)
            eta = etas[end:end + rows.size]
            eta[...] = block.eta
            end += rows.size
            blocks.append(replace(block, index=None, eta=eta, labels=labels))
    return Evaluations(plan, d, tuple(blocks), etas)


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
        b = b.with_rows()
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
