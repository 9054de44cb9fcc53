"""Out-of-fold predictions, computed once per split, and the pooled moment.

Every estimator in this package is a function of the same out-of-fold
predictions eta = model_(m,k)(x[eval rows of (m, k)]). :func:`fit_split` is
the one step that trains a split's model (on the view of the complement of
its evaluation rows, unless given another training view) and predicts once
on those rows; a training error leaves it as ``LearnerFailure``, naming the
learner and the split (m, k). Its seed comes from :func:`learner_seed`:
derived from the run's seed and the split's path for a seeded learner, 0 for
one that reads none (every built-in). The model dies with the step; a
``visit`` may predict with it on other rows first.
:func:`cross_fit` runs the step split after split over a plan, and GATES calls
it split by split. ``cross_fit`` leaves an :class:`Evaluations`: the plan and
one buffer of the predictions. Iterating it is the one pass over the splits;
it yields each split's :class:`Block` (rows, predictions, outcome and group
codes) and keeps none. The Z-solve, the CIs, the comparison test and the
reproducibility margin read the predictions and never call ``predict``.
:func:`pool` evaluates a moment on every block of one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def learner_seed(learner, seed: int, *path: int) -> int:
    """The seed a split step passes ``learner``: ``derived_seed(seed, *path)``
    for a seeded learner, and 0, with no derivation, for one whose ``seeded``
    is False. A learner without the attribute counts as seeded."""
    return derived_seed(seed, *path) if getattr(learner, "seeded", True) else 0


@dataclass(frozen=True, eq=False)
class Block:
    """One split's evaluation ``rows`` (None: all rows), its model's
    predictions ``eta`` there, and the outcome ``y`` and group codes ``g``
    (None without a group column) on those rows. Only the predictions are
    held, not the model."""

    m: int
    k: int
    rows: np.ndarray | None
    eta: np.ndarray
    y: np.ndarray
    g: np.ndarray | None

    @classmethod
    def of(cls, model, d: Dataset, rows=None, m: int = -1, k: int = -1,
           codes=None) -> "Block":
        """Predict once on ``rows`` (all rows when None); ``codes`` are
        ``group_codes(d)``, computed here when not given."""
        if codes is None:
            codes = group_codes(d)
        if rows is None:
            return cls(m, k, None, model.predict(d.x), d.y, codes)
        return cls(m, k, rows, model.predict(d.x.take(rows, axis=0)), d.y.take(rows),
                   None if codes is None else codes.take(rows))


@dataclass(frozen=True, eq=False)
class Evaluations:
    """The out-of-fold predictions of every split of ``plan`` in one buffer,
    ``etas``: each split's on its rows in increasing order, split after split
    in plan order, (m, k) lexicographic (fold-major). ``codes`` are
    ``group_codes(d)``. No per-split object is held.

    Iterating it yields each split's ``Block`` in plan order: its rows derived
    from the plan's labels, its y and g gathered once, its eta a view of
    ``etas``. Each pass iterates it again, so it holds one split at a time."""

    plan: SplitPlan
    d: Dataset
    etas: np.ndarray
    codes: np.ndarray | None

    def __iter__(self):
        y, g, end = self.d.y, self.codes, 0
        for m, labels in enumerate(self.plan.folds):
            for k in range(self.plan.K):
                rows = eval_rows(labels, k)
                eta = self.etas[end:end + rows.size]
                end += rows.size
                yield Block(m, k, rows, eta, y.take(rows), None if g is None else g.take(rows))


def fit_split(learner: Learner, d: Dataset, rows: np.ndarray, seed: int, m: int, k: int,
              train: Dataset | None = None, visit=None) -> np.ndarray:
    """Split (m, k)'s step: train ``learner`` with ``seed``, which every caller
    takes from :func:`learner_seed`, on the view ``train`` (by default ``d``'s
    view on the complement of ``rows``, built for this split only; a caller
    fitting several learners on one fold builds it once and passes it to
    each), predict once on ``rows``, call ``visit(model, m, k)``, the last use
    of the model, and return the predictions. A training error is raised as
    ``LearnerFailure`` with the learner's name and (m, k)."""
    if train is None:
        train = d.subset(complement(rows, d.n))
    try:
        model = learner.train(train, seed)
    except Exception as exc:  # noqa: BLE001
        raise LearnerFailure(learner.name, m, k, exc) from exc
    eta = model.predict(d.x.take(rows, axis=0))
    if visit is not None:
        visit(model, m, k)
    return eta


def cross_fit(plan: SplitPlan, d: Dataset, learner: Learner, seed: int = 0,
              visit=None) -> Evaluations:
    """:func:`fit_split` with ``visit`` on each split (m, k) of ``plan``, one
    after another in plan order, seeded by ``learner_seed(learner, seed, m,
    k)``: derived_seed(seed, m, k) for a seeded learner, 0 for a built-in.
    Each split derives its rows from the plan's labels for its step only.

    Each split's predictions are copied into one float64 buffer for the whole
    plan, so none sits on the heap among later splits' freed training
    temporaries, where the holes left depended on earlier allocations and
    moved one commit's peak RSS by several MB.
    """
    etas = np.empty(int(fold_sizes(plan.folds, plan.K).sum()))
    end = 0
    for m, labels in enumerate(plan.folds):
        for k in range(plan.K):
            rows = eval_rows(labels, k)
            etas[end:end + rows.size] = fit_split(learner, d, rows,
                                                  learner_seed(learner, seed, m, k),
                                                  m, k, visit=visit)
            end += rows.size
    return Evaluations(plan, d, etas, group_codes(d))


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
    ``blocks``, an ``Evaluations`` or any other iterable of blocks. psi is
    evaluated only when ``psi`` or ``meat`` is asked for."""
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
