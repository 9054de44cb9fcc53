"""Training algorithms and the models they produce.

A Learner maps (dataset, seed) to a Model; a Model maps a covariate matrix to
predictions. Learners never mutate the dataset and are deterministic given
(data, seed), so the same split always yields bitwise-identical predictions.
The built-ins are desk-scale stand-ins for the heavy ML algorithms the
framework is agnostic to: constant mean, OLS, ridge, k-NN, a greedy
variance-reduction tree, and a damped-Newton logistic regression. None of
them reads its seed, so each is built with ``seeded=False``, and the split
steps pass it 0 instead of deriving a seed (``evaluation.learner_seed``); a
``Learner(name, fit)`` from outside is seeded, and gets the seed derived from
the run's seed and its split's path. The linear ones read their [1, x] design
from the dataset (``Dataset.design``), gathered from the root's in one take.

The k-NN predict is the one whose cost grows with both the evaluation and the
training rows. It filters, then refines. One matrix product gives every
(row, train) distance up to a rounding error it bounds; only the columns that
bound cannot rule out get an exact distance, which numpy's own ``sum`` takes
over the contiguous feature axis of the gathered differences, as it does in
the (rows x train x p) cube. So the neighbours and their mean are bitwise
those of a stable sort of the summed cube, which is never held (see
``KnnModel``). Evaluation rows go in chunks, and a chunk's candidates in
groups, sized so that each holds at most ``_CHUNK_TERMS`` float64 values.
The filter's planes are allocated once per predict and filled in place with
``out=``: a fresh plane per chunk, once it is larger than the allocator's
mmap threshold, is returned to the operating system on free and faulted back
in on the next allocation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import UnknownLearner


class Model:
    """Prediction function; subclasses implement ``predict``."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstantModel(Model):
    def __init__(self, value: float):
        self.value = float(value)

    def predict(self, x):
        return np.full(np.asarray(x).shape[0], self.value)


class FixedFunctionModel(Model):
    """Wraps an arbitrary pure function of the covariate matrix."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, x):
        return np.asarray(self.fn(np.asarray(x)), dtype=np.float64)


class LinearModel(Model):
    """Affine predictor beta[0] + x @ beta[1:]."""

    def __init__(self, beta: np.ndarray):
        self.beta = np.asarray(beta, dtype=np.float64)

    def predict(self, x):
        x = np.asarray(x)
        return self.beta[0] + x @ self.beta[1:]


class LogisticModel(Model):
    def __init__(self, beta: np.ndarray):
        self.beta = np.asarray(beta, dtype=np.float64)

    def predict(self, x):
        z = self.beta[0] + np.asarray(x) @ self.beta[1:]
        with np.errstate(over="ignore"):  # exp(-z) = inf gives the right 0
            return 1.0 / (1.0 + np.exp(-z))


class KnnModel(Model):
    """Mean outcome of the k nearest training rows by squared euclidean
    distance, ties going to the lower training index: bitwise the mean, in
    order, of the first k columns of a stable argsort of each row of
    ``((x[:, None, :] - train_x[None]) ** 2).sum(axis=2)``.

    The training covariates are stored row-major, as an (n_train, p) array.
    ``predict`` never forms that (rows x n_train x p) cube. It filters, then
    refines, over chunks of at most ``_CHUNK_TERMS // (2 * n_train)``
    evaluation rows:

    1. Filter. Let x' and t' be the rows less c, the training mean, as
       computed. One matrix product of [x', 1] with [-2 t'; |t'|^2] gives
       b = |t'|^2 - 2 x'.t', the approximate distance less |x'|^2, which no
       comparison within a row needs, in one reused plane. ``partition`` on
       a copy in a second plane finds each row's k-th smallest b, b_(k). A
       row's candidates are the columns with b <= b_(k) + 2E, in index order.
    2. Refine. ``_refine`` gathers the candidates' training rows into one
       C-contiguous (rows x width x p) array, subtracts the evaluation rows,
       squares in place and takes ``sum(axis=2)``: the exact distances d of
       the candidates only. It averages the first k of a stable argsort of
       them.

    The bound E. Let u = 2^-53 and R = (|x'| + max_j |t'_j|)^2, which bounds
    the real distance and every partial sum behind b and d. Whatever order
    the sums take, to first order in u: d is within (p + 2) u R + p 2^-1075
    of the real distance |x - t|^2; centring moves each x_f - t_f by at most
    u (|x'_f| + |t'_f|), so |x' - t'|^2 is within 2 u R of it; and
    a = b + |x'|^2, |x'|^2 taken exact, is within (2p + 1) u R + 2p 2^-1075
    of |x' - t'|^2. An operation's rounding is relative, and below the
    normal range a product or square errs by at most 2^-1075 more. So
    |a - d| <= (3p + 5) u R + 3p 2^-1075, and E = (4p + 16)(u R + 2^-1074)
    bounds it with room for the rounding of R, of E and of b_(k) + 2E.
    Centring keeps R, and with it E, small when the covariates share a
    large offset, which would otherwise make every column a candidate.

    Why the result is the cube's stable sort. The k-th smallest of two
    vectors within E of each other are within E, so |a_(k) - d_(k)| <= E. If
    d_j <= d_(k), then a_j <= d_(k) + E <= a_(k) + 2E, that is
    b_j <= b_(k) + 2E: every column at or below the k-th exact distance,
    each tie included, is a candidate. The candidates keep index order, so
    a stable argsort over them picks the columns that one over the whole row
    picks, in the same order; and their d are the cube's bit for bit, since
    numpy's own reduction adds the same squares along the same contiguous
    last axis, whatever order it takes inside.

    The overflow rule. Where R is not below 2^1000, or is not finite, a
    centring, norm or dot product may overflow, and inf - inf gives a NaN
    that fails every comparison. Such a row takes every column as a candidate, so its
    refine is the full stable sort. Below 2^1000 nothing in b or d
    overflows.
    """

    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, k: int):
        self.train_x = np.array(train_x, dtype=np.float64, order="C")
        self.train_y = train_y
        self.k = int(k)

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n_train, p = self.train_x.shape
        if x.shape[1] != p:
            raise ValueError(f"kNN model has {p} covariates, got {x.shape[1]}")
        rows, k = x.shape[0], self.k
        chunk = max(1, min(rows, _CHUNK_TERMS // (2 * n_train)))
        planes = np.empty((2, chunk, n_train))
        kept = np.empty((chunk, n_train), dtype=bool)
        x1 = np.ones((chunk, p + 1))
        t2 = np.empty((p + 1, n_train))
        out = np.empty(rows)
        # overflow and NaN arise only in the rows the overflow rule widens
        with np.errstate(over="ignore", invalid="ignore"):
            centre = self.train_x.mean(axis=0)
            np.subtract(self.train_x.T, centre[:, None], out=t2[:p])
            np.einsum("fj,fj->j", t2[:p], t2[:p], out=t2[p])
            t2[:p] *= -2.0
            t_far = np.sqrt(t2[p].max())
        for r0 in range(0, rows, chunk):
            m = min(chunk, rows - r0)
            b, kth = planes[:, :m]
            xc = x1[:m, :p]
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(x[r0:r0 + m], centre, out=xc)
                reach = (np.sqrt(np.einsum("rf,rf->r", xc, xc)) + t_far) ** 2
                slack = (8 * p + 32) * (2.0**-53 * reach + 2.0**-1074)  # 2E
                np.matmul(x1[:m], t2, out=b)
                np.copyto(kth, b)
                kth.partition(k - 1, axis=1)
                np.less_equal(b, (kth[:, k - 1] + slack)[:, None], out=kept[:m])
            wide = ~(reach < 2.0**1000)
            if wide.any():
                kept[:m][wide] = True
            out[r0:r0 + m] = self._refine(x[r0:r0 + m], kept[:m])
        return out

    def _refine(self, x, kept):
        """Mean outcome of each row's k nearest among its candidate columns
        ``kept`` (rows x n_train, bool), by exact distance and then index.

        A row's candidates sit at the front of a (rows x width) index array,
        width the most candidates any of the rows has; the slots after them
        are padding, at distance inf. Rows go in groups sized so that the
        squared differences and three index arrays hold at most
        ``_CHUNK_TERMS`` values, however many columns tie.
        """
        rows, n_train = kept.shape
        p = x.shape[1]
        flat = np.flatnonzero(kept)  # row-major: each row's candidates in index order
        starts = np.searchsorted(flat, np.arange(rows + 1) * n_train)
        counts = np.diff(starts)
        step = max(1, _CHUNK_TERMS // ((p + 3) * int(counts.max())))
        out = np.empty(rows)
        for s0 in range(0, rows, step):
            s1 = min(rows, s0 + step)
            pad = np.arange(counts[s0:s1].max()) >= counts[s0:s1, None]
            cols = np.zeros(pad.shape, dtype=np.intp)
            cols[~pad] = flat[starts[s0]:starts[s1]] % n_train
            # t - x squares to the bits of x - t; the sum runs over the
            # contiguous last axis, as the cube's does
            width = cols.shape[1]
            diff = self.train_x.take(cols, axis=0)
            by_row = diff.reshape(len(cols), width * p)
            np.subtract(by_row, np.tile(x[s0:s1], width), out=by_row)
            np.multiply(diff, diff, out=diff)
            dist = diff.sum(axis=2)
            dist[pad] = np.inf
            order = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
            out[s0:s1] = self.train_y[np.take_along_axis(cols, order, axis=1)].mean(axis=1)
        return out


# A kNN predict's filter holds two (chunk x n_train) float64 planes, so a
# chunk has at most _CHUNK_TERMS // (2 * n_train) evaluation rows, and the
# chunk's candidates at most half as many indices. The refine takes the
# chunk's rows in groups whose squared differences, (p x width) a row, and
# three index arrays hold at most _CHUNK_TERMS values, whatever the ties (the
# tiled rows subtracted are as large as the differences while they live). So
# each budget is 1 MiB, unless a single row needs more, whatever the fold size.
_CHUNK_TERMS = 1 << 17


class TreeModel(Model):
    """Binary regression tree stored as parallel node arrays."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        # all rows descend one level per pass; a row at a leaf drops out
        node = np.zeros(x.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            at = node[active]
            go_left = x[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node]


# ---------------------------------------------------------------------------
# learners


@dataclass(frozen=True)
class Learner:
    """Named training algorithm: ``train(dataset, seed) -> Model``.

    ``fit`` is any Python callable, so this is also how an outside model is
    attached; a ``fit`` that needs its own process can start one. ``seeded``
    says whether ``fit`` reads its seed: a seeded learner gets a seed derived
    from the run's seed and its split's path, any other gets 0. An outside
    learner is seeded unless built with ``seeded=False``; no built-in is.
    """

    name: str
    fit: "callable" = field(repr=False)
    seeded: bool = True

    def train(self, d: Dataset, seed: int = 0) -> Model:
        return self.fit(d, seed)


def _fit_mean(d: Dataset, seed) -> Model:
    return ConstantModel(float(np.mean(d.y)))


def _fit_ols(d: Dataset, seed) -> Model:
    beta, *_ = np.linalg.lstsq(d.design, d.y, rcond=None)
    return LinearModel(beta)


def _make_fit_ridge(lam: float):
    def fit(d: Dataset, seed) -> Model:
        z = d.design
        pen = lam * np.eye(z.shape[1])
        pen[0, 0] = 0.0  # intercept unpenalized
        beta = np.linalg.solve(z.T @ z + pen, z.T @ d.y)
        return LinearModel(beta)

    return fit


def _make_fit_knn(k: int):
    def fit(d: Dataset, seed) -> Model:
        kk = min(int(k), d.n)
        return KnnModel(d.x, d.y.copy(), kk)

    return fit


def _make_fit_tree(depth: int):
    def fit(d: Dataset, seed) -> Model:
        return _grow_tree(d.x, d.y, int(depth))

    return fit


def _grow_tree(x: np.ndarray, y: np.ndarray, max_depth: int) -> TreeModel:
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(rows: np.ndarray, depth: int) -> int:
        node = add_node()
        value[node] = float(np.mean(y[rows]))
        if depth >= max_depth or rows.size < 2:
            return node
        best = None  # (sse, feature, threshold)
        for j in range(x.shape[1]):
            xs = x[rows, j]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            ys_sorted = y[rows][order]
            distinct = np.nonzero(np.diff(xs_sorted))[0]
            if distinct.size == 0:
                continue
            csum = np.cumsum(ys_sorted)
            csq = np.cumsum(ys_sorted**2)
            n_left = distinct + 1
            n_right = rows.size - n_left
            sum_l = csum[distinct]
            sq_l = csq[distinct]
            sse = (sq_l - sum_l**2 / n_left) + (
                (csq[-1] - sq_l) - (csum[-1] - sum_l) ** 2 / n_right
            )
            i = int(np.argmin(sse))
            cand = (float(sse[i]), j, float(0.5 * (xs_sorted[distinct[i]] + xs_sorted[distinct[i] + 1])))
            if best is None or cand[0] < best[0] - 1e-12:
                best = cand
        if best is None:
            return node
        _, j, thr = best
        go_left = rows[x[rows, j] <= thr]
        go_right = rows[x[rows, j] > thr]
        if go_left.size == 0 or go_right.size == 0:
            return node
        feature[node] = j
        threshold[node] = thr
        left[node] = build(go_left, depth + 1)
        right[node] = build(go_right, depth + 1)
        return node

    build(np.arange(x.shape[0]), 0)
    return TreeModel(
        np.array(feature), np.array(threshold), np.array(left), np.array(right), np.array(value)
    )


def _fit_logistic(d: Dataset, seed) -> Model:
    # damped Newton on ridge-penalized log-likelihood; penalty keeps separation finite
    z = d.design
    y = d.y
    lam = 1e-8
    beta = np.zeros(z.shape[1])
    for _ in range(100):
        eta = z @ beta
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-eta))
        grad = z.T @ (y - p) - lam * beta
        if np.linalg.norm(grad) < 1e-10:
            break
        w = p * (1.0 - p)
        hess = (z * w[:, None]).T @ z + lam * np.eye(z.shape[1])
        step = np.linalg.solve(hess, grad)
        # halve until the penalized log-likelihood does not decrease
        ll0 = np.sum(y * eta - np.logaddexp(0.0, eta)) - 0.5 * lam * beta @ beta
        alpha = 1.0
        for _ in range(30):
            cand = beta + alpha * step
            eta_c = z @ cand
            ll = np.sum(y * eta_c - np.logaddexp(0.0, eta_c)) - 0.5 * lam * cand @ cand
            if ll >= ll0:
                break
            alpha *= 0.5
        beta = beta + alpha * step
    return LogisticModel(beta)


_PARAM_RE = re.compile(r"^([a-z_]+)\((-?[0-9.eE+]+)\)$")


def builtin(name: str) -> Learner:
    """Look up a built-in learner by name, e.g. "ols", "ridge(0.5)", "knn(3)"."""
    plain = {
        "mean": _fit_mean,
        "ols": _fit_ols,
        "logistic": _fit_logistic,
    }
    if name in plain:
        return Learner(name, plain[name], seeded=False)
    match = _PARAM_RE.match(name.strip())
    if match and match.group(1) in ("ridge", "knn", "tree"):
        kind, raw = match.groups()
        value = float(raw)
        if not math.isfinite(value):
            raise UnknownLearner(f"{kind} needs a finite parameter, got {raw}")
        if kind == "ridge":
            if value < 0:
                raise UnknownLearner(f"ridge penalty must be >= 0, got {value}")
            return Learner(name, _make_fit_ridge(value), seeded=False)
        if value != int(value):
            raise UnknownLearner(f"{kind} needs an integer parameter, got {raw}")
        if kind == "knn":
            if value < 1:
                raise UnknownLearner(f"knn needs k >= 1, got {raw}")
            return Learner(name, _make_fit_knn(int(value)), seeded=False)
        if value < 1:  # kind == "tree"
            raise UnknownLearner(f"tree needs depth >= 1, got {raw}")
        return Learner(name, _make_fit_tree(int(value)), seeded=False)
    raise UnknownLearner(f"no built-in learner named {name!r}")

