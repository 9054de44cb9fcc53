"""Training algorithms and the models they produce.

A Learner maps (dataset, seed) to a Model; a Model maps a covariate matrix to
predictions. Learners never mutate the dataset and are deterministic given
(data, seed), so the same split always yields bitwise-identical predictions.
The built-ins are desk-scale stand-ins for the heavy ML algorithms the
framework is agnostic to: constant mean, OLS, ridge, k-NN, a greedy
variance-reduction tree, and a damped-Newton logistic regression.

The k-NN predict is the one whose cost grows with both the evaluation and the
training rows. It sums squared differences one feature at a time, in the
order numpy's pairwise ``add.reduce`` uses on a contiguous axis, so its
distances are bitwise those of summing the (rows x train x p) cube without
ever holding it. Evaluation rows go in chunks sized so that the work buffer
holds at most ``_CHUNK_TERMS`` float64 values. The buffer is allocated once
per predict and filled in place with ``out=``: a fresh array per feature and
chunk, once it is larger than the allocator's mmap threshold, is returned to
the operating system on free and faulted back in on the next allocation.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import LearnerFailure, UnknownLearner
from .rng import derived_seed
from .splits import SplitPlan, enumerate_pairs


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
    distance, ties going to the lower training index.

    The training covariates are stored feature-major, as a (p, n_train)
    array. ``predict`` never forms the (rows x n_train x p) difference cube:
    it takes the evaluation rows in chunks of at most
    ``_CHUNK_TERMS // (slots * n_train)`` rows and sums each chunk's
    distances one feature at a time into one work buffer of ``slots``
    (chunk x n_train) planes, allocated once per call and reused with
    ``out=`` across features and chunks, so that no memory is freed and
    faulted back in between them. ``_sum_squares`` adds the feature
    terms in the order numpy's ``add.reduce`` uses on a contiguous axis, so
    the distances, and with them the neighbours chosen among ties, are
    bitwise those of ``((x[:, None, :] - train_x[None]) ** 2).sum(axis=2)``.
    """

    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, k: int):
        self.train_t = np.array(np.asarray(train_x, dtype=np.float64).T, order="C")
        self.train_y = train_y
        self.k = int(k)

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        p, n_train = self.train_t.shape
        if x.shape[1] != p:
            raise ValueError(f"kNN model has {p} covariates, got {x.shape[1]}")
        slots = _sum_squares_slots(p)
        chunk = max(1, min(x.shape[0], _CHUNK_TERMS // (slots * n_train)))
        buf = np.empty((slots, chunk, n_train))
        xt = x.T[:, :, None]  # xt[f, r] broadcasts against train_t[f]
        out = np.empty(x.shape[0])
        for r0 in range(0, x.shape[0], chunk):
            work = buf[:, :min(chunk, x.shape[0] - r0)]
            _sum_squares(xt[:, r0:r0 + chunk], self.train_t, work)
            out[r0:r0 + chunk] = self.train_y[self._nearest(work[0])].mean(axis=1)
        return out

    def _nearest(self, d2):
        """Indices of the k nearest training rows per row of d2, ordered by
        (distance, index): what a stable argsort of each row would give."""
        k = self.k
        near = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
        near_d2 = np.take_along_axis(d2, near, axis=1)
        near = np.take_along_axis(near, np.argsort(near_d2, axis=1, kind="stable"), axis=1)
        # where more than k rows lie within the k-th distance, the partition
        # picked among the ties at it arbitrarily: sort those rows in full
        kth = near_d2.max(axis=1, keepdims=True)
        tied = np.flatnonzero((d2 <= kth).sum(axis=1) > k)
        if tied.size:
            near[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        return near


# evaluation rows per chunk times training rows times buffer planes: a kNN
# predict's work buffer holds at most _CHUNK_TERMS float64 values (1 MiB)
# unless a single row needs more, whatever the fold size.
_CHUNK_TERMS = 1 << 17


def _sum_squares_slots(p: int) -> int:
    """Planes ``_sum_squares`` needs for p features: the result and a term for
    p < 8, eight partial sums and a term up to 128, and one more plane to hold
    the first half at each split above 128."""
    if p > 128:
        half = p // 2 - (p // 2) % 8
        return max(_sum_squares_slots(half), 1 + _sum_squares_slots(p - half))
    return 2 if p < 8 else 9


def _square_diff(a, b, out):
    np.subtract(a, b, out=out)
    return np.multiply(out, out, out=out)


def _sum_squares(xt, tt, buf):
    """buf[0] = sum over f of (xt[f] - tt[f]) ** 2; buf[1:] is scratch.

    The terms are added in numpy's pairwise order for a contiguous reduction
    axis: one after another for p < 8; for p <= 128, eight partial sums over
    features j, j + 8, ..., combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the p % 8 leftover features in order; above 128, the same rule on
    each side of p // 2 rounded down to a multiple of 8.
    """
    p = xt.shape[0]
    if p > 128:
        half = p // 2 - (p // 2) % 8
        _sum_squares(xt[:half], tt[:half], buf)
        _sum_squares(xt[half:], tt[half:], buf[1:])
        np.add(buf[0], buf[1], out=buf[0])
        return
    if p < 8:
        if p == 0:
            buf[0].fill(0.0)
        else:
            _square_diff(xt[0], tt[0], buf[0])
        for f in range(1, p):
            np.add(buf[0], _square_diff(xt[f], tt[f], buf[1]), out=buf[0])
        return
    body = p - p % 8
    for f in range(8):
        _square_diff(xt[f], tt[f], buf[f])
    for f in range(8, body):
        np.add(buf[f % 8], _square_diff(xt[f], tt[f], buf[8]), out=buf[f % 8])
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        np.add(buf[a], buf[b], out=buf[a])
    for f in range(body, p):
        np.add(buf[0], _square_diff(xt[f], tt[f], buf[8]), out=buf[0])


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
    attached; a ``fit`` that needs its own process can start one.
    """

    name: str
    fit: "callable" = field(repr=False)

    def train(self, d: Dataset, seed: int = 0) -> Model:
        return self.fit(d, seed)


def _fit_mean(d: Dataset, seed) -> Model:
    return ConstantModel(float(np.mean(d.y)))


def _design(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.shape[0]), x])


def _fit_ols(d: Dataset, seed) -> Model:
    beta, *_ = np.linalg.lstsq(_design(d.x), d.y, rcond=None)
    return LinearModel(beta)


def _make_fit_ridge(lam: float):
    def fit(d: Dataset, seed) -> Model:
        z = _design(d.x)
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
    z = _design(d.x)
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
        return Learner(name, plain[name])
    match = _PARAM_RE.match(name.strip())
    if match and match.group(1) in ("ridge", "knn", "tree"):
        kind, raw = match.groups()
        value = float(raw)
        if not math.isfinite(value):
            raise UnknownLearner(f"{kind} needs a finite parameter, got {raw}")
        if kind == "ridge":
            if value < 0:
                raise UnknownLearner(f"ridge penalty must be >= 0, got {value}")
            return Learner(name, _make_fit_ridge(value))
        if kind == "knn":
            k = int(value)
            if k < 1:
                raise UnknownLearner(f"knn needs k >= 1, got {k}")
            return Learner(name, _make_fit_knn(k))
        depth = int(value)  # kind == "tree"
        if depth < 1:
            raise UnknownLearner(f"tree needs depth >= 1, got {depth}")
        return Learner(name, _make_fit_tree(depth))
    raise UnknownLearner(f"no built-in learner named {name!r}")


def train_all(plan: SplitPlan, d: Dataset, learner: Learner, seed: int = 0,
              threads: int = 1) -> dict[tuple[int, int], Model]:
    """Train one model per (m, k) on the training side of each split.

    Every model gets the seed derived from (seed, m, k), so the result does
    not depend on scheduling order or thread count.
    """
    pairs = enumerate_pairs(plan)

    def fit_one(item):
        m, k, pair = item
        try:
            return (m, k), learner.train(d.subset(pair.train_rows), derived_seed(seed, m, k))
        except Exception as exc:  # noqa: BLE001
            raise LearnerFailure(m, k, exc) from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fitted = list(pool.map(fit_one, pairs))
    else:
        fitted = [fit_one(item) for item in pairs]
    return dict(fitted)
