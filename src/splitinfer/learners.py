"""Training algorithms and the models they produce.

A Learner maps (dataset, seed) to a Model; a Model maps a covariate matrix to
predictions. Learners never mutate the dataset and are deterministic given
(data, seed), so the same split always yields bitwise-identical predictions.
The built-ins are desk-scale stand-ins for the heavy ML algorithms the
framework is agnostic to: constant mean, OLS, ridge, k-NN, a greedy
variance-reduction tree, and a damped-Newton logistic regression.

External ML backends can be attached through :class:`SubprocessLearner`,
which speaks a line-delimited JSON protocol (described in its docstring).
"""

from __future__ import annotations

import json
import math
import re
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import EmptyModelList, LearnerFailure, UnknownLearner
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
        return 1.0 / (1.0 + np.exp(-z))


class KnnModel(Model):
    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, k: int):
        self.train_x = train_x
        self.train_y = train_y
        self.k = int(k)

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        # squared euclidean distances
        d2 = ((x[:, None, :] - self.train_x[None, :, :]) ** 2).sum(axis=2)
        return self.train_y[self._nearest(d2)].mean(axis=1)

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
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = 0
            while self.feature[node] >= 0:
                if row[self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[i] = self.value[node]
        return out


class AveragedModel(Model):
    """Equal-weight pointwise mean of member predictions."""

    def __init__(self, models):
        models = list(models)
        if not models:
            raise EmptyModelList("average_model needs at least one member")
        self.models = models

    def predict(self, x):
        acc = self.models[0].predict(x).astype(np.float64, copy=True)
        for model in self.models[1:]:
            acc += model.predict(x)
        return acc / len(self.models)


def average_model(models) -> AveragedModel:
    """Pointwise-mean predictor over a nonempty model list."""
    return AveragedModel(models)


# ---------------------------------------------------------------------------
# learners


@dataclass(frozen=True)
class Learner:
    """Named training algorithm: ``train(dataset, seed) -> Model``."""

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
        return KnnModel(d.x.copy(), d.y.copy(), kk)

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


# ---------------------------------------------------------------------------
# subprocess learner protocol


class SubprocessModel(Model):
    def __init__(self, argv, blob):
        self.argv = list(argv)
        self.blob = blob

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        reply = _roundtrip(self.argv, {"op": "predict", "model": self.blob, "x": x.tolist()})
        return np.asarray(reply["pred"], dtype=np.float64)


class SubprocessLearner:
    """Learner backed by an external process speaking line-delimited JSON.

    Requests are single JSON lines on stdin; the process answers one JSON line
    on stdout and exits. ``{"op": "train", "y": [...], "x": [[...]], "seed": s}``
    must yield ``{"ok": true, "model": <any json>}``; ``{"op": "predict",
    "model": ..., "x": [[...]]}`` must yield ``{"ok": true, "pred": [...]}``.
    """

    def __init__(self, argv, name: str = "subprocess"):
        self.argv = list(argv)
        self.name = name

    def train(self, d: Dataset, seed: int = 0) -> Model:
        request = {"op": "train", "y": d.y.tolist(), "x": d.x.tolist(), "seed": int(seed)}
        reply = _roundtrip(self.argv, request)
        return SubprocessModel(self.argv, reply["model"])


def _roundtrip(argv, request) -> dict:
    proc = subprocess.run(
        argv,
        input=json.dumps(request) + "\n",
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise LearnerFailure(-1, -1, f"subprocess exited {proc.returncode}: {proc.stderr[:500]}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    if not reply.get("ok"):
        raise LearnerFailure(-1, -1, reply.get("error", "subprocess reported failure"))
    return reply
