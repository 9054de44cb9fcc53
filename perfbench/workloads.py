"""The benchmark's workloads: input generators, CLI configs and an independent
k-NN reference.

Inputs come from the benchmark's own generators, not from ``splitinfer.sim``,
so that a change to the package cannot change what it is measured on. Each
generator follows the shape of the package DGP the workload is named after
and is a pure function of the seed (numpy ``default_rng`` keyed by
``(seed, tag)``). Values reach the CLI through a CSV written with ``repr``,
which round-trips every float exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import special


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _correlated_normals(rng, n: int, p: int, rho: float) -> np.ndarray:
    corr = np.full((p, p), rho)
    np.fill_diagonal(corr, 1.0)
    return rng.standard_normal((n, p)) @ np.linalg.cholesky(corr).T


def base_table(n: int, seed: int) -> dict[str, np.ndarray]:
    """Eight mixed-margin covariates (continuous, skewed, discrete, binary)
    and a binary outcome, like the package's ``base`` generator."""
    rng = _rng(seed, 1)
    z = _correlated_normals(rng, n, 8, 0.25)
    u = special.ndtr(z)
    cols = {
        "x1": z[:, 0],
        "x2": np.exp(0.5 * z[:, 1]),
        "x3": np.floor(u[:, 2] * 6.0),
        "x4": (u[:, 3] > 0.7).astype(np.float64),
        "x5": -np.log1p(-u[:, 4]),
        "x6": u[:, 5],
        "x7": 2.0 * z[:, 6] + 1.0,
        "x8": np.floor(u[:, 7] * 3.0),
    }
    score = 0.8 * cols["x1"] + 0.5 * cols["x4"] - 0.3 * cols["x6"] - 1.5
    cols["y"] = (rng.random(n) < special.expit(score)).astype(np.float64)
    return cols


def linear_cate_table(n: int, seed: int) -> dict[str, np.ndarray]:
    """Randomized trial with a linear CATE 1 + x1, like ``linear_cate``."""
    rng = _rng(seed, 2)
    x = rng.standard_normal((n, 3))
    t = (rng.random(n) < 0.5).astype(np.float64)
    y = x @ np.linspace(1.0, 0.5, 3) + t * (1.0 + x[:, 0]) + rng.standard_normal(n)
    cols = {f"x{i + 1}": x[:, i] for i in range(3)}
    cols.update({"y": y, "t": t})
    return cols


def hte_table(n: int, seed: int) -> dict[str, np.ndarray]:
    """Randomized trial with a zero-inflated count outcome whose treatment
    effect is predictable from the covariates, like ``hte`` "predictable"."""
    rng = _rng(seed, 3)
    x = _correlated_normals(rng, n, 6, 0.2)
    g0 = x @ np.array([0.9, -0.6, 0.4, 0.0, 0.0, -0.3])
    g1 = x @ np.array([0.5, 0.4, -0.3, 0.2, 0.0, 0.0])
    is_zero = rng.random(n) < special.expit(-0.3 + g0)
    y0 = np.where(is_zero, 0.0, 1.0 + rng.poisson(np.exp(np.clip(0.6 + 0.5 * g1, -10.0, 5.0))))
    lift = rng.poisson(np.exp(np.clip(-0.5 + 0.8 * g1, -10.0, 3.0)))
    t = (rng.random(n) < 0.5).astype(np.float64)
    cols = {f"x{i + 1}": x[:, i] for i in range(6)}
    cols.update({"y": np.where(t == 1.0, y0 + lift, y0), "t": t})
    return cols


def write_csv(path: str, cols: dict[str, np.ndarray]) -> None:
    names = list(cols)
    rows = zip(*(cols[name].tolist() for name in names))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]
    generator: object
    n: int
    M: int
    K: int
    learners: tuple[str, ...]
    mc_draws: int | None
    schema: dict
    extra: dict

    def record(self) -> dict:
        """What a result file records about the workload."""
        return {"command": self.command, "flags": list(self.flags), "n": self.n, "M": self.M,
                "K": self.K, "learners": list(self.learners), "mc_draws": self.mc_draws}

    def config(self, csv_path: str, report_path: str, seed: int) -> dict:
        cfg = {
            "method": self.command,
            "data": {"path": csv_path, "schema": self.schema},
            "plan": {"M": self.M, "K": self.K, "seed": int(seed)},
            "output": {"path": report_path},
            **self.extra,
        }
        if len(self.learners) == 1:
            cfg["learner"] = self.learners[0]
        else:
            cfg["learners"] = list(self.learners)
        return cfg

    def argv(self, config_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--threads", "1", *self.flags]


_TRIAL = {"outcome": "y", "treatment": "t", "propensity": 0.5}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="estimate_knn",
            command="estimate", flags=("--adaptive", "--emit-plan"),
            generator=base_table, n=1000, M=10, K=3, learners=("knn(10)",), mc_draws=None,
            schema={"outcome": "y", "covariates": [f"x{i}" for i in range(1, 9)]},
            extra={"moment": "mse", "variant": 2},
        ),
        Workload(
            name="compare_n20k",
            command="compare", flags=(),
            generator=linear_cate_table, n=20_000, M=100, K=3, learners=("ols",),
            mc_draws=100_000,
            schema={**_TRIAL, "covariates": ["x1", "x2", "x3"]},
            extra={"moment": "mse", "compare": {"baseline": "mean", "mc_draws": 100_000}},
        ),
        Workload(
            name="gates_hte",
            command="gates", flags=(),
            generator=hte_table, n=2000, M=100, K=3, learners=("ols", "ridge(1.0)"),
            mc_draws=20_000,
            schema={**_TRIAL, "covariates": [f"x{i}" for i in range(1, 7)]},
            extra={"gates": {"het_test": True, "baselines": True, "mc_draws": 20_000}},
        ),
    )
}


def write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)


# ---------------------------------------------------------------------------
# independent reference for estimate_knn


def knn_predict(train_x, train_y, eval_x, k: int, chunk: int = 64) -> np.ndarray:
    """Brute-force k-NN mean on squared euclidean distance; ties go to the
    lowest training index. Eval rows are processed in chunks to bound memory."""
    out = np.empty(eval_x.shape[0])
    for lo in range(0, eval_x.shape[0], chunk):
        block = eval_x[lo:lo + chunk]
        d2 = ((block[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
        idx = np.broadcast_to(np.arange(train_x.shape[0]), d2.shape)
        nearest = np.lexsort((idx, d2), axis=1)[:, :k]
        out[lo:lo + chunk] = train_y[nearest].mean(axis=1)
    return out


def knn_mse_theta(x: np.ndarray, y: np.ndarray, eval_sets, k: int) -> float:
    """Variant-2 theta-hat of the ``mse`` moment for k-NN: the mean over
    splits of each split's mean squared error, training on the complement."""
    per_split = []
    for rows in eval_sets:
        train = np.ones(y.size, dtype=bool)
        train[rows] = False
        pred = knn_predict(x[train], y[train], x[rows], k)
        per_split.append(np.mean((y[rows] - pred) ** 2))
    return float(np.mean(per_split))
