"""Monte-Carlo data generators and the seeded experiment grid runner.

``dgp_sampler`` is the one table from a data-generator spec (``kind`` and its
options, typed in ``config.schema.json``) to data: the CLI's
``data.synthetic`` and the grid's ``simulate.dgp`` both draw through it. The
kinds are "base" (``synthetic_base``), "linear_cate", "gauss_linear", "copula"
(over a fixed synthetic base) and "hte".

The Gaussian-copula generator preserves the empirical margins and latent
normal rank correlation of a base dataset: ranks are mapped to uniforms,
Gaussianized, correlated draws are mapped back through each column's empirical
quantile function (type-1 inverse on the sorted base values). Three modes:
"asis" keeps the estimated correlation, "correlated" triples the outcome
row/column (repaired to the nearest positive definite matrix), "uncorrelated"
draws the outcome independently as Bernoulli.

The treatment-effect generator is a parameterized synthetic analog of a
zero-inflated count outcome: a logit decides zero donation, a truncated
Poisson draws positive amounts, and the treatment shifts both pieces. Its
design constants are fixed in ``hte_sample``. The "shuffled" mode permutes
treatment after outcomes are generated so effect heterogeneity exists but is
unrelated to covariates. Both potential outcomes are kept in a ``_true_te``
oracle column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import compare as compare_mod
from . import gates as gates_mod
from .data import Dataset, Roles
from .errors import NotPositiveDefinite
from .evaluation import Block, evaluate, group_codes, pool
from .inference import normal_ci
from .learners import builtin, train_all
from .moments import AverageMoment, MomentFunction, builtin_moment
from .rng import derived_seed, substream
from .splits import generate_plan
from .zestim import newton_solve, solve


# ---------------------------------------------------------------------------
# copula machinery


def rank_uniforms(column: np.ndarray) -> np.ndarray:
    """rank / (n + 1), average ranks for ties."""
    from scipy import stats

    return stats.rankdata(column, method="average") / (column.size + 1.0)


def latent_correlation(columns: list[np.ndarray]) -> np.ndarray:
    from scipy import stats

    z = np.column_stack([stats.norm.ppf(rank_uniforms(c)) for c in columns])
    sigma = np.corrcoef(z.T)
    return np.atleast_2d(sigma)


def nearest_positive_definite(sigma: np.ndarray) -> np.ndarray:
    """Eigenvalue clip at 1e-10 plus unit-diagonal rescale; PD inputs pass through."""
    eps = 1e-10
    sigma = 0.5 * (sigma + sigma.T)
    eigval, eigvec = np.linalg.eigh(sigma)
    if eigval.min() > eps and np.allclose(np.diag(sigma), 1.0):
        return sigma
    clipped = np.maximum(eigval, eps)
    repaired = (eigvec * clipped) @ eigvec.T
    scale = np.sqrt(np.diag(repaired))
    repaired = repaired / np.outer(scale, scale)
    repaired = 0.5 * (repaired + repaired.T)
    np.fill_diagonal(repaired, 1.0)
    if np.linalg.eigvalsh(repaired).min() <= 0:
        raise NotPositiveDefinite("correlation matrix could not be repaired")
    return repaired


def empirical_inverse(base_column: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Type-1 inverse of the empirical CDF of the base values."""
    return np.quantile(base_column, u, method="inverted_cdf")


@dataclass(frozen=True)
class CopulaDGP:
    """Synthetic sampler that mimics a base dataset's margins and rank structure.

    ``sigma`` overrides the latent correlation estimated from the base
    (ordered as the base's columns). The "correlated" mode triples the
    outcome's latent correlations.
    """

    base: Dataset
    mode: str = "asis"  # asis | correlated | uncorrelated
    outcome_p: float = 0.07
    sigma: np.ndarray | None = None

    def sigma_star(self) -> np.ndarray:
        names = self.base.column_names
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=np.float64)
        else:
            sigma = latent_correlation([self.base.column(c) for c in names])
        if self.mode == "correlated":
            out_idx = names.index(self.base.roles.outcome)
            boosted = sigma.copy()
            boosted[out_idx, :] *= 3.0
            boosted[:, out_idx] *= 3.0
            np.fill_diagonal(boosted, 1.0)
            sigma = nearest_positive_definite(boosted)
        else:
            sigma = nearest_positive_definite(sigma)
        return sigma


def copula_sample(dgp: CopulaDGP, n: int, seed: int = 0) -> Dataset:
    """Draw n rows: correlated normals -> uniforms -> per-column margins."""
    from scipy import stats

    names = list(dgp.base.column_names)
    for name in names:
        if np.unique(dgp.base.column(name)).size < 2:
            raise NotPositiveDefinite(f"base column {name!r} is constant")
    rng = substream(seed, 0)
    sigma = dgp.sigma_star()
    out_name = dgp.base.roles.outcome

    # "uncorrelated" draws the covariates from their block of sigma (a
    # principal submatrix of a positive definite matrix is positive definite)
    # and the outcome apart, as a Bernoulli
    independent = dgp.mode == "uncorrelated"
    drawn = [j for j, c in enumerate(names) if not (independent and c == out_name)]
    z = rng.multivariate_normal(np.zeros(len(drawn)), sigma[np.ix_(drawn, drawn)], size=n,
                                method="cholesky")
    u = stats.norm.cdf(z)
    columns = {names[j]: empirical_inverse(dgp.base.column(names[j]), u[:, i])
               for i, j in enumerate(drawn)}
    if independent:
        columns[out_name] = (rng.random(n) < dgp.outcome_p).astype(np.float64)
    return Dataset(columns, dgp.base.roles)


# ---------------------------------------------------------------------------
# bundled synthetic base (for users without data)

def synthetic_base(n: int, seed: int) -> Dataset:
    """8 mixed-margin covariates plus a binary outcome with a fixed dependence."""
    from scipy import stats

    rng = substream(seed, 1)
    corr = np.full((8, 8), 0.25)
    np.fill_diagonal(corr, 1.0)
    z = rng.multivariate_normal(np.zeros(8), corr, size=n, method="cholesky")
    u = stats.norm.cdf(z)
    columns = {
        "x1": stats.norm.ppf(u[:, 0]),
        "x2": np.exp(stats.norm.ppf(u[:, 1]) * 0.5),
        "x3": np.floor(u[:, 2] * 6.0),
        "x4": (u[:, 3] > 0.7).astype(np.float64),
        "x5": -np.log1p(-u[:, 4]),
        "x6": u[:, 5],
        "x7": stats.norm.ppf(u[:, 6]) * 2.0 + 1.0,
        "x8": np.floor(u[:, 7] * 3.0),
    }
    score = 0.8 * columns["x1"] + 0.5 * columns["x4"] - 0.3 * columns["x6"] - 1.5
    prob = 1.0 / (1.0 + np.exp(-score))
    columns["y"] = (rng.random(n) < prob).astype(np.float64)
    return Dataset(columns, Roles("y", tuple(f"x{i}" for i in range(1, 9))))


# ---------------------------------------------------------------------------
# heterogeneous treatment effects


def hte_sample(n: int, seed: int, mode: str = "predictable") -> Dataset:
    """Draw a randomized-trial dataset with oracle potential outcomes.

    Six equicorrelated (0.2) normal covariates enter a zero-inflation logit
    (intercept -0.3, coefficients (0.9, -0.6, 0.4, 0, 0, -0.3)) and a count
    intensity (intercept 0.6, coefficients (0.5, 0.4, -0.3, 0.2, 0, 0)).
    Treatment shifts the logit by -0.5 and the log intensity by 0.35, with
    the logit's treatment terms amplified by 4 and the count intensity scaled
    by 0.05 in the effect-probability computation (the source design's 4 and
    0.05). Probabilities produced by the effect construction are clamped to
    [0, 1]. ``mode`` "predictable" keeps the covariate link; "shuffled"
    permutes the treatment indicator after outcomes are drawn.

    The returned dataset has roles (outcome y, treatment t, covariates) plus
    oracle columns ``_true_te`` (realized Y(1) - Y(0)), ``_y0`` and ``_y1``,
    which simulations may read but estimators must not.
    """
    from scipy import stats

    rng = substream(seed, 2)
    p = 6
    corr = np.full((p, p), 0.2)
    np.fill_diagonal(corr, 1.0)
    x = rng.multivariate_normal(np.zeros(p), corr, size=n, method="cholesky")
    g0 = x @ np.array([0.9, -0.6, 0.4, 0.0, 0.0, -0.3])
    g1 = x @ np.array([0.5, 0.4, -0.3, 0.2, 0.0, 0.0])

    # potential outcome under control: zero-inflated shifted Poisson
    p_zero0 = _sigmoid(-0.3 + g0)
    mu0 = np.exp(np.clip(0.6 + 0.5 * g1, -10.0, 5.0))
    is_zero = rng.random(n) < p_zero0
    y0 = np.where(is_zero, 0.0, 1.0 + rng.poisson(mu0))

    # treatment arm pieces, treatment terms of the logit amplified by 4
    p_zero1 = _sigmoid(-0.3 + g0 + 4.0 * (-0.5 + 0.2 * g1))
    mu1 = np.exp(np.clip(0.6 + 0.5 * g1 + 0.35 + 0.3 * g1, -10.0, 5.0))

    q0 = (1.0 - p_zero0) * stats.poisson.sf(y0, mu0 * 0.05 + 1e-12)
    q1 = (1.0 - p_zero1) * stats.poisson.sf(y0, mu1 * 0.05 + 1e-12)
    p_no_effect = np.clip(q0 - q1, 0.0, 1.0)

    effect = rng.random(n) >= p_no_effect
    # truncated Poisson starting at y0: inverse cdf on u in [F(y0 - 1), 1)
    lower = stats.poisson.cdf(y0 - 1.0, mu1)
    u = lower + rng.random(n) * (1.0 - lower)
    y1_draw = stats.poisson.ppf(np.clip(u, 0.0, 1.0 - 1e-12), mu1)
    y1 = np.where(effect, np.maximum(y1_draw, y0), y0)

    t = (rng.random(n) < 0.5).astype(np.float64)
    if mode == "shuffled":
        t = t[rng.permutation(n)]
    y = np.where(t == 1.0, y1, y0)

    columns = {f"x{i+1}": x[:, i] for i in range(p)}
    columns.update({"y": y, "t": t, "_true_te": y1 - y0, "_y0": y0, "_y1": y1})
    roles = Roles("y", tuple(f"x{i+1}" for i in range(p)), treatment="t", propensity=0.5)
    return Dataset(columns, roles)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def linear_cate_sample(n: int, seed: int = 0, base_effect: float = 1.0,
                       hte_coef: float = 1.0) -> Dataset:
    """Simple randomized trial with a linear CATE, for calibration checks:
    three standard normal covariates and unit-variance normal noise."""
    rng = substream(seed, 3)
    x = rng.standard_normal((n, 3))
    t = (rng.random(n) < 0.5).astype(np.float64)
    cate = base_effect + hte_coef * x[:, 0]
    y = x @ np.linspace(1.0, 0.5, 3) + t * cate + rng.standard_normal(n)
    columns = {f"x{i+1}": x[:, i] for i in range(3)}
    columns.update({"y": y, "t": t, "_true_te": cate})
    roles = Roles("y", ("x1", "x2", "x3"), treatment="t", propensity=0.5)
    return Dataset(columns, roles)


# ---------------------------------------------------------------------------
# fresh-draw oracle for the data-dependent estimand


def estimand_oracle(mf: MomentFunction, models, fresh: Dataset) -> np.ndarray:
    """theta_{eta-hat} approximated on a large fresh sample.

    Solves the variant-2 aggregation of the estimator, but substituting the
    fresh sample for every evaluation split (population analog of the moment).
    Each pass over the models predicts on the fresh sample one model at a
    time, so the predictions of all models are never held at once.
    """
    codes = group_codes(fresh)

    def blocks():
        for key in sorted(models):
            yield Block.of(models[key], fresh, codes=codes)

    if isinstance(mf, AverageMoment):
        # psi = f - theta, so the per-model mean psi at theta = 0 is the mean f
        return np.array([pool(mf, blocks(), np.zeros(1)).split_psi[:, 0].mean()])
    # general moments: Newton on the pooled fresh moment
    theta0 = next(mf.initial_guess_eta(b.eta, b.y, b.g) for b in blocks())
    theta, _, _ = newton_solve(
        lambda theta: pool(mf, blocks(), theta).psi,
        lambda theta: pool(mf, blocks(), theta, psi=False, jacobian=True).jacobian,
        theta0, 1e-9)
    return theta


# ---------------------------------------------------------------------------
# experiment grid


def dgp_sampler(spec: dict, default_kind: str = "gauss_linear"):
    """``(n, seed) -> Dataset`` for a data-generator spec (``kind`` and its options).

    A spec without a ``kind`` gets ``default_kind``: "gauss_linear" for the
    grid's ``simulate.dgp``, "base" for the CLI's ``data.synthetic``.
    """
    kind = spec.get("kind", default_kind)
    if kind == "base":
        return synthetic_base
    if kind == "linear_cate":
        return linear_cate_sample
    if kind == "gauss_linear":
        slope = float(spec.get("slope", 1.0))
        noise = float(spec.get("noise", 1.0))

        def sample(n, seed):
            rng = substream(seed, 7)
            x = rng.standard_normal(n)
            y = slope * x + noise * rng.standard_normal(n)
            return Dataset({"y": y, "x1": x}, Roles("y", ("x1",)))

        return sample
    if kind == "copula":
        base = synthetic_base(n=int(spec.get("base_n", 300)), seed=int(spec.get("base_seed", 0)))
        dgp = CopulaDGP(base, mode=spec.get("mode", "asis"),
                        outcome_p=float(spec.get("outcome_p", 0.07)))
        return lambda n, seed: copula_sample(dgp, n, seed)
    if kind == "hte":
        mode = spec.get("mode", "predictable")
        return lambda n, seed: hte_sample(n, seed, mode)
    raise ValueError(f"unknown DGP kind {kind!r}")


def _grid_fit(grid, n, K, cell_index, iteration):
    """The start of an estimate or compare row: its seed, sampler, data, plan,
    moment and trained models."""
    sampler = dgp_sampler(grid.dgp)
    seed = derived_seed(grid.seed, cell_index, iteration)
    d = sampler(n, derived_seed(seed, 0))
    plan = generate_plan(n, grid.M, K, b=(n // 2 if K == 1 else None),
                         seed=derived_seed(seed, 1))
    learner = builtin(grid.learner)
    mf = builtin_moment(grid.moment)
    models = train_all(plan, d, learner, seed=derived_seed(seed, 2))
    return seed, sampler, d, plan, mf, models


def _grid_estimate(grid, n, K, cell_index, iteration):
    seed, sampler, d, plan, mf, models = _grid_fit(grid, n, K, cell_index, iteration)
    ev = evaluate(models, plan, d)
    est = solve(2, mf, ev)
    report = normal_ci(mf, ev, est, alpha=grid.alpha)
    fresh = sampler(grid.oracle_rows, derived_seed(seed, 3))
    oracle = float(estimand_oracle(mf, models, fresh)[0])
    lo, hi = report.ci
    return {
        "estimate": float(est.theta_hat[0]), "se": report.se,
        "ci_lo": float(lo), "ci_hi": float(hi),
        "covered": int(lo <= oracle <= hi),
    }


def _grid_compare(grid, n, K, cell_index, iteration):
    seed, _, d, plan, mf, models = _grid_fit(grid, n, K, cell_index, iteration)
    baseline = builtin("mean").train(d)
    res = compare_mod.compare_models(mf, evaluate(models, plan, d, baseline),
                                     alpha=grid.alpha,
                                     mc_draws=20_000, seed=derived_seed(seed, 4))
    return {
        "estimate": res.point, "se": res.sigma_delta / np.sqrt(n),
        "ci_lo": res.ci_final[0], "ci_hi": res.ci_final[1],
        "p_value": float(res.test.reject),
    }


def _grid_gates(grid, n, K, cell_index, iteration):
    seed = derived_seed(grid.seed, cell_index, iteration)
    d = dgp_sampler(grid.dgp)(n, derived_seed(seed, 0))
    learners = tuple(gates_mod.CateLearner(builtin(name)) for name in ("ols", "ridge(1.0)"))
    cfg = gates_mod.GatesConfig(learners=learners, M=grid.M, K=K)
    result, _, _ = gates_mod.run_gates(cfg, d, seed=derived_seed(seed, 1))
    return {"estimate": result.delta_hat, "se": result.delta_se,
            "p_value": result.p_one_sided}


METHOD_RUNNERS = {
    "estimate": _grid_estimate,
    "compare": _grid_compare,
    "gates": _grid_gates,
}


@dataclass
class ExperimentGrid:
    """Seeded cross of DGP x n x K x method, one row per (cell, iteration).

    ``dgp`` is a :func:`dgp_sampler` spec. The estimate and compare rows fit
    ``learner`` for ``moment`` at level ``alpha``; the estimate rows' oracle
    draws ``oracle_rows`` fresh rows.
    """

    dgp: dict
    n_list: tuple
    K_list: tuple
    M: int
    methods: tuple
    iterations: int
    seed: int
    out_csv: str
    learner: str = "ols"
    moment: str = "mse"
    alpha: float = 0.05
    oracle_rows: int = 50_000


GRID_COLUMNS = ("cell_id", "iteration", "method", "n", "K", "M",
                "estimate", "se", "ci_lo", "ci_hi", "p_value", "covered", "error")


def run_grid(grid: ExperimentGrid) -> list[dict]:
    """Execute every (cell, iteration) and write its rows to a fresh CSV.

    The CSV at ``grid.out_csv`` is always rewritten, never resumed. Failures
    are recorded in the ``error`` column and the grid continues.
    """
    rows = []
    with open(grid.out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=GRID_COLUMNS)
        writer.writeheader()
        cells = product(grid.n_list, grid.K_list, grid.methods)
        for cell_index, (n, K, method) in enumerate(cells):
            runner = METHOD_RUNNERS[method]
            for it in range(grid.iterations):
                row = {**dict.fromkeys(GRID_COLUMNS, ""), "cell_id": f"cell{cell_index:03d}",
                       "iteration": it, "method": method, "n": n, "K": K, "M": grid.M}
                try:
                    result = runner(grid, n, K, cell_index, it)
                    row.update({k: v for k, v in result.items() if k in GRID_COLUMNS})
                except Exception as exc:  # noqa: BLE001 - per-cell failures recorded
                    row["error"] = f"{type(exc).__name__}: {exc}"
                writer.writerow(row)
                rows.append(row)
    return rows


def summarize_grid(rows: list[dict]) -> dict:
    """Per-cell means of the numeric columns of the rows one :func:`run_grid`
    call returns (a grid always writes a fresh CSV, so these are its rows)."""
    agg: dict[str, dict] = {}
    for row in rows:
        cell = agg.setdefault(row["cell_id"], {
            "method": row["method"], "n": row["n"], "K": row["K"],
            "count": 0, "failures": 0,
            "estimate_sum": 0.0, "covered_sum": 0.0, "p_sum": 0.0,
        })
        cell["count"] += 1
        if row["error"]:
            cell["failures"] += 1
            continue
        for key, target in (("estimate", "estimate_sum"),
                            ("covered", "covered_sum"),
                            ("p_value", "p_sum")):
            if row[key] != "":
                cell[target] += float(row[key])
    out = {}
    for cell_id, cell in agg.items():
        ok = cell["count"] - cell["failures"]
        out[cell_id] = {
            "method": cell["method"], "n": cell["n"], "K": cell["K"],
            "iterations": cell["count"], "failures": cell["failures"],
            "mean_estimate": cell["estimate_sum"] / ok if ok else None,
            "coverage": cell["covered_sum"] / ok if ok else None,
            "mean_p": cell["p_sum"] / ok if ok else None,
        }
    return out
