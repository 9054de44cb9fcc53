"""Monte-Carlo data generators and the seeded experiment grid runner.

``dgp_sampler`` is the one table from a data-generator spec (``kind`` and its
options, typed in ``config.schema.json``) to data: the CLI's
``data.synthetic`` and the grid's ``simulate.dgp`` both draw through it. The
kinds are "base" (``synthetic_base``), "linear_cate", "gauss_linear", "copula"
(over a fixed synthetic base) and "hte". It owns the generator rules:
``DGP_OPTIONS`` names the options each kind reads and ``DGP_MODES`` the modes
of the kinds that have one, and ``dgp_sampler`` raises ``ValueError`` on any
other option or mode (``CopulaDGP`` and ``hte_sample`` check their mode too).

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
the unit effects Y(1) - Y(0) across units, which keeps the effects' spread
and mean but makes them independent of the covariates: a null of no
predictable heterogeneity. Both potential outcomes and their difference are
kept in oracle columns.

The grid's estimate rows check coverage of theta_{eta-hat}, the variant-2
estimand of the trained split models, which ``estimand_oracle`` solves on
fresh rows (predicted in each model's split step) through ``solve_blocks``.
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
from .evaluation import Block, cross_fit, group_codes
from .inference import normal_ci
from .learners import builtin
from .moments import AverageMoment, MomentFunction, builtin_moment
from .rng import derived_seed, substream
from .splits import generate_plan
from .zestim import solve, solve_blocks

# the options each generator kind reads, and the modes of the kinds that have one
DGP_OPTIONS = {"base": (), "linear_cate": (), "gauss_linear": ("slope", "noise"),
               "copula": ("mode", "outcome_p", "base_n", "base_seed"), "hte": ("mode",)}
DGP_MODES = {"copula": ("asis", "correlated", "uncorrelated"), "hte": ("predictable", "shuffled")}


def _check_mode(kind: str, mode) -> None:
    """Raise ``ValueError`` unless ``mode`` is one of the modes of ``kind``."""
    if mode not in DGP_MODES[kind]:
        raise ValueError(f"the {kind!r} generator has no mode {mode!r}; its modes are "
                         f"{', '.join(map(repr, DGP_MODES[kind]))}")


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

    def __post_init__(self):
        _check_mode("copula", self.mode)

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
    sets Y(1) = Y(0) + a random permutation of the unit effects Y(1) - Y(0),
    so the effects no longer depend on the covariates while their mean and
    spread stay; the treatment draw is the same in both modes.

    The returned dataset has roles (outcome y, treatment t, covariates) plus
    oracle columns ``_true_te`` (realized Y(1) - Y(0)), ``_y0`` and ``_y1``,
    which simulations may read but estimators must not.
    """
    from scipy import stats

    _check_mode("hte", mode)
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
        y1 = y0 + (y1 - y0)[rng.permutation(n)]
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


def estimand_oracle(mf: MomentFunction, fresh: Dataset):
    """theta_{eta-hat} approximated on a large fresh sample: ``(visit, theta)``.

    ``visit(model, m, k)``, a ``cross_fit`` visit, predicts a split model on
    the fresh sample once, in its split step. ``theta()`` solves the variant-2
    aggregation of the estimator over the visited models, with the fresh
    sample standing in for every evaluation split (the population analog of
    the moment). Both go through ``zestim.solve_blocks``, like the estimator
    itself: an average-type moment solves each model's block alone at once,
    to its mean f, so one model's predictions are held at a time; any other
    moment keeps every model's block and solves them together.
    """
    codes, average, parts = group_codes(fresh), isinstance(mf, AverageMoment), []

    def visit(model, m, k):
        b = Block.of(model, fresh, m=m, k=k, codes=codes)
        parts.append(solve_blocks(mf, [b])[0] if average else b)

    def theta() -> np.ndarray:
        return np.array([np.mean(parts)]) if average else solve_blocks(mf, parts)[0]

    return visit, theta


# ---------------------------------------------------------------------------
# experiment grid


def dgp_sampler(spec: dict, default_kind: str = "gauss_linear"):
    """``(n, seed) -> Dataset`` for a data-generator spec (``kind`` and its options).

    A spec without a ``kind`` gets ``default_kind``: "gauss_linear" for the
    grid's ``simulate.dgp``, "base" for the CLI's ``data.synthetic``. An
    unknown kind, an option that ``DGP_OPTIONS`` does not list for the kind
    or a mode that ``DGP_MODES`` does not list raises ``ValueError``.
    """
    kind = spec.get("kind", default_kind)
    if kind not in DGP_OPTIONS:
        raise ValueError(f"unknown DGP kind {kind!r}")
    unread = [key for key in spec if key not in ("kind", *DGP_OPTIONS[kind])]
    if unread:
        raise ValueError(f"the {kind!r} generator reads no option {', '.join(map(repr, unread))}")
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
    mode = spec.get("mode", "predictable")
    _check_mode("hte", mode)
    return lambda n, seed: hte_sample(n, seed, mode)


def _grid_fit(grid, n, K, cell_index, iteration, oracle=False):
    """The start of an estimate or compare row: its seed, the ``theta`` of an
    ``estimand_oracle`` the split models visit (if ``oracle``), data, moment
    and cross-fit evaluations."""
    sampler = dgp_sampler(grid.dgp)
    seed = derived_seed(grid.seed, cell_index, iteration)
    d = sampler(n, derived_seed(seed, 0))
    plan = generate_plan(n, grid.M, K, b=(n // 2 if K == 1 else None),
                         seed=derived_seed(seed, 1))
    learner = builtin(grid.learner)
    mf = builtin_moment(grid.moment)
    visit, theta = (estimand_oracle(mf, sampler(grid.oracle_rows, derived_seed(seed, 3)))
                    if oracle else (None, None))
    return seed, theta, d, mf, cross_fit(plan, d, learner, derived_seed(seed, 2), visit)


def _grid_estimate(grid, n, K, cell_index, iteration):
    _, oracle_theta, _, mf, ev = _grid_fit(grid, n, K, cell_index, iteration, oracle=True)
    est = solve(2, mf, ev)
    report = normal_ci(mf, ev, est, alpha=grid.alpha)
    oracle = float(oracle_theta()[0])
    lo, hi = report.ci
    return {
        "estimate": float(est.theta_hat[0]), "se": report.se,
        "ci_lo": float(lo), "ci_hi": float(hi),
        "covered": int(lo <= oracle <= hi),
    }


def _grid_compare(grid, n, K, cell_index, iteration):
    seed, _, d, mf, ev = _grid_fit(grid, n, K, cell_index, iteration)
    res = compare_mod.compare_models(mf, ev, builtin("mean").train(d), alpha=grid.alpha,
                                     mc_draws=20_000, seed=derived_seed(seed, 4))
    return {
        "estimate": res.point, "se": res.sigma_delta / np.sqrt(n),
        "ci_lo": res.ci_final[0], "ci_hi": res.ci_final[1],
        "reject": int(res.test.reject),
    }


def _grid_gates(grid, n, K, cell_index, iteration):
    seed = derived_seed(grid.seed, cell_index, iteration)
    d = dgp_sampler(grid.dgp)(n, derived_seed(seed, 0))
    learners = tuple(gates_mod.CateLearner(builtin(name)) for name in ("ols", "ridge(1.0)"))
    cfg = gates_mod.GatesConfig(learners=learners, M=grid.M, K=K)
    result, _ = gates_mod.run_gates(cfg, d, seed=derived_seed(seed, 1))
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
    draws ``oracle_rows`` fresh rows, on which a moment that is not
    average-type holds M·K x ``oracle_rows`` predictions at once.
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
                "estimate", "se", "ci_lo", "ci_hi", "p_value", "reject", "covered", "error")


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


# (grid column, summary field): each field is the mean of its column over the
# rows of a cell that record it, and null where no row does (compare rows
# record no coverage, and estimate rows no p-value)
_SUMMARY_MEANS = (("estimate", "mean_estimate"), ("covered", "coverage"),
                  ("p_value", "mean_p"), ("reject", "reject_rate"))


def summarize_grid(rows: list[dict]) -> dict:
    """Per-cell means of the numeric columns of the rows one :func:`run_grid`
    call returns (a grid always writes a fresh CSV, so these are its rows)."""
    cells: dict[str, list[dict]] = {}
    for row in rows:
        cells.setdefault(row["cell_id"], []).append(row)
    out = {}
    for cell_id, cell in cells.items():
        out[cell_id] = {
            "method": cell[0]["method"], "n": cell[0]["n"], "K": cell[0]["K"],
            "iterations": len(cell), "failures": sum(bool(row["error"]) for row in cell),
        }
        for column, field in _SUMMARY_MEANS:
            values = [float(row[column]) for row in cell if row[column] != ""]
            out[cell_id][field] = sum(values) / len(values) if values else None
    return out
