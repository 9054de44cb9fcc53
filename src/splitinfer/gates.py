"""Ensemble GATES for randomized trials, with the detectable-heterogeneity
test and the twice-the-median / sequential-aggregation baselines.

Per repetition: K training folds produce out-of-fold predicted individual
treatment effects for each of the A learners; an L-fold calibration regression
combines them into one prediction per observation; observations are grouped by
per-training-fold quantiles of the combined prediction; and a single weighted
regression on the whole sample (weights 1/(p(x)(1-p(x)))) estimates the group
average treatment effects with heteroscedasticity-robust (HC0) standard
errors. Estimates and standard errors are averaged over the M repetitions.
:func:`run_gates` makes one pass over the repetitions, and a repetition's
predictions die with its step.

Every model here, the ensemble's and the baselines', is trained and predicts
through :func:`evaluation.fit_split`, the step ``cross_fit`` maps over a
plan, so a training error ends in ``LearnerFailure`` naming the learner and
its (m, k). Its seed comes from :func:`evaluation.learner_seed`: a seeded
learner gets one derived from the run's seed and the fit's path, a built-in
gets 0, and so does a T-learner over one.

Each fold's work is done once. A repetition builds a fold's training view
once and trains all A learners on it, and a T-learner reads that view's
treatment arms from ``Dataset.arms``, split once and shared. Seq's last step
trains on TTM's training set, so for a learner that reads no seed it takes
TTM's t-statistic instead of refitting (:func:`baselines`). The calibration
fits and the het test's baseline fit read only the coefficients or the
residuals, so they ask :func:`wls_fit` for no covariance, and a fold's group
bounds are computed once per (fold size, J).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .compare import OneSidedTest, one_sided_test, sigma_from_values
from .data import Dataset, complement
from .errors import EmptyGroup, IncompatibleRoles, ZeroDiagonal
from .evaluation import fit_split, learner_seed
from .inference import norm_cdf
from .learners import Learner, Model
from .rng import derived_seed
from .splits import eval_rows, generate_plan, label_dtype

RIDGE_FALLBACK = 1e-8


@dataclass(frozen=True)
class GatesConfig:
    learners: tuple
    M: int = 20
    K: int = 3
    L: int = 2
    J: int = 3
    alpha: float = 0.05
    controls: tuple = ("const", "propensity")

    def __post_init__(self):
        if len(self.learners) < 1:
            raise IncompatibleRoles("need at least one learner")
        if self.J < 2 or self.K < 2 or self.L < 2:
            raise IncompatibleRoles("J, K and L must all be at least 2")


class CateLearner:
    """T-learner: fit a base learner separately on treated and control rows.

    It is seeded exactly when its base is. A seeded base trains its treated
    arm with derived_seed(seed, 1) and its control arm with
    derived_seed(seed, 0); a base that reads no seed, as every built-in, gets
    0 for both, and the T-learner itself gets 0 from the split steps. The
    arms are ``d.arms``, so T-learners trained on one view share its split."""

    def __init__(self, base: Learner, name: str | None = None):
        self.base = base
        self.name = name or f"tlearner[{base.name}]"
        self.seeded = getattr(base, "seeded", True)

    def train(self, d: Dataset, seed: int = 0) -> Model:
        treated, control = d.arms
        m1 = self.base.train(treated, learner_seed(self.base, seed, 1))
        m0 = self.base.train(control, learner_seed(self.base, seed, 0))
        return _DifferenceModel(m1, m0)


class _DifferenceModel(Model):
    def __init__(self, m1, m0):
        self.m1 = m1
        self.m0 = m0

    def predict(self, x):
        return self.m1.predict(x) - self.m0.predict(x)


def wls_fit(design: np.ndarray, y: np.ndarray, w: np.ndarray, hc0: bool = True):
    """Weighted least squares via QR on the sqrt(w)-scaled design, HC0 cov.

    Returns (beta, cov_hc0, residuals, ridge_used). A rank-deficient design
    falls back to a small ridge and flags it. With ``hc0`` False, cov_hc0 is
    None and neither the Gram inverse nor the score products are formed; the
    rest is bitwise that of the full call.
    """
    sw = np.sqrt(w)
    xs = design * sw[:, None]
    ys = y * sw
    beta, _, rank, _ = np.linalg.lstsq(xs, ys, rcond=None)
    ridge_used = rank < design.shape[1]
    if ridge_used or hc0:
        gram = xs.T @ xs
    if ridge_used:
        gram = gram + RIDGE_FALLBACK * np.eye(design.shape[1])
        beta = np.linalg.solve(gram, xs.T @ ys)
    resid = y - design @ beta
    if not hc0:
        return beta, None, resid, ridge_used
    bread = np.linalg.inv(gram)
    score = design * (w * resid)[:, None]
    cov = bread @ (score.T @ score) @ bread
    return beta, cov, resid, ridge_used


def _design(cfg: GatesConfig, d: Dataset):
    """The propensity p, the weights 1/(p(1-p)) and the control columns."""
    if d.roles.treatment is None:
        raise IncompatibleRoles("GATES needs a binary treatment column")
    p = d.propensity_values()
    cols = []
    for name in cfg.controls:
        if name == "const":
            cols.append(np.ones(d.n))
        elif name == "propensity":
            if np.ptp(p) == 0.0 and "const" in cfg.controls:
                continue  # constant propensity duplicates the intercept
            cols.append(p)
        else:
            cols.append(d.column(name))
    controls = np.column_stack(cols) if cols else np.empty((d.n, 0))
    return p, 1.0 / (p * (1.0 - p)), controls


def _calibration_fit(controls, d: Dataset, p, w, tau_mat: np.ndarray, rows: np.ndarray):
    """WLS of y on the controls plus the centred predictions x (t - p), on
    ``rows``; returns what :func:`wls_fit` returns without the covariance,
    which no caller reads."""
    tau = tau_mat.take(rows, axis=0)
    inter = (tau - tau.mean(axis=0)) * (d.t[rows] - p[rows])[:, None]
    return wls_fit(np.column_stack([controls.take(rows, axis=0), inter]), d.y[rows], w[rows],
                   hc0=False)


def _group_regression(controls, y, w, centered_t, labels, J: int):
    """WLS of y on the controls plus (t - p) x 1{group j} for each group j.

    Returns (gamma-hat, its HC0 covariance, the variance of the
    top-minus-bottom gap gamma_J - gamma_1).
    """
    inter = np.zeros((centered_t.size, J))
    for j in range(J):
        inter[:, j] = centered_t * (labels == j)
    beta, cov, _, _ = wls_fit(np.column_stack([controls, inter]), y, w)
    n_ctrl = controls.shape[1]
    cov_g = cov[n_ctrl:, n_ctrl:]
    contrast = np.zeros(J)
    contrast[-1], contrast[0] = 1.0, -1.0
    return beta[n_ctrl:], cov_g, float(contrast @ cov_g @ contrast)


@dataclass
class GatesResult:
    gamma_hat: np.ndarray
    sigma_hat: np.ndarray
    delta_hat: float
    delta_se: float
    p_one_sided: float
    p_two_sided: float
    per_repetition: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat.tolist(),
            "sigma_hat": self.sigma_hat.tolist(),
            "delta_hat": self.delta_hat,
            "delta_se": self.delta_se,
            "p_one_sided": self.p_one_sided,
            "p_two_sided": self.p_two_sided,
            "per_repetition": self.per_repetition,
            "flags": dict(self.flags),
        }


@dataclass
class HetTestResult:
    msr_splits: np.ndarray
    msr_baseline: float
    test: OneSidedTest

    def to_jsonable(self) -> dict:
        return {
            "msr_splits": self.msr_splits.tolist(),
            "msr_baseline": self.msr_baseline,
            "T": self.test.statistic,
            "critical_value": self.test.critical_value,
            "reject": self.test.reject,
            "alpha": self.test.alpha,
        }


@dataclass
class Repetition:
    """Repetition m's ensemble: its K-fold labels (a row of a plan's
    ``folds``), the (n, A) out-of-fold predictions of the A learners, the
    (L, A) calibration weights, the combined prediction per row, and whether
    a calibration fit fell back to ridge."""

    folds: np.ndarray
    tau_by_alg: np.ndarray
    beta: np.ndarray
    tau: np.ndarray
    ridge_used: bool


def repetition(cfg: GatesConfig, d: Dataset, seed: int, m: int, design=None) -> Repetition:
    """Repetition m's out-of-fold ITE predictions per learner, calibrated into
    one per row; ``design`` is ``_design(cfg, d)``, computed here when not
    given. Learner a's model of fold k is seeded with
    ``learner_seed(learner, seed, m, 1, k, a)``; the fold's training view is
    built once and shared by its A fits, with its treatment arms."""
    p, w, controls = _design(cfg, d) if design is None else design
    n_alg = len(cfg.learners)
    plan = generate_plan(d.n, M=1, K=cfg.K, seed=derived_seed(seed, m, 0))
    tau_mat = np.empty((d.n, n_alg))
    for k, rows in enumerate(plan.eval_sets()):
        train = d.subset(complement(rows, d.n))
        for a, learner in enumerate(cfg.learners):
            tau_mat[rows, a] = fit_split(learner, d, rows,
                                         learner_seed(learner, seed, m, 1, k, a), m, k, train)

    calib_plan = generate_plan(d.n, M=1, K=cfg.L, seed=derived_seed(seed, m, 2))
    beta_mat = np.empty((cfg.L, n_alg))
    tau_hat = np.empty(d.n)
    ridge_any = False
    for ell, rows in enumerate(calib_plan.eval_sets()):
        beta, _, _, ridge_used = _calibration_fit(controls, d, p, w, tau_mat,
                                                  complement(rows, d.n))
        ridge_any = ridge_any or ridge_used
        beta_mat[ell] = beta[controls.shape[1]:]
        tau_hat[rows] = tau_mat.take(rows, axis=0) @ beta_mat[ell]
    return Repetition(plan.folds[0], tau_mat, beta_mat, tau_hat, ridge_any)


@lru_cache(maxsize=64)
def _group_bounds(size: int, J: int) -> tuple:
    """Group j of a fold of ``size`` ranked predictions holds ranks
    bounds[j]:bounds[j + 1]; computed once per (size, J), and a plan's folds
    have at most two sizes."""
    return tuple(int(b) for b in np.linspace(0, size, J + 1).round().astype(int))


def _fold_groups(tau: np.ndarray, J: int):
    """Rank-balanced J groups of one fold's predictions; ties go to the lower group.

    Returns (group label per prediction, cut points: max tau per group).
    """
    if tau.size < J:
        raise EmptyGroup(f"fold of size {tau.size} cannot hold {J} groups")
    order = np.argsort(tau, kind="stable")
    labels = np.empty(tau.size, dtype=np.int64)
    bounds = _group_bounds(tau.size, J)
    for j in range(J):
        labels[order[bounds[j]:bounds[j + 1]]] = j
    return labels, [float(tau[order[b - 1]]) for b in bounds[1:]]


def het_test(cfg: GatesConfig, folds: np.ndarray, split_sq: np.ndarray, msr_splits: np.ndarray,
             base_sq: np.ndarray, mc_draws: int = 20_000, seed: int = 0) -> HetTestResult:
    """One-sided test comparing fold-level calibration fit against no-signal.

    Each split's mean squared residual ``msr_splits`` from the fold-level
    calibration regression is compared with that of the controls-only
    baseline regression, whose squared residuals are ``base_sq``; a split
    beating the baseline by more than sampling noise indicates detectable
    heterogeneity. ``folds`` holds the repetitions' (M, n) fold labels and
    ``split_sq`` the splits' squared residuals, fold-major, as
    ``compare.sigma_from_values`` reads them.
    """
    msr_base = float(base_sq.mean())
    sigma = sigma_from_values(folds, cfg.K, split_sq, base_sq)
    test = one_sided_test(msr_splits - msr_base, sigma, base_sq.size, cfg.alpha, mc_draws, seed)
    return HetTestResult(msr_splits=msr_splits, msr_baseline=msr_base, test=test)


def run_gates(cfg: GatesConfig, d: Dataset, seed: int = 0, run_het: bool = False,
              mc_draws: int = 20_000):
    """GATES in one pass over the repetitions, and with ``run_het`` the het
    test; returns (GatesResult, HetTestResult or None).

    Repetition m's step fits its ensemble (:func:`repetition`), groups each
    fold by the combined predictions, runs the GATES regression and, for the
    het test, writes its fold labels and its K fold-level calibration
    residual-square vectors into arrays preallocated for all M repetitions;
    the step's own arrays die before the next repetition starts. The het
    test's controls-only baseline is fitted, and its degeneracy checked,
    before the first repetition, so a degenerate test runs no fit. Estimates
    and standard errors are averaged over the repetitions.
    """
    design = _design(cfg, d)
    p, w, controls = design
    if run_het:
        _, _, base_resid, _ = wls_fit(controls, d.y, w, hc0=False)
        base_sq = base_resid**2
        if float(base_sq.var()) == 0.0:
            raise ZeroDiagonal("outcome is deterministic given controls; MSR variance is zero")
        folds = np.empty((cfg.M, d.n), dtype=label_dtype(cfg.K))
        split_sq = np.empty(cfg.M * d.n)

    records, msr_splits, ridge_any, end = [], [], False, 0
    for m in range(cfg.M):
        rep = repetition(cfg, d, seed, m, design)
        ridge_any = ridge_any or rep.ridge_used
        group = np.empty(d.n, dtype=np.int64)
        cutpoints = []
        for k in range(cfg.K):
            rows = eval_rows(rep.folds, k)
            if float(np.ptp(rep.tau[rows])) < 1e-8:
                warnings.warn("near-flat predicted treatment effects within a fold; "
                              "group quantiles are ill-defined", stacklevel=2)
            group[rows], cuts = _fold_groups(rep.tau[rows], cfg.J)
            cutpoints.append(cuts)
            if run_het:  # split (m, k)'s squared calibration residuals, fold-major
                _, _, resid, _ = _calibration_fit(controls, d, p, w, rep.tau_by_alg, rows)
                sq = split_sq[end:end + rows.size]
                sq[...] = resid**2
                msr_splits.append(float(sq.mean()))
                end += rows.size
        if run_het:
            folds[m] = rep.folds
        gam, cov_g, gap_var = _group_regression(controls, d.y, w, d.t - p, group, cfg.J)
        records.append({
            "gamma": gam.tolist(),
            "sigma": np.sqrt(np.maximum(np.diag(cov_g), 0.0)).tolist(),
            "delta": float(gam[-1] - gam[0]),
            "delta_se": float(np.sqrt(max(gap_var, 0.0))),
            "beta_weights": rep.beta.tolist(),
            "cut_points": cutpoints,
        })
        del rep  # its (n, A) predictions die before the next repetition's fits

    delta_hat = float(np.mean([r["delta"] for r in records]))
    delta_se = float(np.mean([r["delta_se"] for r in records]))
    z = delta_hat / delta_se if delta_se > 0 else np.inf * np.sign(delta_hat or 1.0)
    result = GatesResult(
        gamma_hat=np.array([r["gamma"] for r in records]).mean(axis=0),
        sigma_hat=np.array([r["sigma"] for r in records]).mean(axis=0),
        delta_hat=delta_hat,
        delta_se=delta_se,
        p_one_sided=float(1.0 - norm_cdf(z)),
        p_two_sided=float(2.0 * norm_cdf(-abs(z))),
        per_repetition=records,
        flags={"collinear_calibration_ridge": True} if ridge_any else {},
    )
    if not run_het:
        return result, None
    return result, het_test(cfg, folds, split_sq, np.array(msr_splits), base_sq,
                            mc_draws, derived_seed(seed, 3))


# ---------------------------------------------------------------------------
# baseline aggregation schemes


def baselines(cfg: GatesConfig, d: Dataset, seed: int = 0) -> dict:
    """Twice-the-median and sequential-aggregation p-values.

    Both use the first configured learner only (they predate ensembling):
    TTM computes a fold-level p-value for every (m, k) split and reports twice
    the median; Seq trains on folds 0..k-1, evaluates the t-statistic on fold
    k, scales the average t over k = 1..K-1 by sqrt(K-1), and aggregates the
    per-repetition p-values by twice the median.

    Seq's last step, k = K-1, trains on the complement of fold K-1, TTM's
    training set for that fold. A learner that reads no seed gets seed 0 in
    both, so the model, the groups and the t-statistic are TTM's, and Seq
    takes TTM's value without a fit. A seeded learner fits its own model with
    its seed path (m, 2, k), which differs from TTM's (m, 1, k).
    """
    p, w, controls = _design(cfg, d)
    learner = cfg.learners[0]
    seq_reuses_ttm = not getattr(learner, "seeded", True)

    def t_stat(m, k, rows, stream, train=None):
        """t-statistic of the top-minus-bottom gap within fold ``rows``, grouped
        by the predictions of the model trained with seed
        ``learner_seed(learner, seed, m, stream, k)`` on the view ``train``
        (default: the complement of ``rows``)."""
        eta = fit_split(learner, d, rows, learner_seed(learner, seed, m, stream, k), m, k, train)
        labels, _ = _fold_groups(eta, cfg.J)
        gam, _, gap_var = _group_regression(controls.take(rows, axis=0), d.y[rows], w[rows],
                                            d.t[rows] - p[rows], labels, cfg.J)
        return float(gam[-1] - gam[0]) / float(np.sqrt(max(gap_var, 1e-300)))

    ttm_pvalues = []
    seq_pvalues = []
    for m in range(cfg.M):
        plan = generate_plan(d.n, M=1, K=cfg.K, seed=derived_seed(seed, m, 0))
        folds = plan.eval_sets()

        # TTM: model trained on the complement, evaluated within the fold
        ttm_t = [t_stat(m, k, rows, 1) for k, rows in enumerate(folds)]
        ttm_pvalues.extend(float(1.0 - norm_cdf(t)) for t in ttm_t)

        # Seq: ordered training on folds 0..k-1, evaluation on fold k; the
        # last step's training set is the complement of fold K-1
        t_stats = [t_stat(m, k, folds[k], 2, d.subset(np.sort(np.concatenate(folds[:k]))))
                   for k in range(1, cfg.K - 1)]
        last = cfg.K - 1
        t_stats.append(ttm_t[last] if seq_reuses_ttm else t_stat(m, last, folds[last], 2))
        t_final = float(np.sqrt(cfg.K - 1) * np.mean(t_stats))
        seq_pvalues.append(float(1.0 - norm_cdf(t_final)))

    return {
        "ttm_pvalue": ttm_aggregate(ttm_pvalues),
        "seq_pvalue": ttm_aggregate(seq_pvalues),
    }


def ttm_aggregate(pvalues) -> float:
    """Twice the median, clamped to 1."""
    return float(min(1.0, 2.0 * np.median(np.asarray(pvalues, dtype=np.float64))))
