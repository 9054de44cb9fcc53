"""Model comparison: per-split performance gaps, their joint covariance
across splits, the multivariate one-sided test with Monte-Carlo critical
values, and the pre-tested confidence interval.

Both comparisons, a model against a whole-sample baseline
(``compare_models``) and two cross-fit learners against each other
(``compare_two_learners``), run one core, ``_one_sided``: it streams each
split's influence values into ``sigma_from_values`` against the reference
model's values on all n rows, then runs ``one_sided_test`` on the gaps.

The covariance of the sqrt(n)-scaled gap vector is assembled from the four
row-intersection blocks between any two splits (train/train, train/eval,
eval/train, eval/eval), each centered at its own block mean. For average-type
moments the per-row values are the f evaluations themselves; general scalar
moments go through the asymptotically linear (influence) representation
-J^{-1} psi per row. Intersections with fewer than two rows contribute zero
and are counted. The block sums are S x S matrix products accumulated over
chunks of rows, so no (splits x n) array is ever held: each chunk fills one
(4S x rows) buffer of complement-weighted base values, complement and eval
indicators and split values, whose products give every cross sum, row sum
and intersection count (see ``sigma_from_values``).

Everything is computed from one ``Evaluations`` (see
``evaluation.evaluate``): the out-of-fold predictions of every split and the
baseline's predictions on all rows, each made once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ZeroDiagonal
from .evaluation import Block, Evaluations, evaluate
from .inference import IDENTITY, DeltaSpec, delta_variance, nonsingular, norm_ppf
from .learners import train_all
from .moments import AverageMoment, MomentFunction
from .rng import derived_seed, substream
from .splits import SplitPlan
from .zestim import per_split_estimates, solve, solve_blocks


@dataclass
class DeltaVector:
    """Per-split gaps h(theta_s) - h(theta_b) plus the estimates behind them."""

    deltas: np.ndarray
    theta_b: np.ndarray
    h_split: np.ndarray
    h_baseline: float
    per_split_thetas: dict = field(default_factory=dict, repr=False)


@dataclass
class SigmaHat:
    matrix: np.ndarray
    psd_projected: bool
    degenerate_blocks: int

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)


@dataclass
class OneSidedTest:
    statistic: float
    critical_value: float
    reject: bool
    alpha: float
    slack: float
    mc_draws: int
    seed: int


@dataclass
class ComparisonResult:
    delta: DeltaVector
    sigma: SigmaHat
    test: OneSidedTest
    point: float
    sigma_delta: float
    ci_normal: tuple[float, float]
    ci_extended: tuple[float, float]
    ci_final: tuple[float, float]
    alpha: float
    n: int
    flags: dict = field(default_factory=dict)

    def to_jsonable(self, emit_sigma: bool = False) -> dict:
        out = {
            "deltas": self.delta.deltas.tolist(),
            "theta_baseline": self.delta.theta_b.tolist(),
            "point": self.point,
            "sigma_delta": self.sigma_delta,
            "T": self.test.statistic,
            "critical_value": self.test.critical_value,
            "reject": self.test.reject,
            "slack": self.test.slack,
            "mc_draws": self.test.mc_draws,
            "seed": self.test.seed,
            "ci_normal": list(self.ci_normal),
            "ci_extended": list(self.ci_extended),
            "ci_final": list(self.ci_final),
            "alpha": self.alpha,
            "n": self.n,
            "flags": dict(self.flags),
        }
        if emit_sigma:
            out["sigma"] = self.sigma.matrix.tolist()
        return out


# ---------------------------------------------------------------------------
# per-row value construction


def _influence_rows(mf, b: Block, theta, grad) -> np.ndarray:
    """Scalar influence contribution grad . (-J^{-1} psi_i) per row of a block."""
    if isinstance(mf, AverageMoment):
        return mf.f_eta(b.eta, b.y, b.g)
    jac = mf.jacobian_eta(theta, b.eta, b.y, b.g)
    psi = mf.psi_eta(theta, b.eta, b.y, b.g)
    return -(psi @ np.linalg.solve(nonsingular(jac), grad))


# ---------------------------------------------------------------------------
# covariance assembly


# rows per chunk times splits: a chunk's four (S x rows) operand blocks hold
# 4 * _CHUNK_TERMS float64 values (4 MiB), whatever the plan. Keep it small:
# at 1 << 19 the gates benchmark's peak RSS rose from 90 to 103 MB.
_CHUNK_TERMS = 1 << 17


def _centered(s_ab, s_a, s_b, cnt):
    """Centered cross sums s_ab - s_a s_b / cnt; zero where cnt < 2."""
    ok = cnt >= 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, s_ab - s_a * s_b / np.where(ok, cnt, 1.0), 0.0)


def _sorted_split_values(eval_sets, n, vals_split, vals_base):
    """Each split's rows in increasing order with its values
    tilde_j = v[rows] - (n / |rows|) vals_j on them."""
    out = []
    for rows, vals in zip(eval_sets, vals_split, strict=True):
        tilde = vals_base[rows] - (n / rows.size) * np.asarray(vals)
        if np.any(rows[1:] < rows[:-1]):
            order = np.argsort(rows, kind="stable")
            rows, tilde = rows[order], tilde[order]
        out.append((rows, tilde))
    return out


def sigma_from_values(eval_sets, n: int, vals_split, vals_base) -> SigmaHat:
    """Covariance of sqrt(n) * (per-split mean - full-sample baseline mean).

    ``vals_split`` yields the j-th split's values on its own evaluation rows
    (in the order of ``eval_sets[j]``), j in plan order; it may be a
    generator, so the values of all splits need not be held at once.
    ``vals_base`` holds the baseline values for all n rows.

    With E the (S x n) eval-row indicator, C = 1 - E its complement, T the
    split values (zero off each split's eval rows) and a = C * v, the sums are
    taken over row chunks of one (4S x rows) buffer [a; C; T; E]:
    a [a; C; T; E]^T gives the complement/complement and complement/eval
    cross sums and row sums, T [T; E]^T the eval/eval ones, C T^T the
    complement/eval column sums and E E^T the intersection counts, from which
    the other counts follow exactly.
    """
    splits = _sorted_split_values(eval_sets, n, vals_split, vals_base)
    s = len(splits)
    width = max(1, min(n, _CHUNK_TERMS // max(s, 1)))
    buf = np.empty((4 * s, width))
    acc_a = np.zeros((s, 4 * s))   # a [a; C; T; E]^T
    acc_t = np.zeros((s, 2 * s))   # T [T; E]^T
    acc_ct = np.zeros((s, s))      # C T^T
    acc_ee = np.zeros((s, s))      # E E^T
    t_flat, e_flat = buf[2 * s:3 * s].reshape(-1), buf[3 * s:].reshape(-1)
    starts = np.arange(0, n, width)
    # bounds[j, c]: where chunk c starts in split j's sorted rows
    bounds = np.array([np.searchsorted(rows, np.append(starts, n)) for rows, _ in splits])
    for c, r0 in enumerate(starts):
        w = min(width, n - r0)
        chunk = buf[:, :w]
        a, cm, t, e = (chunk[i * s:(i + 1) * s] for i in range(4))
        chunk[2 * s:].fill(0.0)
        lo, hi = bounds[:, c].tolist(), bounds[:, c + 1].tolist()
        pos = np.concatenate([rows[i:k] for (rows, _), i, k in zip(splits, lo, hi)])
        pos += np.repeat(np.arange(s) * width - r0, bounds[:, c + 1] - bounds[:, c])
        t_flat[pos] = np.concatenate([tilde[i:k] for (_, tilde), i, k in zip(splits, lo, hi)])
        e_flat[pos] = 1.0
        np.subtract(1.0, e, out=cm)
        np.multiply(cm, vals_base[r0:r0 + w], out=a)
        acc_a += a @ chunk.T
        acc_t += t @ chunk[2 * s:].T
        acc_ct += cm @ t.T
        acc_ee += e @ e.T

    size = np.diag(acc_ee)
    c4 = acc_ee
    c2 = size[None, :] - acc_ee                          # |C_j & E_l|
    c1 = n - size[:, None] - size[None, :] + acc_ee      # |C_j & C_l|
    s_a1, s_a2 = acc_a[:, s:2 * s], acc_a[:, 3 * s:]
    s_a4 = acc_t[:, s:]
    t1 = _centered(acc_a[:, :s], s_a1, s_a1.T, c1)
    t2 = _centered(acc_a[:, 2 * s:3 * s], s_a2, acc_ct, c2)
    t4 = _centered(acc_t[:, :s], s_a4, s_a4.T, c4)
    total = (t1 + t2 + t2.T + t4) / n

    degenerate = int(((c1 < 2) & (c1 > 0)).sum() + ((c2 < 2) & (c2 > 0)).sum()
                     + ((c4 < 2) & (c4 > 0)).sum())

    total = 0.5 * (total + total.T)
    eigval, eigvec = np.linalg.eigh(total)
    projected = bool(eigval.min() < -1e-14 * max(eigval.max(), 1.0))
    if projected:
        clipped = np.maximum(eigval, 0.0)
        total = (eigvec * clipped) @ eigvec.T
        total = 0.5 * (total + total.T)
    return SigmaHat(matrix=total, psd_projected=projected, degenerate_blocks=degenerate)


def delta_vector(mf: MomentFunction, ev: Evaluations, h: DeltaSpec = IDENTITY) -> DeltaVector:
    """Per-split estimates minus the whole-sample baseline estimate."""
    if ev.baseline is None:
        raise ValueError("the comparison needs evaluations with a baseline model")
    return _gaps(h, per_split_estimates(mf, ev), solve_blocks(mf, [ev.baseline])[0])


def _gaps(h: DeltaSpec, per_split_thetas, theta_b) -> DeltaVector:
    h_split = np.array([h.h(theta) for theta in per_split_thetas.values()])
    h_b = float(h.h(theta_b))
    return DeltaVector(deltas=h_split - h_b, theta_b=theta_b, h_split=h_split,
                       h_baseline=h_b, per_split_thetas=per_split_thetas)


def _one_sided(mf: MomentFunction, ev: Evaluations, delta: DeltaVector, vals_ref,
               h: DeltaSpec, alpha: float, mc_draws: int, seed: int,
               slack: float) -> tuple[SigmaHat, OneSidedTest]:
    """Covariance of the gaps ``delta`` against the reference model's
    influence values ``vals_ref`` on all n rows, and their one-sided test."""
    grad = h.gradient(delta.theta_b)

    def split_vals():
        for b in ev.blocks:
            yield _influence_rows(mf, b, delta.per_split_thetas[(b.m, b.k)], grad)

    sigma = sigma_from_values(ev.plan.eval_sets(), ev.plan.n, split_vals(), vals_ref)
    return sigma, one_sided_test(delta.deltas, sigma, ev.plan.n, alpha, mc_draws, seed, slack)


# ---------------------------------------------------------------------------
# test and confidence interval


def mc_critical_value(sigma: SigmaHat, alpha: float, mc_draws: int, seed: int,
                      sigmas: np.ndarray) -> float:
    """(1-alpha) quantile of T(Z) over Z ~ N(0, Sigma), seeded."""
    s = sigma.matrix.shape[0]
    jitter = 1e-12 * (np.trace(sigma.matrix) / s if s else 1.0)
    chol = np.linalg.cholesky(sigma.matrix + max(jitter, 1e-300) * np.eye(s))
    rng = substream(seed, 0)
    stats = np.empty(mc_draws)
    chunk = max(1, min(mc_draws, 200_000 // max(s, 1)))
    done = 0
    while done < mc_draws:
        take = min(chunk, mc_draws - done)
        z = rng.standard_normal((take, s)) @ chol.T
        stats[done:done + take] = (np.minimum(z / sigmas, 0.0) ** 2).sum(axis=1)
        done += take
    stats.sort()
    idx = int(np.ceil((1.0 - alpha) * mc_draws)) - 1
    return float(stats[min(max(idx, 0), mc_draws - 1)])


def one_sided_test(delta: np.ndarray, sigma: SigmaHat, n: int, alpha: float = 0.05,
                   mc_draws: int = 100_000, seed: int = 0, slack: float = 0.0) -> OneSidedTest:
    """T = sum_s min(sqrt(n) (delta_s + slack) / sigma_s, 0)^2 against MC quantiles.

    slack = 0 reproduces the exact test; a positive slack makes rejection
    require larger per-split improvements (the conservative CI' variant).
    """
    diag = sigma.diagonal
    if np.any(diag <= 0.0):
        raise ZeroDiagonal("a per-split variance is zero; studentization undefined")
    sigmas = np.sqrt(diag)
    scaled = np.sqrt(n) * (np.asarray(delta, dtype=np.float64) + slack) / sigmas
    statistic = float((np.minimum(scaled, 0.0) ** 2).sum())
    crit = mc_critical_value(sigma, alpha, mc_draws, seed, sigmas)
    return OneSidedTest(
        statistic=statistic,
        critical_value=crit,
        reject=bool(statistic > crit),
        alpha=alpha,
        slack=slack,
        mc_draws=mc_draws,
        seed=seed,
    )


def extended_interval(ci: tuple[float, float]) -> tuple[float, float]:
    """Convex hull of the interval and {0}."""
    return (min(ci[0], 0.0), max(ci[1], 0.0))


def comparison_ci(point: float, sigma_delta: float, n: int, rejected: bool,
                  alpha: float = 0.05):
    """Normal, extended, and pre-test-selected intervals for the mean gap."""
    z = float(norm_ppf(1.0 - alpha / 2.0))
    half = z * sigma_delta / np.sqrt(n)
    ci_normal = (point - half, point + half)
    ci_ext = extended_interval(ci_normal)
    ci_final = ci_normal if rejected else ci_ext
    return ci_normal, ci_ext, ci_final


def sigma_delta_hat(mf: MomentFunction, ev: Evaluations, theta_pooled, base_vals,
                    h: DeltaSpec = IDENTITY):
    """Standard error for the pooled gap: sigma_eta^2 + sigma_b^2 - 2 cov.

    ``base_vals`` holds the baseline's influence values on all n rows.
    Returns (sigma_delta, clamped_flag); a tiny negative variance from the
    covariance subtraction is clamped to zero and flagged.
    """
    dv = delta_variance(mf, ev, theta_pooled, h)
    var_b = float(np.var(base_vals))

    cov_acc = 0.0
    for b in ev.blocks:
        a_s = _influence_rows(mf, b, theta_pooled, dv.grad)
        a_b = base_vals[b.rows]
        cov_acc += float(np.mean((a_s - a_s.mean()) * (a_b - a_b.mean())))
    cov = cov_acc / len(ev.blocks)

    var_delta = dv.variance + var_b - 2.0 * cov
    clamped = var_delta < 0.0
    return float(np.sqrt(max(var_delta, 0.0))), bool(clamped)


def compare_models(mf: MomentFunction, ev: Evaluations, h: DeltaSpec = IDENTITY,
                   alpha: float = 0.05, mc_draws: int = 100_000, seed: int = 0,
                   slack: float = 0.0) -> ComparisonResult:
    """Full comparison pipeline: gaps, covariance, test, pre-tested CI.

    ``ev`` must carry the baseline's predictions (``evaluate(..., baseline=)``).
    """
    n = ev.plan.n
    delta = delta_vector(mf, ev, h)
    base_vals = _influence_rows(mf, ev.baseline, delta.theta_b, h.gradient(delta.theta_b))
    sigma, test = _one_sided(mf, ev, delta, base_vals, h, alpha, mc_draws, seed, slack)

    pooled = solve(2, mf, ev)
    point = float(h.h(pooled.theta_hat)) - delta.h_baseline
    sd, clamped = sigma_delta_hat(mf, ev, pooled.theta_hat, base_vals, h)
    ci_normal, ci_ext, ci_final = comparison_ci(point, sd, n, test.reject, alpha)
    flags = {}
    if clamped:
        flags["sigma_delta_clamped"] = True
    if sigma.psd_projected:
        flags["sigma_psd_projected"] = True
    if sigma.degenerate_blocks:
        flags["degenerate_intersections"] = sigma.degenerate_blocks
    return ComparisonResult(
        delta=delta, sigma=sigma, test=test, point=point, sigma_delta=sd,
        ci_normal=ci_normal, ci_extended=ci_ext, ci_final=ci_final,
        alpha=alpha, n=n, flags=flags,
    )


# ---------------------------------------------------------------------------
# two split-sample models


@dataclass
class TwoLearnerComparison:
    delta_ab: DeltaVector
    delta_ba: DeltaVector
    test_ab: OneSidedTest
    test_ba: OneSidedTest
    theta_a: np.ndarray
    theta_b: np.ndarray


def _pooled_row_values(mf, ev: Evaluations, theta_pooled, h) -> np.ndarray:
    """Row-level influence values for a pooled split-sample estimator.

    Each row is averaged over the models that evaluate it out-of-fold; rows
    that no split evaluates (possible when K = 1) fall back to the average
    over all models, which predict on those rows for that.
    """
    grad = h.gradient(theta_pooled)
    acc = np.zeros(ev.plan.n)
    cnt = np.zeros(ev.plan.n)
    for b in ev.blocks:
        acc[b.rows] += _influence_rows(mf, b, theta_pooled, grad)
        cnt[b.rows] += 1.0
    uncovered = np.flatnonzero(cnt == 0)
    if uncovered.size:
        for b in ev.blocks:
            acc[uncovered] += _influence_rows(mf, Block.of(b.model, ev.d, uncovered),
                                              theta_pooled, grad)
        cnt[uncovered] = len(ev.blocks)
    return acc / cnt


def compare_two_learners(mf: MomentFunction, plan: SplitPlan, d: Dataset,
                         learner_a, learner_b, seed: int = 0,
                         h: DeltaSpec = IDENTITY, alpha: float = 0.05,
                         mc_draws: int = 100_000, slack: float = 0.0) -> TwoLearnerComparison:
    """Directional comparisons of two learners trained on identical splits."""
    evs = [evaluate(train_all(plan, d, learner, derived_seed(seed, i)), plan, d)
           for i, learner in enumerate((learner_a, learner_b))]
    thetas = [solve(2, mf, ev).theta_hat for ev in evs]

    results = []
    for direction in (0, 1):  # a against pooled b, then b against pooled a
        ev_split, ev_other, theta_other = evs[direction], evs[1 - direction], thetas[1 - direction]
        delta = _gaps(h, per_split_estimates(mf, ev_split), theta_other)
        _, test = _one_sided(mf, ev_split, delta, _pooled_row_values(mf, ev_other, theta_other, h),
                             h, alpha, mc_draws, derived_seed(seed, 2 + direction), slack)
        results.append((delta, test))

    (delta_ab, test_ab), (delta_ba, test_ba) = results
    return TwoLearnerComparison(delta_ab=delta_ab, delta_ba=delta_ba, test_ab=test_ab,
                                test_ba=test_ba, theta_a=thetas[0], theta_b=thetas[1])
