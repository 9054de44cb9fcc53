"""Model comparison: per-split performance gaps, their joint covariance
across splits, the multivariate one-sided test with Monte-Carlo critical
values, and the pre-tested confidence interval.

Both comparisons, a model against a whole-sample baseline
(``compare_models``) and two cross-fit learners against each other
(``compare_two_learners``), run one core, ``_one_sided``: it gives
``sigma_from_values`` each split's predictions (average moments) or
influence values against the reference model's values on all n rows, then
runs ``one_sided_test`` on the gaps.

The covariance of the sqrt(n)-scaled gap vector is assembled from the four
row-intersection blocks between any two splits (train/train, train/eval,
eval/train, eval/eval), each centered at its own block mean. For average-type
moments the per-row values are the f evaluations themselves; general scalar
moments go through the asymptotically linear (influence) representation
-J^{-1} psi per row. Intersections with fewer than two rows contribute zero
and are counted. The block sums are S x S matrix products accumulated over
chunks of rows: each chunk fills one (4S x rows) buffer of
complement-weighted base values, complement and eval indicators and split
values, whose products give every cross sum, row sum and intersection count
(see ``sigma_from_values``). A chunk's eval indicators are the one-hot of
the plan's fold labels there, and its split values are read from one flat
fold-major array at each split's running row count, so no split's whole
row list is formed. The assembly adds no (splits x n) array to what its
caller holds, and the chunk buffer is freed when the chunk loop ends, before
the S x S block arithmetic and its eigendecomposition. For an average moment
the split values are f of the splits' predictions in ``Evaluations.etas``,
evaluated one chunk at a time; any other moment's per-split influence values
are computed first and held once, in one fold-major array.

Everything is computed from one ``Evaluations`` (see
``evaluation.cross_fit``), the out-of-fold predictions of every split, and
for ``compare_models`` the baseline's predictions on all rows, each made once.
Each loop over the splits iterates the ``Evaluations``, which yields one
split's rows, outcome and predictions at a time; Sigma's average-moment path
reads the dataset's outcome and ``Evaluations.codes`` at each chunk's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .data import Dataset
from .errors import ZeroDiagonal
from .evaluation import Block, Evaluations, cross_fit, group_codes
from .inference import IDENTITY, DeltaSpec, delta_variance, nonsingular, norm_ppf
from .learners import Model
from .moments import AverageMoment, MomentFunction
from .rng import derived_seed, substream
from .splits import SplitPlan, fold_sizes
from .zestim import ZEstimate, per_split_estimates, solve, solve_blocks


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


def _chunk_sums(folds, K, vals_split, vals_base, to_values):
    """The four accumulators of ``sigma_from_values``, a [a; C; T; E]^T,
    T [T; E]^T, C T^T and E E^T, summed over row chunks of one (4S x rows)
    buffer. The buffer and the per-chunk gathers live only in this frame,
    so they are freed before the caller's S x S arithmetic."""
    M, n = folds.shape
    s = M * K
    sizes = fold_sizes(folds, K).reshape(s)
    scale = n / sizes
    width = max(1, min(n, _CHUNK_TERMS // max(s, 1)))
    buf = np.empty((4 * s, width))
    acc_a = np.zeros((s, 4 * s))   # a [a; C; T; E]^T
    acc_t = np.zeros((s, 2 * s))   # T [T; E]^T
    acc_ct = np.zeros((s, s))      # C T^T
    acc_ee = np.zeros((s, s))      # E E^T
    labels = np.arange(K, dtype=folds.dtype)[:, None]
    t_flat = buf[2 * s:3 * s].reshape(-1)
    # where each split's next value sits in vals_split, which is fold-major
    # with each split's values in increasing row order
    next_value = np.cumsum(sizes) - sizes
    for r0 in range(0, n, width):
        w = min(width, n - r0)
        chunk = buf[:, :w]
        a, cm, t, e = (chunk[i * s:(i + 1) * s] for i in range(4))
        # E is the one-hot of the chunk's labels, split j = (m, k) in row j
        hot = np.equal(folds[:, None, r0:r0 + w], labels).reshape(s, w)
        e[...] = hot
        # the chunk's (split, row) pairs, split by split with rows increasing,
        # which is also the order of each split's values in vals_split
        pos = np.flatnonzero(hot)
        split = pos // w
        counts = np.bincount(split, minlength=s)
        rows = pos - split * w + r0
        pos += split * (width - w)  # where each pair sits in T's full-width rows
        del split  # freed before the gathers below
        starts = np.cumsum(counts) - counts
        vals = vals_split[np.repeat(next_value - starts, counts) + np.arange(pos.size)]
        next_value += counts
        if to_values is not None:
            vals = to_values(rows, vals)
        t.fill(0.0)
        t_flat[pos] = vals_base[rows] - np.repeat(scale, counts) * vals
        np.subtract(1.0, e, out=cm)
        np.multiply(cm, vals_base[r0:r0 + w], out=a)
        acc_a += a @ chunk.T
        acc_t += t @ chunk[2 * s:].T
        acc_ct += cm @ t.T
        acc_ee += e @ e.T
    return acc_a, acc_t, acc_ct, acc_ee


def sigma_from_values(folds, K: int, vals_split, vals_base, to_values=None) -> SigmaHat:
    """Covariance of sqrt(n) * (per-split mean - full-sample baseline mean).

    ``folds`` holds the (M x n) fold labels of a plan (see ``splits``):
    split j = (m, k), j in plan order, evaluates the rows of repetition m
    labelled k, and a label K puts a row in no split of its repetition.
    ``vals_split`` is one flat array of the split values, fold-major: split
    j's values on its rows in increasing order, then split j + 1's.
    ``vals_base`` holds the baseline values for all n rows. With
    ``to_values`` given, ``vals_split`` holds any per-row values instead,
    say the splits' predictions, and ``to_values(rows, values)`` turns a
    chunk's rows and their values, split by split, into the split values
    there. The split values enter as tilde_j = v[rows] - (n / |rows|) vals_j,
    which is formed one row chunk at a time and never for a whole split. The
    chunk loop runs in ``_chunk_sums``, so its buffer and gathers are freed
    before the S x S block arithmetic and ``eigh``.

    With E the (S x n) eval-row indicator, C = 1 - E its complement, T the
    split values tilde_j (zero off each split's eval rows) and a = C * v, the
    sums are taken over row chunks of one (4S x rows) buffer [a; C; T; E]:
    a [a; C; T; E]^T gives the complement/complement and complement/eval
    cross sums and row sums, T [T; E]^T the eval/eval ones, C T^T the
    complement/eval column sums and E E^T the intersection counts, from which
    the other counts follow exactly. A chunk's E is the one-hot of its slice
    of the labels, and its T entries are read from ``vals_split`` at each
    split's running count of rows, so only the chunk's (split, row) pairs
    are ever indexed, never a split's whole row list.
    """
    acc_a, acc_t, acc_ct, acc_ee = _chunk_sums(folds, K, vals_split, vals_base, to_values)
    s, n = acc_ee.shape[0], folds.shape[1]

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


def delta_vector(mf: MomentFunction, ev: Evaluations, baseline: Block,
                 h: DeltaSpec = IDENTITY) -> DeltaVector:
    """Per-split estimates minus the whole-sample estimate of the baseline's
    block ``baseline`` on all rows."""
    return _gaps(h, per_split_estimates(mf, ev), solve_blocks(mf, [baseline])[0])


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
    folds, K, n = ev.plan.folds, ev.plan.K, ev.plan.n
    if isinstance(mf, AverageMoment):
        # f acts row by row, so Sigma reads the blocks' own predictions and
        # evaluates f once per row chunk, over every split's rows in it
        y, g = ev.d.y, ev.codes

        def f_rows(rows, eta):
            return mf.f_eta(eta, y[rows], None if g is None else g[rows])

        sigma = sigma_from_values(folds, K, ev.etas, vals_ref, f_rows)
    else:
        grad = h.gradient(delta.theta_b)
        vals, end = np.empty(ev.etas.size), 0
        for b in ev:
            theta = delta.per_split_thetas[(b.m, b.k)]
            vals[end:end + b.eta.size] = _influence_rows(mf, b, theta, grad)
            end += b.eta.size
        sigma = sigma_from_values(folds, K, vals, vals_ref)
    return sigma, one_sided_test(delta.deltas, sigma, n, alpha, mc_draws, seed, slack)


# ---------------------------------------------------------------------------
# test and confidence interval


def mc_critical_value(sigma: SigmaHat, alpha: float, mc_draws: int, seed: int,
                      sigmas: np.ndarray) -> float:
    """(1-alpha) quantile of T(Z) over Z ~ N(0, Sigma), seeded. Each chunk of
    draws is studentized, clipped at 0 and squared in place in its own
    buffer, bitwise ``(np.minimum(z / sigmas, 0.0) ** 2).sum(axis=1)``."""
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
        np.divide(z, sigmas, out=z)
        np.minimum(z, 0.0, out=z)
        np.square(z, out=z)
        stats[done:done + take] = z.sum(axis=1)
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


def sigma_delta_hat(mf: MomentFunction, ev: Evaluations, estimate: ZEstimate, base_vals,
                    h: DeltaSpec = IDENTITY):
    """Standard error for the pooled gap: sigma_eta^2 + sigma_b^2 - 2 cov.

    sigma_eta^2 is read from the moment the variant-2 ``estimate`` pooled at
    its theta_hat; the covariance with ``base_vals``, the baseline's
    influence values on all n rows, takes one pass over the splits.
    Returns (sigma_delta, clamped_flag); a tiny negative variance from the
    covariance subtraction is clamped to zero and flagged.
    """
    dv = delta_variance(estimate, ev.plan, h)
    var_b = float(np.var(base_vals))

    cov_acc = 0.0
    for b in ev:
        a_s = _influence_rows(mf, b, estimate.theta_hat, dv.grad)
        a_b = base_vals[b.rows]
        cov_acc += float(np.mean((a_s - a_s.mean()) * (a_b - a_b.mean())))
    cov = cov_acc / ev.plan.n_splits

    var_delta = dv.variance + var_b - 2.0 * cov
    clamped = var_delta < 0.0
    return float(np.sqrt(max(var_delta, 0.0))), bool(clamped)


def compare_models(mf: MomentFunction, ev: Evaluations, baseline: Model, h: DeltaSpec = IDENTITY,
                   alpha: float = 0.05, mc_draws: int = 100_000, seed: int = 0,
                   slack: float = 0.0) -> ComparisonResult:
    """Full comparison pipeline: gaps, covariance, test, pre-tested CI.

    ``baseline`` is the model the splits are compared with; it predicts once,
    on all rows.
    """
    n = ev.plan.n
    base = Block.of(baseline, ev.d)
    delta = delta_vector(mf, ev, base, h)
    base_vals = _influence_rows(mf, base, delta.theta_b, h.gradient(delta.theta_b))
    sigma, test = _one_sided(mf, ev, delta, base_vals, h, alpha, mc_draws, seed, slack)

    pooled = solve(2, mf, ev)
    point = float(h.h(pooled.theta_hat)) - delta.h_baseline
    sd, clamped = sigma_delta_hat(mf, ev, pooled, base_vals, h)
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


def _pooled_row_values(mf, ev: Evaluations, theta_pooled, h, uncovered) -> np.ndarray:
    """Row-level influence values for a pooled split-sample estimator.

    Each row is averaged over the models that evaluate it out-of-fold. Rows
    that no split evaluates (possible when K = 1) take the average over all
    models: ``uncovered`` holds each model's block on those rows, predicted
    in its split's step.
    """
    grad = h.gradient(theta_pooled)
    acc = np.zeros(ev.plan.n)
    cnt = np.zeros(ev.plan.n)
    for b in chain(ev, uncovered):
        acc[b.rows] += _influence_rows(mf, b, theta_pooled, grad)
        cnt[b.rows] += 1.0
    return acc / cnt


def compare_two_learners(mf: MomentFunction, plan: SplitPlan, d: Dataset,
                         learner_a, learner_b, seed: int = 0,
                         h: DeltaSpec = IDENTITY, alpha: float = 0.05,
                         mc_draws: int = 100_000, slack: float = 0.0) -> TwoLearnerComparison:
    """Directional comparisons of two learners trained on identical splits."""
    # a row no split evaluates has the "in no fold" label K in every repetition
    uncovered_rows = np.flatnonzero((plan.folds == plan.K).all(axis=0))
    codes = group_codes(d)
    evs, uncovered = [], []

    def keep(model, m, k):  # the split model's block on the rows no split evaluates
        uncovered[-1].append(Block.of(model, d, uncovered_rows, m, k, codes))

    for i, learner in enumerate((learner_a, learner_b)):
        uncovered.append([])
        evs.append(cross_fit(plan, d, learner, derived_seed(seed, i),
                             keep if uncovered_rows.size else None))
    thetas = [solve(2, mf, ev).theta_hat for ev in evs]

    results = []
    for direction in (0, 1):  # a against pooled b, then b against pooled a
        other = 1 - direction
        delta = _gaps(h, per_split_estimates(mf, evs[direction]), thetas[other])
        values = _pooled_row_values(mf, evs[other], thetas[other], h, uncovered[other])
        _, test = _one_sided(mf, evs[direction], delta, values, h, alpha, mc_draws,
                             derived_seed(seed, 2 + direction), slack)
        results.append((delta, test))

    (delta_ab, test_ab), (delta_ba, test_ba) = results
    return TwoLearnerComparison(delta_ab=delta_ab, delta_ba=delta_ba, test_ab=test_ab,
                                test_ba=test_ba, theta_a=thetas[0], theta_b=thetas[1])
