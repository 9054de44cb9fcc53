import numpy as np
import pytest

from splitinfer import compare as compare_mod
from splitinfer import sim
from splitinfer.compare import (
    SigmaHat,
    compare_models,
    compare_two_learners,
    comparison_ci,
    delta_vector,
    extended_interval,
    mc_critical_value,
    one_sided_test,
    sigma_from_values,
)
from splitinfer.data import Dataset, Roles, complement
from splitinfer.errors import ZeroDiagonal
from splitinfer.evaluation import Block, cross_fit
from splitinfer.inference import IDENTITY, named_reduction
from splitinfer.learners import ConstantModel, builtin
from splitinfer.moments import builtin_moment
from splitinfer.rng import derived_seed, substream
from splitinfer.splits import generate_plan
from test_evaluation import fixed


def gauss_dataset(n, seed, slope=1.0):
    rng = substream(seed)
    x = rng.standard_normal(n)
    y = slope * x + rng.standard_normal(n)
    return Dataset({"y": y, "x": x}, Roles("y", ("x",)))


def test_delta_zero_for_constant_outcome():
    d = Dataset({"y": np.full(12, 2.0), "x": np.zeros(12)}, Roles("y", ("x",)))
    plan = generate_plan(12, M=2, K=2, seed=0)
    two = ConstantModel(2.0)
    dv = delta_vector(builtin_moment("mse"), cross_fit(plan, d, fixed(two)), Block.of(two, d))
    np.testing.assert_allclose(dv.deltas, 0.0, atol=1e-15)


def test_delta_same_function_is_sampling_noise():
    d = gauss_dataset(50, 3)
    plan = generate_plan(50, M=1, K=2, seed=1)
    zero = ConstantModel(0.0)
    dv = delta_vector(builtin_moment("mse"), cross_fit(plan, d, fixed(zero)), Block.of(zero, d))
    # identical prediction functions: gap is eval-mean minus full-mean of y^2
    for rows, delta in zip(plan.eval_sets(), dv.deltas, strict=True):
        expected = np.mean(d.y[rows] ** 2) - np.mean(d.y**2)
        assert delta == pytest.approx(expected, abs=1e-12)


def test_delta_negative_when_learner_dominates():
    d = gauss_dataset(80, 5, slope=2.0)
    plan = generate_plan(80, M=2, K=2, seed=2)
    base = Block.of(builtin("mean").train(d), d)
    dv = delta_vector(builtin_moment("mse"), cross_fit(plan, d, builtin("ols"), seed=0), base)
    assert np.all(dv.deltas < 0)


def one_repetition_per_set(eval_sets, n):
    """K = 1 fold labels with one repetition per evaluation set: label 0 on
    its rows, 1 (in no fold) elsewhere, so the sets may overlap or repeat."""
    folds = np.ones((len(eval_sets), n), dtype=np.uint8)
    for labels, rows in zip(folds, eval_sets):
        labels[rows] = 0
    return folds


def test_sigma_duplicate_splits_symmetry():
    d = gauss_dataset(30, 7)
    folds = one_repetition_per_set([np.arange(10), np.arange(10)], d.n)  # identical splits
    vals = np.concatenate([d.y[:10] ** 2, d.y[:10] ** 2])
    base = d.y**2
    sig = sigma_from_values(folds, 1, vals, base)
    np.testing.assert_allclose(sig.matrix[0], sig.matrix[1])
    np.testing.assert_allclose(sig.matrix[:, 0], sig.matrix[:, 1])


def test_sigma_constant_values_zero():
    folds = np.repeat(np.arange(2, dtype=np.uint8), 5)[None]  # one repetition of K = 2
    sig = sigma_from_values(folds, 2, np.ones(10), np.ones(10))
    np.testing.assert_allclose(sig.matrix, 0.0, atol=1e-12)


def sigma_reference(eval_sets, n, vals, base):
    """Sigma by explicit row intersections: for every pair of splits, the four
    centered cross sums over complement/eval row intersections, then the same
    symmetrization and PSD projection as ``sigma_from_values``."""
    s = len(eval_sets)
    masks, tildes = [], []
    for rows, v in zip(eval_sets, vals):
        mask = np.zeros(n, dtype=bool)
        mask[rows] = True
        tilde = np.zeros(n)
        tilde[rows] = base[rows] - (n / len(rows)) * np.asarray(v)
        masks.append(mask)
        tildes.append(tilde)

    def centered(rows, x, y):
        if rows.size < 2:
            return 0.0
        return float(((x[rows] - x[rows].mean()) * (y[rows] - y[rows].mean())).sum())

    total = np.zeros((s, s))
    degenerate = 0
    for j in range(s):
        for l in range(s):
            cc = np.flatnonzero(~masks[j] & ~masks[l])
            ce = np.flatnonzero(~masks[j] & masks[l])
            ec = np.flatnonzero(masks[j] & ~masks[l])
            ee = np.flatnonzero(masks[j] & masks[l])
            total[j, l] = (centered(cc, base, base) + centered(ce, base, tildes[l])
                           + centered(ec, tildes[j], base)
                           + centered(ee, tildes[j], tildes[l])) / n
            degenerate += sum(rows.size == 1 for rows in (cc, ce, ee))
    total = 0.5 * (total + total.T)
    eigval, eigvec = np.linalg.eigh(total)
    projected = bool(eigval.min() < -1e-14 * max(eigval.max(), 1.0))
    if projected:
        total = (eigvec * np.maximum(eigval, 0.0)) @ eigvec.T
        total = 0.5 * (total + total.T)
    return SigmaHat(total, projected, degenerate)


def sigma_cases():
    """name -> (fold labels, K, the evaluation sets in plan order, each set's
    values in increasing row order, baseline values on all rows)."""
    rng = substream(99)
    n = 37
    base = rng.standard_normal(n) ** 2
    plans = {
        "k3": generate_plan(n, M=2, K=3, seed=1),
        "k1_subsample": generate_plan(n, M=4, K=1, b=20, seed=2),
        # K = 1 with a complement of two rows, and with half the rows and two
        # repetitions, which leaves rows that no split evaluates
        "k1_b_n_minus_2": generate_plan(n, M=3, K=1, b=n - 2, seed=4),
        "k1_b_half": generate_plan(n, M=2, K=1, b=n // 2, seed=5),
    }
    cases = {name: (plan.folds, plan.K, plan.eval_sets()) for name, plan in plans.items()}
    k3 = cases["k3"][2]
    tiny = [np.array([0, 1, 2]), np.array([2, 3]), np.arange(3, n - 1), np.arange(1, n)]
    for name, sets in {"duplicates": [k3[0], k3[0], k3[1]], "singletons": tiny}.items():
        cases[name] = (one_repetition_per_set(sets, n), 1, sets)
    return {name: (folds, K, sets,
                   [base[rows] + 0.3 * rng.standard_normal(len(rows)) for rows in sets], base)
            for name, (folds, K, sets) in cases.items()}


@pytest.mark.parametrize("name", sorted(sigma_cases()))
def test_sigma_matches_intersection_reference(name):
    folds, K, eval_sets, vals, base = sigma_cases()[name]
    got = sigma_from_values(folds, K, np.concatenate(vals), base)
    want = sigma_reference(eval_sets, base.size, vals, base)
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-12,
                               atol=1e-12 * np.abs(want.matrix).max())
    assert got.psd_projected == want.psd_projected
    assert got.degenerate_blocks == want.degenerate_blocks
    if name == "singletons":
        assert got.degenerate_blocks > 0


@pytest.mark.parametrize("name", sorted(sigma_cases()))
def test_sigma_does_not_depend_on_chunk_size(name, monkeypatch):
    folds, K, eval_sets, vals, base = sigma_cases()[name]
    s = len(eval_sets)
    results = []
    for terms in (s, 7 * s, compare_mod._CHUNK_TERMS):
        monkeypatch.setattr(compare_mod, "_CHUNK_TERMS", terms)
        results.append(sigma_from_values(folds, K, np.concatenate(vals), base))
    for sig in results[1:]:
        np.testing.assert_allclose(sig.matrix, results[0].matrix, rtol=1e-12,
                                   atol=1e-12 * np.abs(results[0].matrix).max())
        assert sig.psd_projected == results[0].psd_projected
        assert sig.degenerate_blocks == results[0].degenerate_blocks


@pytest.mark.parametrize("name", sorted(sigma_cases()))
def test_sigma_from_predictions_is_bitwise_sigma_from_values(name):
    # the map path: per-row arrays (here predictions) plus a map applied to a
    # whole chunk's rows must give the values path's Sigma bit for bit, also
    # at K = 1 where some rows are in no split
    folds, K, eval_sets, _, base = sigma_cases()[name]
    if name == "k1_b_half":
        assert np.all(folds == K, axis=0).any()
    rng = substream(17)
    y = rng.standard_normal(base.size)
    etas = [rng.standard_normal(len(rows)) for rows in eval_sets]
    mf = builtin_moment("mse")
    vals = [mf.f_eta(eta, y[rows]) for rows, eta in zip(eval_sets, etas)]
    want = sigma_from_values(folds, K, np.concatenate(vals), base)
    got = sigma_from_values(folds, K, np.concatenate(etas), base,
                            lambda rows, eta: mf.f_eta(eta, y[rows]))
    np.testing.assert_array_equal(got.matrix, want.matrix)
    assert got.psd_projected == want.psd_projected
    assert got.degenerate_blocks == want.degenerate_blocks


def test_compare_sigma_memory_is_bounded_by_the_chunk_budget(traced_peak):
    # n large next to S: one float64 copy of the split values is M n * 8 bytes
    # (16 MB). The chunk loop's buffer holds 4 * _CHUNK_TERMS floats, and each
    # per-chunk gather holds at most _CHUNK_TERMS entries, so with room for
    # four such gathers the bound is 8 * _CHUNK_TERMS floats (8 MiB), about
    # half of that copy
    n, M, K = 200_000, 10, 3
    budget = 8 * compare_mod._CHUNK_TERMS * 8
    assert budget < M * n * 8
    d = gauss_dataset(n, 21)
    mf = builtin_moment("mse")
    mean_lr = builtin("mean")
    ev = cross_fit(generate_plan(n, M, K, seed=5), d, mean_lr)
    base = Block.of(mean_lr.train(d), d)
    delta = delta_vector(mf, ev, base)
    base_vals = mf.f_eta(base.eta, base.y)
    peak = traced_peak(compare_mod._one_sided, mf, ev, delta, base_vals, IDENTITY, 0.05, 1000,
                       0, 0.0)
    assert peak < budget


def test_sigma_memory_stays_below_one_splits_by_rows_array(traced_peak):
    n = 40_000
    plan = generate_plan(n, M=20, K=3, seed=3)
    rng = substream(8)
    base = rng.standard_normal(n)
    vals = rng.standard_normal(plan.M * n)
    peak = traced_peak(sigma_from_values, plan.folds, plan.K, vals, base)
    assert peak < plan.n_splits * n * 8


def test_sigma_frees_its_chunk_buffer_before_the_block_arithmetic(traced_peak):
    # the compare benchmark's split count, S = 300. Bound fixed before the
    # first run, in float64 values: the (4S x w) chunk buffer, the eight S x S
    # blocks of the accumulators plus one S x 4S product (12 S^2), and the
    # per-chunk gathers, each at most M w entries (6 M w); the S x S
    # arithmetic after the loop must fit in what the freed buffer leaves
    n, M, K = 3_000, 100, 3
    plan = generate_plan(n, M=M, K=K, seed=9)
    s = plan.n_splits
    w = min(n, compare_mod._CHUNK_TERMS // s)
    rng = substream(10)
    base = rng.standard_normal(n)
    vals = rng.standard_normal(M * n)
    peak = traced_peak(sigma_from_values, plan.folds, K, vals, base)
    assert peak <= (4 * s * w + 12 * s * s + 6 * M * w) * 8, peak / 2**20


def test_sigma_holds_no_splits_by_rows_array(traced_peak):
    # Sigma on the compare benchmark's plan shape, M = 100, K = 3. Bound
    # fixed before the first run: its chunk buffer and accumulators do not
    # grow with n, so doubling n from 10 000 to 20 000 must add less to its
    # peak than one (S x 10 000) array of one byte per entry would
    M, K = 100, 3
    peaks = []
    for n in (10_000, 20_000):
        plan = generate_plan(n, M, K, seed=12)
        rng = substream(13)
        base = rng.standard_normal(n)
        vals = rng.standard_normal(M * n)
        peaks.append(traced_peak(sigma_from_values, plan.folds, K, vals, base))
    assert peaks[1] - peaks[0] < M * K * 10_000, [p / 2**20 for p in peaks]


def test_sigma_oracle_m1_k2():
    # frozen simulation oracle: mean Sigma-hat against the empirical
    # covariance of sqrt(n) (delta-hat - delta) over fresh redraws
    n, draws = 300, 3000
    mf = builtin_moment("mse")
    mean_lr = builtin("mean")
    rng = substream(424242)
    dev = np.zeros((draws, 2))
    sig = np.zeros((2, 2))
    for it in range(draws):
        y = rng.standard_normal(n)
        d = Dataset({"y": y, "x": np.zeros(n)}, Roles("y", ("x",)))
        plan = generate_plan(n, M=1, K=2, seed=it)
        res = compare_models(mf, cross_fit(plan, d, mean_lr, seed=it), mean_lr.train(d),
                             mc_draws=1)
        ybar = y.mean()
        truth = [(1 + y[complement(rows, n)].mean() ** 2) - (1 + ybar**2)
                 for rows in plan.eval_sets()]
        dev[it] = np.sqrt(n) * (res.delta.deltas - np.array(truth))
        sig += res.sigma.matrix
    empirical = np.cov(dev.T)
    estimated = sig / draws
    np.testing.assert_allclose(estimated, empirical, atol=0.12)


def test_one_sided_test_never_rejects_nonnegative():
    sigma = SigmaHat(np.eye(3), False, 0)
    test = one_sided_test(np.array([0.1, 0.0, 0.5]), sigma, n=100, mc_draws=2000, seed=0)
    assert test.statistic == 0.0
    assert not test.reject


def test_one_sided_test_single_split_statistic():
    sigma = SigmaHat(np.eye(1), False, 0)
    test = one_sided_test(np.array([-1.0]), sigma, n=100, mc_draws=2000, seed=0)
    assert test.statistic == pytest.approx(100.0)
    assert test.reject


def test_critical_value_closed_form():
    # single split, Sigma = 1: P(min(Z,0)^2 <= c) = Phi(sqrt(c)) -> c = 2.706
    sigma = SigmaHat(np.eye(1), False, 0)
    crit = mc_critical_value(sigma, alpha=0.05, mc_draws=100_000, seed=11,
                             sigmas=np.ones(1))
    assert crit == pytest.approx(2.706, abs=0.03)


def test_critical_value_monotone_in_alpha():
    sigma = SigmaHat(np.eye(4) * 2.0 + 0.5, False, 0)
    crits = [mc_critical_value(sigma, a, 20_000, 3, np.sqrt(np.diag(sigma.matrix)))
             for a in (0.01, 0.05, 0.10, 0.20)]
    assert all(a >= b for a, b in zip(crits, crits[1:]))


def one_line_critical_value(sigma, alpha, mc_draws, seed, sigmas):
    """mc_critical_value with each chunk's statistics in one expression of
    fresh temporaries: the reference for the in-place loop."""
    s = sigma.matrix.shape[0]
    jitter = 1e-12 * (np.trace(sigma.matrix) / s)
    chol = np.linalg.cholesky(sigma.matrix + max(jitter, 1e-300) * np.eye(s))
    rng = substream(seed, 0)
    stats = np.empty(mc_draws)
    chunk = max(1, min(mc_draws, 200_000 // s))
    for done in range(0, mc_draws, chunk):
        take = min(chunk, mc_draws - done)
        z = rng.standard_normal((take, s)) @ chol.T
        stats[done:done + take] = (np.minimum(z / sigmas, 0.0) ** 2).sum(axis=1)
    stats.sort()
    return float(stats[int(np.ceil((1.0 - alpha) * mc_draws)) - 1])


@pytest.mark.parametrize("s", [1, 12, 300])
@pytest.mark.parametrize("seed", [0, 9])
def test_critical_value_in_place_loop_equals_the_one_line_expression(s, seed):
    base = substream(40 + s).standard_normal((s, s))
    sigma = SigmaHat(base @ base.T / s + np.eye(s), False, 0)
    sigmas = np.sqrt(sigma.diagonal)
    mc_draws = 2 * (200_000 // s) + 7  # two full chunks and a short one
    want = one_line_critical_value(sigma, 0.05, mc_draws, seed, sigmas)
    assert mc_critical_value(sigma, 0.05, mc_draws, seed, sigmas) == want


def test_statistic_scale_invariance():
    rng = substream(15)
    base = rng.standard_normal((4, 4))
    matrix = base @ base.T + np.eye(4)
    delta = rng.standard_normal(4) * 0.1
    for c in (0.5, 2.0, 10.0):
        t1 = one_sided_test(delta, SigmaHat(matrix, False, 0), 100, mc_draws=5000, seed=1)
        t2 = one_sided_test(c * delta, SigmaHat(c**2 * matrix, False, 0), 100,
                            mc_draws=5000, seed=1)
        assert t1.statistic == pytest.approx(t2.statistic, rel=1e-12)
        assert t1.critical_value == pytest.approx(t2.critical_value, rel=1e-9)


def test_zero_diagonal_raises():
    sigma = SigmaHat(np.diag([1.0, 0.0]), False, 0)
    with pytest.raises(ZeroDiagonal):
        one_sided_test(np.array([-0.1, 0.1]), sigma, 50, mc_draws=100, seed=0)


def test_comparison_ci_rules():
    ci_n, ci_e, ci_f = comparison_ci(0.4, sigma_delta=1.0, n=100, rejected=False, alpha=0.05)
    assert ci_e[0] == 0.0 and ci_e[1] == ci_n[1]
    assert ci_f == ci_e
    ci_n, ci_e, ci_f = comparison_ci(-0.1, sigma_delta=1.0, n=100, rejected=True, alpha=0.05)
    assert ci_e == (ci_n[0], max(ci_n[1], 0.0))
    assert ci_f == ci_n


def test_extended_interval_examples():
    assert extended_interval((0.2, 0.6)) == (0.0, 0.6)
    assert extended_interval((-0.3, 0.1)) == (-0.3, 0.1)


def test_compare_models_end_to_end_flags_and_containment():
    d = gauss_dataset(90, 21, slope=1.5)
    plan = generate_plan(90, M=2, K=3, seed=3)
    res = compare_models(builtin_moment("mse"), cross_fit(plan, d, builtin("ols"), seed=1),
                         builtin("mean").train(d), mc_draws=5000, seed=9)
    lo_e, hi_e = res.ci_extended
    assert lo_e <= 0.0 <= hi_e
    assert lo_e <= res.ci_normal[0] and hi_e >= res.ci_normal[1]
    assert res.ci_final in (res.ci_normal, res.ci_extended)
    assert (res.ci_final == res.ci_normal) == res.test.reject


def test_compare_two_learners_single_split_reduces_to_scalar():
    d = gauss_dataset(40, 31)
    plan = generate_plan(40, M=1, K=1, b=20, seed=4)
    res = compare_two_learners(builtin_moment("mse"), plan, d,
                               builtin("ols"), builtin("mean"),
                               seed=0, mc_draws=2000)
    assert res.delta_ab.deltas.shape == (1,)
    assert res.delta_ba.deltas.shape == (1,)
    np.testing.assert_allclose(
        res.delta_ab.deltas[0],
        res.delta_ab.h_split[0] - float(res.theta_b[0]),
    )


def test_compare_two_learners_dominance():
    # noiseless linear truth: ols fits exactly, mean does not
    rng = substream(77)
    x = rng.standard_normal(120)
    d = Dataset({"y": 2.0 * x, "x": x}, Roles("y", ("x",)))
    plan = generate_plan(120, M=2, K=3, seed=5)
    res = compare_two_learners(builtin_moment("mse"), plan, d,
                               builtin("ols"), builtin("mean"),
                               seed=1, mc_draws=5000)
    assert res.test_ab.reject          # ols beats mean
    assert not res.test_ba.reject      # mean never beats ols


def test_compare_two_learners_equal_learners_size():
    # same learner on both sides: rejection should stay near the nominal level
    mf = builtin_moment("mse")
    rejections = 0
    reps = 120
    for r in range(reps):
        d = gauss_dataset(60, 1000 + r, slope=0.0)
        plan = generate_plan(60, M=1, K=2, seed=r)
        res = compare_two_learners(mf, plan, d, builtin("mean"), builtin("mean"),
                                   seed=r, alpha=0.05, mc_draws=2000)
        rejections += int(res.test_ab.reject)
    rate = rejections / reps
    assert rate <= 0.05 + 0.05  # generous MC band at 120 replications


def test_k1_rows_no_split_evaluates_average_every_split_model(monkeypatch):
    """At K = 1 a row that no split evaluates takes the mean of every split
    model's influence value on it. Pinned on the plan of the golden
    ``compare_learner_linreg_k1`` against split models retrained with their
    derived seeds."""
    n = 150
    d = sim.dgp_sampler({"kind": "linear_cate"})(n, 3)
    plan = generate_plan(n, M=5, K=1, b=75, seed=11)
    evaluated = np.zeros(n, dtype=bool)
    for rows in plan.eval_sets():
        evaluated[rows] = True
    uncovered = np.flatnonzero(~evaluated)
    assert uncovered.tolist() == [62, 70, 75, 87, 93, 106, 136]
    mf, h = builtin_moment("linreg_on_eta"), named_reduction("coordinate:1", 2)
    learners, seed = (builtin("ols"), builtin("ridge(5.0)")), derived_seed(11, 2)
    pooled, real = [], compare_mod._pooled_row_values
    monkeypatch.setattr(compare_mod, "_pooled_row_values",
                        lambda *args: pooled.append(real(*args)) or pooled[-1])
    res = compare_two_learners(mf, plan, d, *learners, seed=seed, h=h, mc_draws=200)
    # a's splits are tested against pooled b, then b's against pooled a
    for values, i, theta in zip(pooled, (1, 0), (res.theta_b, res.theta_a), strict=True):
        grad = h.gradient(theta)
        acc, cnt = np.zeros(n), np.zeros(n)
        for m, rows in enumerate(plan.eval_sets()):  # split (m, 0)
            model = learners[i].train(d.subset(complement(rows, n)),
                                      derived_seed(derived_seed(seed, i), m, 0))
            for part in (rows, uncovered):
                acc[part] += compare_mod._influence_rows(mf, Block.of(model, d, part), theta,
                                                         grad)
                cnt[part] += 1.0
        np.testing.assert_array_equal(values, acc / cnt)
