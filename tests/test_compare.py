import tracemalloc

import numpy as np
import pytest

from splitinfer import compare as compare_mod
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
from splitinfer.data import Dataset, Roles
from splitinfer.errors import ZeroDiagonal
from splitinfer.evaluation import evaluate
from splitinfer.learners import ConstantModel, builtin, train_all
from splitinfer.moments import builtin_moment
from splitinfer.rng import substream
from splitinfer.splits import enumerate_pairs, generate_plan


def gauss_dataset(n, seed, slope=1.0):
    rng = substream(seed)
    x = rng.standard_normal(n)
    y = slope * x + rng.standard_normal(n)
    return Dataset({"y": y, "x": x}, Roles("y", ("x",)))


def test_delta_zero_for_constant_outcome():
    d = Dataset({"y": np.full(12, 2.0), "x": np.zeros(12)}, Roles("y", ("x",)))
    plan = generate_plan(12, M=2, K=2, seed=0)
    models = {key: ConstantModel(2.0) for key in [(m, k) for m in range(2) for k in range(2)]}
    dv = delta_vector(builtin_moment("mse"), evaluate(models, plan, d, ConstantModel(2.0)))
    np.testing.assert_allclose(dv.deltas, 0.0, atol=1e-15)


def test_delta_same_function_is_sampling_noise():
    d = gauss_dataset(50, 3)
    plan = generate_plan(50, M=1, K=2, seed=1)
    zero = ConstantModel(0.0)
    models = {(0, 0): zero, (0, 1): zero}
    dv = delta_vector(builtin_moment("mse"), evaluate(models, plan, d, zero))
    # identical prediction functions: gap is eval-mean minus full-mean of y^2
    for (m, k, pair), delta in zip(enumerate_pairs(plan), dv.deltas):
        expected = np.mean(d.y[pair.eval_rows] ** 2) - np.mean(d.y**2)
        assert delta == pytest.approx(expected, abs=1e-12)


def test_delta_negative_when_learner_dominates():
    d = gauss_dataset(80, 5, slope=2.0)
    plan = generate_plan(80, M=2, K=2, seed=2)
    models = train_all(plan, d, builtin("ols"), seed=0)
    base = builtin("mean").train(d)
    dv = delta_vector(builtin_moment("mse"), evaluate(models, plan, d, base))
    assert np.all(dv.deltas < 0)


def test_sigma_duplicate_splits_symmetry():
    d = gauss_dataset(30, 7)
    eval_sets = [np.arange(10), np.arange(10)]  # identical duplicate splits
    vals = [d.y[:10] ** 2, d.y[:10] ** 2]
    base = d.y**2
    sig = sigma_from_values(eval_sets, d.n, vals, base)
    np.testing.assert_allclose(sig.matrix[0], sig.matrix[1])
    np.testing.assert_allclose(sig.matrix[:, 0], sig.matrix[:, 1])


def test_sigma_constant_values_zero():
    eval_sets = [np.arange(5), np.arange(5, 10)]
    vals = [np.ones(5), np.ones(5)]
    base = np.ones(10)
    sig = sigma_from_values(eval_sets, 10, vals, base)
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
    rng = substream(99)
    n = 37
    base = rng.standard_normal(n) ** 2
    k3 = generate_plan(n, M=2, K=3, seed=1).eval_sets()
    k1 = generate_plan(n, M=4, K=1, b=20, seed=2).eval_sets()
    shuffled = list(k3)
    shuffled[1] = rng.permutation(shuffled[1])
    tiny = [np.array([0, 1, 2]), np.array([2, 3]), np.arange(3, n - 1), np.arange(1, n)]
    cases = {"k3": k3, "k1_subsample": k1, "duplicates": [k3[0], k3[0], k3[1]],
             "shuffled": shuffled, "singletons": tiny}
    return {name: (sets, [base[rows] + 0.3 * rng.standard_normal(len(rows)) for rows in sets],
                   base) for name, sets in cases.items()}


@pytest.mark.parametrize("name", sorted(sigma_cases()))
def test_sigma_matches_intersection_reference(name):
    eval_sets, vals, base = sigma_cases()[name]
    got = sigma_from_values(eval_sets, base.size, iter(vals), base)
    want = sigma_reference(eval_sets, base.size, vals, base)
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-12,
                               atol=1e-12 * np.abs(want.matrix).max())
    assert got.psd_projected == want.psd_projected
    assert got.degenerate_blocks == want.degenerate_blocks
    if name == "singletons":
        assert got.degenerate_blocks > 0


@pytest.mark.parametrize("name", sorted(sigma_cases()))
def test_sigma_does_not_depend_on_chunk_size(name, monkeypatch):
    eval_sets, vals, base = sigma_cases()[name]
    s = len(eval_sets)
    results = []
    for terms in (s, 7 * s, compare_mod._CHUNK_TERMS):
        monkeypatch.setattr(compare_mod, "_CHUNK_TERMS", terms)
        results.append(sigma_from_values(eval_sets, base.size, vals, base))
    for sig in results[1:]:
        np.testing.assert_allclose(sig.matrix, results[0].matrix, rtol=1e-12,
                                   atol=1e-12 * np.abs(results[0].matrix).max())
        assert sig.psd_projected == results[0].psd_projected
        assert sig.degenerate_blocks == results[0].degenerate_blocks


def test_sigma_memory_stays_below_one_splits_by_rows_array():
    n = 40_000
    eval_sets = generate_plan(n, M=20, K=3, seed=3).eval_sets()
    rng = substream(8)
    base = rng.standard_normal(n)
    vals = [rng.standard_normal(len(rows)) for rows in eval_sets]
    tracemalloc.start()
    try:
        sigma_from_values(eval_sets, n, vals, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(eval_sets) * n * 8


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
        models = train_all(plan, d, mean_lr, seed=it)
        base = mean_lr.train(d)
        res = compare_models(mf, evaluate(models, plan, d, base), mc_draws=1)
        ybar = y.mean()
        truth = [(1 + y[p.train_rows].mean() ** 2) - (1 + ybar**2)
                 for (_, _, p) in enumerate_pairs(plan)]
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
    models = train_all(plan, d, builtin("ols"), seed=1)
    base = builtin("mean").train(d)
    res = compare_models(builtin_moment("mse"), evaluate(models, plan, d, base),
                         mc_draws=5000, seed=9)
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
