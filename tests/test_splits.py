import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from splitinfer.data import Dataset, Roles, complement
from splitinfer.errors import InvalidFoldCount, InvalidSubsampleSize
from splitinfer.evaluation import cross_fit
from splitinfer.learners import ConstantModel, Learner
from splitinfer.rng import derived_seed, substream
from splitinfer.splits import check_plan, generate_plan, label_dtype, row_dtype


def test_equal_fold_sizes():
    plan = generate_plan(6, M=2, K=3, seed=7)
    assert plan.M == 2
    for rep in plan.repetitions:
        assert sorted(s.size for s in rep) == [2, 2, 2]


def test_uneven_fold_sizes():
    # sizes floor(n/K) and ceil(n/K) with the first n mod K folds larger
    plan = generate_plan(7, M=1, K=3, seed=0)
    sizes = [s.size for s in plan.repetitions[0]]
    assert sorted(sizes) == [2, 2, 3]
    assert sizes[0] == 3


def test_sample_splitting_sizes():
    plan = generate_plan(10, M=3, K=1, b=4, seed=1)
    for rep in plan.repetitions:
        assert len(rep) == 1
        assert rep[0].size == 4


def reference_plan_rows(n, M, K, b, seed):
    """Each repetition's evaluation sets as plans were once built from the
    same int64 permutation: sorted ``np.array_split`` folds, or sorted
    perm[:b] at K = 1."""
    reps = []
    for m in range(M):
        perm = substream(seed, m).permutation(n)
        reps.append([np.sort(s) for s in ([perm[:b]] if K == 1 else np.array_split(perm, K))])
    return reps


@pytest.mark.parametrize("n, M, K, b", [(23, 3, 5, None), (40, 2, 1, 9), (7, 1, 3, None),
                                        (31, 2, 2, None), (30, 4, 3, None), (50, 3, 7, None),
                                        (15, 2, 7, None)])
def test_plan_rows_are_read_only_int32_with_the_int64_plan_json(n, M, K, b):
    # the labels give the rows, the evaluation sets and the JSON of the
    # sorted-row construction, also where K does not divide n
    plan = generate_plan(n, M, K, b, seed=4)
    assert plan.folds.shape == (M, n) and plan.folds.dtype == np.uint8
    for rows in plan.eval_sets():
        assert rows.dtype == np.int32
        assert not rows.flags.writeable
    want = reference_plan_rows(n, M, K, b, seed=4)
    for m, rep in enumerate(want):
        for k, rows in enumerate(rep):
            np.testing.assert_array_equal(plan.rows(m, k), rows)
    for got, rows in zip(plan.eval_sets(), [r for rep in want for r in rep], strict=True):
        np.testing.assert_array_equal(got, rows)
    assert plan.to_jsonable()["repetitions"] == [[r.tolist() for r in rep] for rep in want]


def test_row_dtype_widens_at_two_to_the_31_rows():
    assert row_dtype(1) is np.int32
    assert row_dtype(2**31 - 1) is np.int32
    assert row_dtype(2**31) is np.int64
    assert row_dtype(2**40) is np.int64


def test_label_dtype_holds_k_plus_one():
    assert label_dtype(1) == np.uint8
    assert label_dtype(254) == np.uint8
    assert label_dtype(255) == np.uint16
    assert label_dtype(70_000) == np.uint32
    plan = generate_plan(520, M=2, K=255, seed=1)
    assert plan.folds.dtype == np.uint16
    assert generate_plan(520, M=2, K=254, seed=1).folds.dtype == np.uint8
    np.testing.assert_array_equal(plan.rows(1, 254),
                                  reference_plan_rows(520, 2, 255, None, 1)[1][254])


def test_plan_holds_one_byte_per_repetition_and_row():
    # the compare benchmark's plan shape. Bound fixed before the first run:
    # what the plan keeps is its M n one-byte labels plus a small slack
    generate_plan(10, M=1, K=2, seed=0)  # the first draw imports numpy.random
    n, M = 20_000, 100
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = generate_plan(n, M, 3, seed=0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert plan.folds.nbytes == M * n
    assert retained <= M * n + 64 * 1024, retained


def test_partition_invariant():
    plan = generate_plan(23, M=4, K=5, seed=3)
    for rep in plan.repetitions:
        stacked = np.concatenate(rep)
        assert np.array_equal(np.sort(stacked), np.arange(23))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=120),
    m=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_partition_invariant_property(n, m, k, seed):
    plan = generate_plan(n, M=m, K=k, seed=seed)
    for rep in plan.repetitions:
        stacked = np.concatenate(rep)
        assert np.array_equal(np.sort(stacked), np.arange(n))
        assert max(s.size for s in rep) - min(s.size for s in rep) <= 1


@pytest.mark.parametrize("K", [1, 3])
def test_cross_fit_trains_each_split_on_the_complement_of_its_eval_rows(K):
    n = 12
    plan = generate_plan(n, M=2, K=K, b=4 if K == 1 else None, seed=5)
    # y is each row's index, so a fit's outcomes name its training rows
    d = Dataset({"y": np.arange(n, dtype=float), "x": np.zeros(n)}, Roles("y", ("x",)))
    fits = []

    def record(train, seed):
        fits.append((train.y.astype(int), seed))
        return ConstantModel(0.0)

    ev = cross_fit(plan, d, Learner("record", record), seed=7)
    assert len(fits) == 2 * K
    for (train_rows, seed), b, rows in zip(fits, ev, plan.eval_sets(), strict=True):
        np.testing.assert_array_equal(b.rows, rows)
        np.testing.assert_array_equal(train_rows, np.setdiff1d(np.arange(n), rows))
        assert seed == derived_seed(7, b.m, b.k)
        assert b.eta.shape == rows.shape


def test_two_fold_symmetry():
    plan = generate_plan(4, M=1, K=2, seed=9)
    first, second = plan.repetitions[0]
    np.testing.assert_array_equal(complement(first, 4), second)
    np.testing.assert_array_equal(complement(second, 4), first)


def test_determinism():
    a = generate_plan(50, M=3, K=4, seed=123)
    b = generate_plan(50, M=3, K=4, seed=123)
    for rep_a, rep_b in zip(a.repetitions, b.repetitions):
        for sa, sb in zip(rep_a, rep_b):
            np.testing.assert_array_equal(sa, sb)


def test_different_seeds_differ():
    a = generate_plan(50, M=1, K=2, seed=0)
    b = generate_plan(50, M=1, K=2, seed=1)
    assert not np.array_equal(a.repetitions[0][0], b.repetitions[0][0])


def test_invalid_parameters():
    with pytest.raises(InvalidFoldCount):
        generate_plan(5, M=1, K=3, seed=0)  # n < 2K
    with pytest.raises(InvalidSubsampleSize):
        generate_plan(10, M=1, K=1, b=10, seed=0)
    with pytest.raises(InvalidSubsampleSize):
        generate_plan(10, M=1, K=1, b=None, seed=0)


@pytest.mark.parametrize("b", [1, 7, 20])
def test_k_fold_plan_takes_no_b(b):
    # even b = n // K, the size the plan would record, is refused
    with pytest.raises(InvalidSubsampleSize, match="K=3 takes no b"):
        generate_plan(60, M=2, K=3, b=b, seed=0)
    with pytest.raises(InvalidSubsampleSize, match="K=3 takes no b"):
        check_plan(2, 3, b)


def test_selection_frequency_binomial():
    # per-index selection counts across repetitions follow Binomial(M, b/n)
    n, b, M = 200, 50, 200
    plan = generate_plan(n, M=M, K=1, b=b, seed=42)
    counts = np.zeros(n)
    for rep in plan.repetitions:
        counts[rep[0]] += 1
    grid = np.arange(M + 1)
    pmf = stats.binom.pmf(grid, M, b / n)
    # bin the binomial into ~10 roughly equal-probability cells
    edges = [0]
    acc = 0.0
    for value, p in enumerate(pmf):
        acc += p
        if acc > 0.1:
            edges.append(value + 1)
            acc = 0.0
    edges[-1] = M + 1
    observed = np.histogram(counts, bins=edges)[0]
    expected = np.array([pmf[lo:hi].sum() for lo, hi in zip(edges[:-1], edges[1:])]) * n
    keep = expected > 1e-9
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    pvalue = stats.chi2.sf(chi2, keep.sum() - 1)
    assert pvalue > 0.01
