import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitinfer.data import Dataset, Roles, as_row_index_set, complement, ingest_csv
from splitinfer.errors import (
    DataError,
    EmptyAfterDrop,
    EmptySubset,
    IndexOutOfRange,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericCell,
)
from splitinfer.learners import builtin


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_basic(tmp_path):
    path = write_csv(tmp_path, "y,x\n1,2\n0,3\n1,4\n")
    d = ingest_csv(path, {"outcome": "y"})
    assert d.n == 3
    assert d.n_dropped == 0
    np.testing.assert_array_equal(d.y, [1.0, 0.0, 1.0])


def test_ingest_drop_counts(tmp_path):
    path = write_csv(tmp_path, "y,x\n1,2\n,3\n1,4\n")
    d = ingest_csv(path, {"outcome": "y", "covariates": ["x"]}, missing_policy="drop")
    assert d.n == 2
    assert d.n_dropped == 1


def test_ingest_nonbinary_treatment(tmp_path):
    path = write_csv(tmp_path, "y,t\n1,0\n0,1\n1,2\n")
    with pytest.raises(NonBinaryTreatment):
        ingest_csv(path, {"outcome": "y", "treatment": "t"})


def test_ingest_strict_missing_raises(tmp_path):
    path = write_csv(tmp_path, "y\n1\nNA\n2\n")
    with pytest.raises(NonNumericCell):
        ingest_csv(path, {"outcome": "y"})


def test_ingest_corrupt_cell_raises_even_when_dropping(tmp_path):
    path = write_csv(tmp_path, "y\n1\nabc\n2\n")
    with pytest.raises(NonNumericCell):
        ingest_csv(path, {"outcome": "y"}, missing_policy="drop")


def test_ingest_missing_column(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(MissingColumn):
        ingest_csv(path, {"outcome": "y"})


def test_ingest_empty_after_drop(tmp_path):
    path = write_csv(tmp_path, "y\nNA\nNA\n1\n")
    with pytest.raises(EmptyAfterDrop):
        ingest_csv(path, {"outcome": "y"}, missing_policy="drop")


def test_ingest_custom_sentinel(tmp_path):
    path = write_csv(tmp_path, "y\n1\n-999\n2\n")
    d = ingest_csv(path, {"outcome": "y"}, missing_policy="drop", missing_values=("-999",))
    assert d.n == 2
    assert d.n_dropped == 1


def test_ingest_deterministic(tmp_path):
    path = write_csv(tmp_path, "y,x\n1.5,2\n0.25,3\n1,4\n")
    d1 = ingest_csv(path, {"outcome": "y", "covariates": ["x"]})
    d2 = ingest_csv(path, {"outcome": "y", "covariates": ["x"]})
    np.testing.assert_array_equal(d1.y, d2.y)
    np.testing.assert_array_equal(d1.x, d2.x)


@pytest.mark.parametrize("policy", ["strict", "drop"])
def test_ingest_parses_each_cell_as_float_does(tmp_path, policy):
    cells = ["-0.0", "4.9e-324", "1e308", " 2.5 ", "1E-3", ".5", "7", "-1e-300"]
    text = "y,x\n" + "".join(f"{c},{d}\n" for c, d in zip(cells, reversed(cells)))
    if policy == "drop":
        text += "NA,1\n"
    d = ingest_csv(write_csv(tmp_path, text), {"outcome": "y", "covariates": ["x"]},
                   missing_policy=policy)
    want = np.array([float(c) for c in cells])
    np.testing.assert_array_equal(d.y.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(d.x[:, 0].view(np.uint64), want[::-1].view(np.uint64))
    assert np.signbit(d.y[0]) and np.signbit(d.x[-1, 0])
    assert d.n_dropped == (policy == "drop")


def test_ingest_holds_a_kept_cell_in_at_most_three_doubles(tmp_path, traced_peak):
    # bound fixed before the first run: a column collected as doubles and its
    # numpy copy are two float64 copies, 16 bytes a cell, plus growth slack
    rows, cols = 40_000, 6
    values = np.random.default_rng(5).standard_normal((rows, cols)).tolist()
    names = [f"c{j}" for j in range(cols)]
    path = write_csv(tmp_path, ",".join(names) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in values))
    peak = traced_peak(ingest_csv, path, {"outcome": names[0], "covariates": names[1:]})
    assert peak <= 24 * rows * cols, peak / (rows * cols)


def make_dataset(n=5):
    return Dataset(
        {"y": np.arange(n, dtype=float), "x": np.arange(n, dtype=float) ** 2},
        Roles("y", ("x",)),
    )


def test_subset_rows():
    d = make_dataset()
    sub = d.subset([0, 2])
    assert sub.n == 2
    np.testing.assert_array_equal(sub.y, [0.0, 2.0])


def test_subset_identity():
    d = make_dataset()
    sub = d.subset(np.arange(d.n))
    np.testing.assert_array_equal(sub.y, d.y)
    np.testing.assert_array_equal(sub.x, d.x)


def test_subset_empty_raises():
    d = make_dataset()
    with pytest.raises(EmptySubset):
        d.subset([])


def test_subset_out_of_range():
    d = make_dataset()
    with pytest.raises(IndexOutOfRange):
        d.subset([0, 7])


def test_partition_multiset_equality():
    d = make_dataset(8)
    s = as_row_index_set([1, 4, 6], d.n)
    rest = complement(s, d.n)
    both = np.concatenate([s, rest])
    assert np.array_equal(np.sort(both), np.arange(d.n))
    left, right = d.subset(s), d.subset(rest)
    for name in d.column_names:  # the same row order in every column
        np.testing.assert_array_equal(
            np.concatenate([left.column(name), right.column(name)]), d.column(name)[both])


def test_columns_are_immutable():
    d = make_dataset(8)
    for table in (d, d.subset([1, 3, 4, 6]), d.subset([1, 3, 4, 6]).subset([0, 2])):
        for arr in (table.y, table.x, table.column("x")):
            with pytest.raises(ValueError):
                arr[0] = 99.0


def test_boolean_mask_is_not_a_row_set():
    d = make_dataset()
    with pytest.raises(DataError, match="bool"):
        d.subset(np.array([True, False, True, False, True]))
    with pytest.raises(DataError, match="bool"):
        complement(np.array([True, False, True, False, True]), d.n)


def test_float_indices_are_not_truncated():
    d = make_dataset()
    with pytest.raises(DataError, match="float64"):
        d.subset([0.9, 2.7])
    with pytest.raises(DataError, match="float64"):
        as_row_index_set(np.array([0.0, 2.0]), d.n)


def eager_subset(d, rows):
    """Reference subset: validate the rows, then copy every column."""
    rows = as_row_index_set(rows, d.n)
    return Dataset({name: d.column(name)[rows] for name in d.column_names}, d.roles)


def trial_table(n, seed):
    rng = np.random.default_rng(seed)
    cols = {
        "y": rng.standard_normal(n),
        "t": rng.integers(0, 2, n).astype(float),
        "ps": rng.uniform(0.1, 0.9, n),
        "grp": rng.integers(0, 3, n).astype(float),
        "a": rng.standard_normal(n),
        "b": rng.standard_normal(n),
        "unused": rng.standard_normal(n),
    }
    return cols, Roles("y", ("a", "b"), treatment="t", group="grp", propensity="ps")


READS = ("y", "x", "design", "t", "g", "propensity_values", "column", "column_names", "n",
         "n_dropped")


def read(d, what):
    if what == "propensity_values":
        return d.propensity_values()
    if what == "column":
        return d.column("unused")
    return getattr(d, what)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 25),
    seed=st.integers(0, 2**16),
    steps=st.lists(st.lists(st.integers(0, 30), max_size=12), min_size=1, max_size=3),
    order=st.permutations(READS),
)
def test_views_match_an_eager_gather(n, seed, steps, order):
    cols, roles = trial_table(n, seed)
    view = Dataset(cols, roles)
    eager = Dataset(cols, roles)
    for rows in steps:
        rows = [r % (view.n + 1) for r in rows]  # sometimes one past the end
        try:
            expected = eager_subset(eager, rows)
        except DataError as exc:
            with pytest.raises(DataError) as caught:
                view.subset(rows)
            assert type(caught.value) is type(exc)
            return
        view = view.subset(rows)
        eager = expected
        for what in order:  # first reads in a random order fill the caches
            got, want = read(view, what), read(eager, what)
            if isinstance(want, np.ndarray):
                assert not got.flags.writeable
                assert got.shape == want.shape and got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want
        assert view.y is view.y and view.x is view.x and view.t is view.t
        assert view.design is view.design and view.design.flags.c_contiguous


def test_subset_error_types():
    d = make_dataset(6).subset([0, 2, 3, 5])
    with pytest.raises(EmptySubset):
        d.subset([])
    with pytest.raises(IndexOutOfRange):
        d.subset([0, 4])
    with pytest.raises(DataError, match="at least 2 rows"):
        d.subset([3])


def test_a_fit_gathers_only_the_columns_it_reads(traced_peak):
    n = 50_000
    rng = np.random.default_rng(3)
    cols = {"y": rng.standard_normal(n), "x": rng.standard_normal(n)}
    cols.update({f"z{i}": rng.standard_normal(n) for i in range(40)})
    d = Dataset(cols, Roles("y", ("x",)))
    rows = np.arange(0, n, 2)
    all_columns = len(cols) * rows.size * 8
    peak = traced_peak(lambda: builtin("ols").train(d.subset(rows)))
    # x, y, the design and lstsq's copies: well under half of all 42 columns
    assert peak < all_columns / 2, (peak, all_columns)
