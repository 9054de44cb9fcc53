"""Dataset container, CSV ingestion, and deterministic row addressing.

A :class:`Dataset` is a fixed collection of equal-length numeric columns with
designated roles (outcome, optional treatment/group/propensity, covariates).
Columns are stored column-major in double precision and frozen after
construction. Categorical data must be pre-encoded numerically by the caller.

:func:`ingest_csv` parses each kept cell with ``float`` and collects each
column in a typed ``array.array("d")``, 8 bytes per cell, not in a list of
Python floats.

Row subsets are plain sorted integer index arrays ("row index sets"); use
:func:`as_row_index_set` to validate one and :func:`complement` to invert it.
:meth:`Dataset.subset` returns a row view of the root dataset, which was
validated once when it was built: any set of its rows is still finite, still
has a binary treatment and propensities in (0, 1), so a view checks only its
row set. A view gathers a column from the root on first read, with
``ndarray.take``, and keeps it read-only; a fit that reads ``x`` and ``y``
gathers those and nothing else. A linear fit reads ``design``, [1, x], which
a view gathers in one take of the root's, built once. A T-learner reads
``Dataset.arms``, the treated and control views, which a dataset splits
once and keeps, so every learner trained on it shares them and their
gathered columns.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    EmptyAfterDrop,
    EmptySubset,
    IncompatibleRoles,
    IndexOutOfRange,
    InvalidPropensity,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericCell,
    NotUtf8,
)

DEFAULT_MISSING = ("", "NA")


@dataclass(frozen=True)
class Roles:
    """Column-role declaration for a dataset."""

    outcome: str
    covariates: tuple[str, ...] = ()
    treatment: str | None = None
    group: str | None = None
    propensity: str | float | None = None

    def columns(self) -> tuple[str, ...]:
        names = [self.outcome, *self.covariates]
        for extra in (self.treatment, self.group):
            if extra is not None:
                names.append(extra)
        if isinstance(self.propensity, str):
            names.append(self.propensity)
        # preserve first occurrence order
        seen: dict[str, None] = {}
        for name in names:
            seen.setdefault(name)
        return tuple(seen)

    @staticmethod
    def from_mapping(schema: dict) -> "Roles":
        return Roles(
            outcome=schema["outcome"],
            covariates=tuple(schema.get("covariates", ())),
            treatment=schema.get("treatment"),
            group=schema.get("group"),
            propensity=schema.get("propensity"),
        )


class Dataset:
    """Immutable numeric table with column roles.

    A dataset built from columns is a root: ``__init__`` checks its columns
    once and freezes them. :meth:`subset` returns a row view of the root (a
    subset of a view composes the row indices) that re-runs none of those
    checks. A view gathers each column from the root on first read and caches
    it read-only, takes ``x`` from the root's ``x`` and ``design`` from the
    root's ``design``, and keeps its treatment arms' views (``arms``).

    Parameters
    ----------
    columns : mapping of name -> 1d float array, all of the same length n >= 2.
    roles : Roles
    n_dropped : rows removed during ingestion (informational).
    """

    def __init__(self, columns, roles: Roles, n_dropped: int = 0):
        cols = {}
        n = None
        for name, values in columns.items():
            arr = np.ascontiguousarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} is not 1-dimensional")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DataError(f"column {name!r} has length {arr.shape[0]}, expected {n}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"column {name!r} contains non-finite values")
            arr.flags.writeable = False
            cols[name] = arr
        if n is None or n < 2:
            raise DataError("dataset needs at least 2 rows")
        for name in roles.columns():
            if name not in cols:
                raise MissingColumn(f"role column {name!r} not present")
        if roles.treatment is not None:
            t = cols[roles.treatment]
            if not np.all((t == 0.0) | (t == 1.0)):
                raise NonBinaryTreatment(f"treatment column {roles.treatment!r} has values outside {{0,1}}")
        if isinstance(roles.propensity, str):
            p = cols[roles.propensity]
            if np.any(p <= 0.0) or np.any(p >= 1.0):
                raise InvalidPropensity("propensity values must lie strictly inside (0,1)")
        elif isinstance(roles.propensity, float):
            if not 0.0 < roles.propensity < 1.0:
                raise InvalidPropensity("constant propensity must lie strictly inside (0,1)")
        self._columns = cols
        self._root: Dataset | None = None  # a view's root; None on a root
        self._rows: np.ndarray | None = None
        self.roles = roles
        self.n = n
        self.n_dropped = int(n_dropped)
        self._x: np.ndarray | None = None
        self._design: np.ndarray | None = None
        self._arms: tuple | None = None

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            if self._root is None or name not in self._root._columns:
                raise MissingColumn(f"no column {name!r}") from None
        arr = self._root._columns[name].take(self._rows)
        arr.flags.writeable = False
        self._columns[name] = arr
        return arr

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple((self._root or self)._columns)

    @property
    def y(self) -> np.ndarray:
        return self.column(self.roles.outcome)

    @property
    def x(self) -> np.ndarray:
        """Covariate matrix of shape (n, p), p may be 0."""
        if self._x is None:
            if self._root is not None:
                x = self._root.x.take(self._rows, axis=0)
            elif self.roles.covariates:
                x = np.column_stack([self._columns[c] for c in self.roles.covariates])
            else:
                x = np.empty((self.n, 0))
            x.flags.writeable = False
            self._x = x
        return self._x

    @property
    def design(self) -> np.ndarray:
        """The (n, p + 1) C-ordered matrix [1, x] of a linear fit. The root
        builds and keeps its own, n (p + 1) doubles, on first read; a view
        gathers its rows of the root's in one take."""
        if self._design is None:
            if self._root is not None:
                z = self._root.design.take(self._rows, axis=0)
            else:
                z = np.column_stack([np.ones(self.n), self.x])
            z.flags.writeable = False
            self._design = z
        return self._design

    @property
    def arms(self) -> tuple["Dataset", "Dataset"]:
        """The (treated, control) row views, rows with t == 1 and t == 0.
        Computed on first read and kept: both views are built before the pair
        is stored, so threads sharing this dataset read a whole pair, and the
        learners trained on it share the views' gathered columns. Raises
        IncompatibleRoles when an arm has fewer than 2 rows."""
        if self._arms is None:
            t = self.t
            treated, control = np.flatnonzero(t == 1.0), np.flatnonzero(t == 0.0)
            if treated.size < 2 or control.size < 2:
                raise IncompatibleRoles("both treatment arms need at least 2 rows")
            self._arms = (self.subset(treated), self.subset(control))
        return self._arms

    @property
    def t(self) -> np.ndarray:
        if self.roles.treatment is None:
            raise IncompatibleRoles("dataset has no treatment column")
        return self.column(self.roles.treatment)

    @property
    def g(self) -> np.ndarray:
        if self.roles.group is None:
            raise IncompatibleRoles("dataset has no group column")
        return self.column(self.roles.group)

    def propensity_values(self) -> np.ndarray:
        """Propensity per row, from the role column or a constant."""
        p = self.roles.propensity
        if p is None:
            raise InvalidPropensity("dataset declares no propensity")
        if isinstance(p, str):
            return self.column(p)
        return np.full(self.n, float(p))

    def subset(self, rows) -> "Dataset":
        """Row view of the root dataset on a row index set of this one, roles
        preserved. The view checks only the row set; its columns are gathered
        from the root when first read."""
        rows = as_row_index_set(rows, self.n)
        if rows.size < 2:
            raise DataError("dataset needs at least 2 rows")
        if self._root is not None:
            rows = self._rows.take(rows)
            rows.flags.writeable = False
        view = Dataset.__new__(Dataset)
        view._columns = {}
        view._root = self._root or self
        view._rows = rows
        view.roles = self.roles
        view.n = rows.size
        view.n_dropped = 0
        view._x = None
        view._design = None
        view._arms = None
        return view


def _integer_rows(rows) -> np.ndarray:
    """A new flat int64 array of the indices ``rows``; a boolean mask or
    non-integer values raise rather than being cast to indices."""
    arr = np.asarray(rows).ravel()
    if arr.size and arr.dtype.kind not in "iu":
        raise DataError(f"row indices must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def as_row_index_set(rows, n: int) -> np.ndarray:
    """Validate and normalize a row index set: integer, sorted, unique, within
    [0, n)."""
    arr = _integer_rows(rows)
    if arr.size == 0:
        raise EmptySubset("row index set is empty")
    if (arr[1:] <= arr[:-1]).any():
        arr = np.unique(arr)
    if arr[0] < 0 or arr[-1] >= n:
        raise IndexOutOfRange(f"indices must lie in [0, {n})")
    arr.flags.writeable = False
    return arr


def complement(rows, n: int) -> np.ndarray:
    """Indices in [0, n) not contained in ``rows``."""
    mask = np.ones(n, dtype=bool)
    mask[_integer_rows(rows)] = False
    out = np.flatnonzero(mask)
    if out.size == 0:
        raise EmptySubset("complement is empty")
    return out


def ingest_csv(path, schema, missing_policy: str = "strict",
               missing_values=DEFAULT_MISSING) -> Dataset:
    """Read an RFC-4180 CSV with header into a Dataset.

    Only columns named by the schema are ingested. Under ``strict`` policy any
    cell that does not parse as a number raises; under ``drop`` rows whose
    declared cells match a missing sentinel are removed and counted, while
    unparseable non-sentinel cells still raise :class:`NonNumericCell`. A file
    that is not UTF-8 raises :class:`NotUtf8`. Each kept column is collected
    as a typed array of doubles, 8 bytes per cell, and copied once into its
    numpy column.

    Parameters
    ----------
    path : CSV file path.
    schema : dict with keys outcome / covariates / treatment / group / propensity,
        or a :class:`Roles` instance.
    missing_policy : "strict" or "drop".
    missing_values : cell strings treated as missing (default: "" and "NA").
    """
    if missing_policy not in ("strict", "drop"):
        raise DataError(f"unknown missing_policy {missing_policy!r}")
    roles = schema if isinstance(schema, Roles) else Roles.from_mapping(schema)
    missing = frozenset(missing_values)

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError("CSV file is empty") from None
            header = [h.strip() for h in header]
            positions = {}
            for name in roles.columns():
                if name not in header:
                    raise MissingColumn(f"column {name!r} not in CSV header {header}")
                positions[name] = header.index(name)

            kept = {name: array("d") for name in positions}
            n_dropped = 0
            for line_no, record in enumerate(reader, start=2):
                if not record:
                    continue
                parsed = {}
                drop_row = False
                for name, pos in positions.items():
                    cell = record[pos].strip() if pos < len(record) else ""
                    if cell in missing:
                        if missing_policy == "drop":
                            drop_row = True
                            break
                        raise NonNumericCell(f"line {line_no}, column {name!r}: missing value")
                    try:
                        parsed[name] = float(cell)
                    except ValueError:
                        raise NonNumericCell(
                            f"line {line_no}, column {name!r}: cannot parse {cell!r}"
                        ) from None
                if drop_row:
                    n_dropped += 1
                    continue
                for name, value in parsed.items():
                    kept[name].append(value)
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"CSV file is not UTF-8: {exc}") from None

    n_kept = len(next(iter(kept.values()))) if kept else 0
    if n_kept < 2:
        raise EmptyAfterDrop(f"only {n_kept} usable rows after ingestion")
    columns = {name: np.array(values) for name, values in kept.items()}
    return Dataset(columns, roles, n_dropped=n_dropped)
