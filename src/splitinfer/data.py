"""Dataset container, CSV ingestion, and deterministic row addressing.

A :class:`Dataset` is a fixed collection of equal-length numeric columns with
designated roles (outcome, optional treatment/group/propensity, covariates).
Columns are stored column-major in double precision and frozen after
construction, so a dataset can be shared freely across threads. Categorical
data must be pre-encoded numerically by the caller.

Row subsets are plain sorted integer index arrays ("row index sets"); use
:func:`as_row_index_set` to validate one and :func:`complement` to invert it.
"""

from __future__ import annotations

import csv
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
        self.roles = roles
        self.n = n
        self.n_dropped = int(n_dropped)
        self._x: np.ndarray | None = None

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise MissingColumn(f"no column {name!r}") from None

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def y(self) -> np.ndarray:
        return self._columns[self.roles.outcome]

    @property
    def x(self) -> np.ndarray:
        """Covariate matrix of shape (n, p), p may be 0."""
        if self._x is None:
            if self.roles.covariates:
                x = np.column_stack([self._columns[c] for c in self.roles.covariates])
            else:
                x = np.empty((self.n, 0))
            x.flags.writeable = False
            self._x = x
        return self._x

    @property
    def t(self) -> np.ndarray:
        if self.roles.treatment is None:
            raise IncompatibleRoles("dataset has no treatment column")
        return self._columns[self.roles.treatment]

    @property
    def g(self) -> np.ndarray:
        if self.roles.group is None:
            raise IncompatibleRoles("dataset has no group column")
        return self._columns[self.roles.group]

    def propensity_values(self) -> np.ndarray:
        """Propensity per row, from the role column or a constant."""
        p = self.roles.propensity
        if p is None:
            raise InvalidPropensity("dataset declares no propensity")
        if isinstance(p, str):
            return self._columns[p]
        return np.full(self.n, float(p))

    def subset(self, rows) -> "Dataset":
        """Dataset restricted to a row index set, roles preserved."""
        rows = as_row_index_set(rows, self.n)
        cols = {name: arr[rows] for name, arr in self._columns.items()}
        return Dataset(cols, self.roles)

    def row_tuples(self) -> list[tuple]:
        names = self.column_names
        return [tuple(self._columns[c][i] for c in names) for i in range(self.n)]


def as_row_index_set(rows, n: int) -> np.ndarray:
    """Validate and normalize a row index set: sorted, unique, within [0, n)."""
    arr = np.asarray(rows, dtype=np.int64).ravel()
    if arr.size == 0:
        raise EmptySubset("row index set is empty")
    if arr.min() < 0 or arr.max() >= n:
        raise IndexOutOfRange(f"indices must lie in [0, {n})")
    if arr.size > 1 and np.any(np.diff(arr) <= 0):
        arr = np.unique(arr)
    arr.flags.writeable = False
    return arr


def complement(rows, n: int) -> np.ndarray:
    """Indices in [0, n) not contained in ``rows``."""
    mask = np.ones(n, dtype=bool)
    mask[np.asarray(rows, dtype=np.int64)] = False
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
    that is not UTF-8 raises :class:`NotUtf8`.

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

            kept: dict[str, list[float]] = {name: [] for name in positions}
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
