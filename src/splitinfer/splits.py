"""Split plans: repeated sample-splitting (K=1) and repeated K-fold cross-fitting.

A plan holds M independent repetitions. With K=1 each repetition is a single
evaluation subsample of size b drawn without replacement; with K>1 it is a
random partition of [0, n) into K folds whose sizes differ by at most one
(``np.array_split``: the first n mod K folds get the extra row). Fold
assembly is a Fisher-Yates shuffle on a per-repetition Philox substream, so a
plan is a pure function of (n, M, K, b, seed), independent of platform.

A plan stores one fold label per (repetition, row): ``folds[m, i]`` is the
fold k whose evaluation set holds row i in repetition m, or K when no fold
does (the n - b unsampled rows at K=1). Its dtype is ``label_dtype(K)``,
uint8 up to K = 254, so the labels take M n bytes (2 MB at M = 100,
n = 20 000) where int32 row indices took four times that. A split's sorted
evaluation rows are derived from its labels when asked for (``rows``), as a
read-only array of dtype ``row_dtype(n)``: int32 below 2**31 rows, int64
beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFoldCount, InvalidSubsampleSize
from .rng import substream


@dataclass(frozen=True)
class SplitPlan:
    n: int
    M: int
    K: int
    b: int
    seed: int
    folds: np.ndarray  # (M, n) fold labels, read-only

    @property
    def n_splits(self) -> int:
        return self.M * self.K

    def rows(self, m: int, k: int) -> np.ndarray:
        """Split (m, k)'s evaluation rows in increasing order, derived from
        repetition m's labels on each call."""
        return eval_rows(self.folds[m], k)

    @property
    def repetitions(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Each repetition's evaluation sets, derived from the labels."""
        return tuple(tuple(self.rows(m, k) for k in range(self.K)) for m in range(self.M))

    def eval_sets(self):
        """Evaluation sets in (m, k) lexicographic order."""
        return [self.rows(m, k) for m in range(self.M) for k in range(self.K)]

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "K": self.K,
            "b": self.b,
            "seed": self.seed,
            "repetitions": [[s.tolist() for s in rep] for rep in self.repetitions],
        }


def eval_rows(labels: np.ndarray, k: int) -> np.ndarray:
    """The rows whose label is ``k``, in increasing order, read-only."""
    rows = np.flatnonzero(labels == k).astype(row_dtype(labels.size), copy=False)
    rows.flags.writeable = False
    return rows


def fold_sizes(folds: np.ndarray, K: int) -> np.ndarray:
    """(M, K) evaluation-set sizes of the label rows ``folds``."""
    return np.array([np.bincount(labels, minlength=K + 1)[:K] for labels in folds])


def check_plan(M: int, K: int, b: int | None = None, n: int | None = None) -> None:
    """Raise if ``generate_plan`` cannot draw this plan; with n None, make
    only the checks that need no data."""
    if M < 1:
        raise InvalidFoldCount("M must be at least 1")
    if K < 1:
        raise InvalidFoldCount("K must be at least 1")
    if K == 1:
        if b is None or b < 1 or (n is not None and b >= n):
            raise InvalidSubsampleSize(f"K=1 requires 1 <= b < n, got b={b}"
                                       + ("" if n is None else f", n={n}"))
    elif b is not None:
        raise InvalidSubsampleSize(f"K={K} takes no b (its folds have n // K rows), got b={b}")
    elif n is not None and n < 2 * K:
        raise InvalidFoldCount(f"K={K} needs n >= {2 * K} rows, got {n}")


def row_dtype(n: int) -> type:
    """The smallest of int32 and int64 that holds every row index of an
    n-row dataset and n itself."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def label_dtype(K: int) -> np.dtype:
    """The smallest unsigned integer type that holds K + 1: every label,
    0..K, with one value to spare, so a label plus one cannot wrap."""
    return np.min_scalar_type(K + 1)


def generate_plan(n: int, M: int, K: int, b: int | None = None, seed: int = 0) -> SplitPlan:
    """Draw a split plan.

    Parameters
    ----------
    n : number of rows.
    M : repetitions, drawn independently (identical repetitions are legal).
    K : folds per repetition; K=1 means sample-splitting with subsample size b.
    b : evaluation-subsample size, required iff K=1 and None otherwise (the plan records n // K).
    seed : master seed; repetition m uses the substream (seed, m).
    """
    check_plan(M, K, b, n)
    if K > 1:
        b = n // K

    dtype = label_dtype(K)
    # the label of each position of a permutation: the np.array_split fold
    # sizes in order, or b zeros then n - b "in no fold" labels at K=1
    sizes = [b, n - b] if K == 1 else [n // K + (k < n % K) for k in range(K)]
    by_position = np.repeat(np.arange(len(sizes), dtype=dtype), sizes)
    folds = np.empty((M, n), dtype=dtype)
    for m in range(M):
        folds[m, substream(seed, m).permutation(n)] = by_position
    folds.flags.writeable = False
    return SplitPlan(n=n, M=M, K=K, b=int(b), seed=int(seed), folds=folds)
