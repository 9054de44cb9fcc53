"""Split plans: repeated sample-splitting (K=1) and repeated K-fold cross-fitting.

A plan holds M independent repetitions. With K=1 each repetition is a single
evaluation subsample of size b drawn without replacement; with K>1 it is a
random partition of [0, n) into K folds whose sizes differ by at most one
(``np.array_split``: the first n mod K folds get the extra row). Fold
assembly is a Fisher-Yates shuffle on a per-repetition Philox substream, so a
plan is a pure function of (n, M, K, b, seed), independent of platform.

Each evaluation set is a sorted, read-only array of row indices of dtype
``row_dtype(n)``: int32 below 2**31 rows, which halves the M n indices a
K-fold plan holds (8 MB at M = 100, n = 20 000), and int64 beyond.
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
    repetitions: tuple[tuple[np.ndarray, ...], ...]

    @property
    def n_splits(self) -> int:
        return self.M * self.K

    def eval_sets(self):
        """Evaluation sets in (m, k) lexicographic order."""
        return [s for rep in self.repetitions for s in rep]

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "K": self.K,
            "b": self.b,
            "seed": self.seed,
            "repetitions": [[s.tolist() for s in rep] for rep in self.repetitions],
        }


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

    dtype = row_dtype(n)
    reps = []
    for m in range(M):
        perm = substream(seed, m).permutation(n).astype(dtype, copy=False)
        sets = tuple(np.sort(s) for s in ([perm[:b]] if K == 1 else np.array_split(perm, K)))
        for s in sets:
            s.flags.writeable = False
        reps.append(sets)
    return SplitPlan(n=n, M=M, K=K, b=int(b), seed=int(seed), repetitions=tuple(reps))

