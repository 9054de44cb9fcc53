"""Exception taxonomy. Every error raised by the library derives from SplitInferError."""


class SplitInferError(Exception):
    """Base class for all library errors."""


class DataError(SplitInferError):
    """Problems with dataset content or structure."""


class MissingColumn(DataError):
    pass


class NonNumericCell(DataError):
    pass


class NotUtf8(DataError):
    pass


class EmptyAfterDrop(DataError):
    pass


class NonBinaryTreatment(DataError):
    pass


class InvalidPropensity(DataError):
    pass


class IndexOutOfRange(DataError):
    pass


class EmptySubset(DataError):
    pass


class InvalidFoldCount(SplitInferError):
    pass


class InvalidSubsampleSize(SplitInferError):
    pass


class LearnerFailure(SplitInferError):
    def __init__(self, learner, m, k, cause):
        super().__init__(f"learner {learner!r} failed on split (m={m}, k={k}): {cause}")
        self.learner = learner
        self.m = m
        self.k = k
        self.cause = cause


class UnknownLearner(SplitInferError):
    pass


class UnknownMoment(SplitInferError):
    pass


class IncompatibleRoles(SplitInferError):
    pass


class NoConvergence(SplitInferError):
    pass


class SingularJacobian(SplitInferError):
    pass


class NonFiniteJacobian(SplitInferError):
    pass


class ZeroVariance(SplitInferError):
    pass


class ZeroDiagonal(SplitInferError):
    pass


class GridTooNarrow(SplitInferError):
    pass


class EmptyGroup(SplitInferError):
    pass


class NotPositiveDefinite(SplitInferError):
    pass


class ConfigInvalid(SplitInferError):
    def __init__(self, pointer, message):
        super().__init__(f"invalid config at {pointer or '/'}: {message}")
        self.pointer = pointer
