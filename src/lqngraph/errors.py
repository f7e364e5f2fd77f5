"""Exception types raised across the package.

Every error that callers are expected to catch derives from LQNError, so
CLI and library users can distinguish bad input from genuine bugs.
"""


class LQNError(Exception):
    """Base class for all network/graph/state errors."""


class IndexOutOfRange(LQNError):
    pass


class DuplicateEdge(LQNError):
    pass


class ZeroAmplitude(LQNError):
    pass


class NonFiniteValue(LQNError):
    """An amplitude is NaN or infinite, as given or after overflow."""


class RowNotNormalized(LQNError):
    def __init__(self, row: int, actual_sum: float):
        self.row = row
        self.actual_sum = actual_sum
        super().__init__(
            f"row {row}: squared amplitudes sum to {actual_sum!r}, expected 1"
        )


class NoPerfectMatching(LQNError):
    pass


class ZeroState(LQNError):
    pass


class TooLarge(LQNError):
    """A size ``n`` above the exhaustive-enumeration limit ``limit``."""

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(f"n={n} exceeds the exhaustive-enumeration limit {limit}")


class DimensionMismatch(LQNError):
    pass


class BadLength(LQNError):
    pass


class NoPresetForN(LQNError):
    pass


class ParseError(LQNError):
    pass


class InvalidArgument(LQNError, ValueError):
    """An argument outside its domain: a matching index, a seed, a color."""
