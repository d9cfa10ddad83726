"""Exception types shared across the package.

Every error raised on purpose derives from WalksolveError so callers can
catch library failures without swallowing programming errors.
"""


class WalksolveError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSystemError(WalksolveError):
    """A sparse system violates a structural invariant (range, finiteness, duplicates)."""


class MissingDiagonalError(InvalidSystemError):
    """A diagonal entry is absent or exactly zero."""


class NoConvergenceError(WalksolveError):
    """An iterative estimate failed to meet its stopping rule.

    Carries the best estimate seen so far in ``estimate`` (may be None)
    plus the certified ``lower``/``upper`` bracket when one exists.
    """

    def __init__(self, message, estimate=None, lower=None, upper=None):
        super().__init__(message)
        self.estimate = estimate
        self.lower = lower
        self.upper = upper


class SolverError(WalksolveError):
    """Base class for per-node faults raised inside a solver transition;
    ``node`` is set by the engine when a per-node transition raised it."""

    node = None


class SingularMessageError(SolverError):
    """An incoming scalar the update divides by is numerically zero."""


class DivergedEstimateError(SolverError):
    """A local estimate left the representable range the solver tolerates."""


class ZeroRowError(SolverError):
    """A row used for orthogonal projection has zero norm."""


class SingularMatrixError(WalksolveError):
    """Direct factorization met a pivot too small to trust."""


class NotWalkSummableError(WalksolveError):
    """The instance failed the walk-summability check and force was not set."""


class NotWalkSummableWarning(UserWarning):
    """Solve was forced on an instance that failed the walk-summability check."""


class ProtocolViolationError(WalksolveError):
    """A node program broke the one-message-per-directed-edge-per-round contract."""


class TooLargeError(WalksolveError):
    """Input exceeds a guard limit for an exhaustive or dense computation,
    for a generated instance, or for a run's round arrays."""


class InvalidWalkError(WalksolveError):
    """A walk steps along a pair of nodes that is not an edge."""


class NotAnEdgeError(WalksolveError):
    """The requested (i, j) pair is not an edge of the graph."""


class CyclicGraphError(WalksolveError):
    """An operation defined only for acyclic graphs was given a cyclic one."""


class ParseError(WalksolveError):
    """A text input could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatchError(WalksolveError):
    """Shapes of related inputs disagree."""
