"""Exception and warning types shared across the package."""


class TrapspecError(Exception):
    """Base class for all package errors."""


class DomainError(TrapspecError):
    """Invalid geometric parameters (angle ordering, degenerate sides, ...)."""


class MeshError(TrapspecError):
    """Triangulation failed or produced unusable elements."""


class ConvergenceError(TrapspecError):
    """Eigensolver did not reach the requested residual tolerance."""


class IllConditionedFit(TrapspecError):
    """Least-squares design matrix condition number above the allowed cap."""


class WindowTooNarrow(TrapspecError):
    """Fit window collapsed while enforcing the truncation-tail bound."""


class NoSolution(TrapspecError):
    """Inversion target admits no valid trapezoid/rectangle."""


class NonUniqueSolution(TrapspecError):
    """More than one root survived a solve that is expected to be unique."""


class InconsistentInvariants(TrapspecError):
    """Recomputed invariants of a reconstruction disagree with the inputs."""


class BudgetExceeded(TrapspecError):
    """Search budget exhausted; partial results are attached.

    Attributes
    ----------
    partial : object
        Whatever was enumerated before the budget ran out.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NoiseFloor(TrapspecError):
    """Probe amplitude indistinguishable from the off-peak background."""


class AmbiguousClassification(TrapspecError):
    """Order-based classification could not commit to a single branch."""


class InvariantMismatch(TrapspecError):
    """Reconstruction cross-validation failed."""


class TruncationWarning(UserWarning):
    """Heat-trace truncation tail above the advisory threshold."""

