"""Exception hierarchy shared by all arotnep modules."""


class ArotnepError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ArotnepError):
    """A dataset or config file could not be parsed."""


class ValidationError(ArotnepError):
    """Structurally valid input violates a model invariant."""


class DomainError(ArotnepError):
    """A numeric argument is outside its admissible domain."""


class DimensionMismatch(ArotnepError):
    """Array shapes are inconsistent with the target model."""


class NumericalError(ArotnepError):
    """The LP solver failed to make progress (cycling or ill-conditioning)."""


class NodeLimitExceeded(ArotnepError):
    """Branch and bound exhausted its node budget before proving optimality."""


class NotPositiveDefinite(ArotnepError):
    """Cholesky factorization failed; the matrix is not positive definite.

    ``index`` is the 0-based leading minor at which the failure occurred.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"matrix is not positive definite (leading minor {index})")


class IterationLimit(ArotnepError):
    """An iterative scheme hit its iteration cap before converging."""


class MasterInfeasible(ArotnepError):
    """The investment master problem is infeasible; this indicates a dataset
    bug because load shedding keeps operation feasible for any build plan."""


class InfeasibleOperation(ArotnepError):
    """The operational dispatch problem is infeasible; this indicates a
    dataset bug because shedding up to the full demand is always allowed."""
