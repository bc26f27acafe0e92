"""Exception hierarchy shared by all arotnep modules.

A run can fail in three ways: the input is bad (:class:`ParseError`,
:class:`ValidationError`), a solver gets stuck (:class:`NumericalError`),
or an iteration cap runs out (:class:`IterationLimit`).
"""


class ArotnepError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ArotnepError):
    """A dataset, study or plan file could not be read or parsed."""


class ValidationError(ArotnepError):
    """Input violates a model invariant: a value outside its domain, array
    shapes that disagree, or a covariance that is not positive definite."""


class NumericalError(ArotnepError):
    """A solver made no progress (cycling, ill-conditioning) or ended an LP
    in a status the model rules out."""


class IterationLimit(ArotnepError):
    """An iterative scheme (the worst-case ascent or branch and bound) hit
    its cap before converging."""
