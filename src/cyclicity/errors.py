"""Exception taxonomy shared across the package.

Validation problems (bad arguments, violated preconditions) raise an
`ArgumentError`, a ValueError; numeric failures discovered mid-computation
raise a `NumericFailureError`, a RuntimeError. The class alone sets the
CLI's exit code: 0 on success, 2 on an `ArgumentError`, 3 on a
`NumericFailureError`, and 1 with Python's traceback on any other
exception, a builtin ValueError or KeyError included, which is an internal
error.
"""


class CyclicityError(Exception):
    """Base class for all package errors."""


class ArgumentError(CyclicityError, ValueError):
    """Invalid argument or violated precondition."""


class DimensionMismatchError(ArgumentError):
    """Operands live over different variable counts or incompatible shapes."""


class DegreeRangeError(ArgumentError):
    """Requested degree or word length exceeds the precomputed range."""


class DegenerateInputError(ArgumentError):
    """Input is degenerate for the requested operation (e.g. f = 0)."""


class SingularInversionError(ArgumentError):
    """Power-series inversion of a series whose constant term vanishes."""


class NumericFailureError(CyclicityError, RuntimeError):
    """A numeric routine failed to produce a usable result."""


class ConditioningError(NumericFailureError):
    """Least-squares system too ill-conditioned for any available solver."""
