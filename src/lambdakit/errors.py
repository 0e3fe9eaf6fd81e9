"""Exception types, and the integer-argument test, shared across the package."""


class LambdaKitError(Exception):
    """Base class for all lambdakit errors."""


class InvalidParameterError(LambdaKitError, ValueError):
    """A parameter is outside its documented domain."""


class MatrixParseError(LambdaKitError, ValueError):
    """Input text is not a well-formed square bit matrix."""


class NotLambdaError(LambdaKitError, ValueError):
    """The matrix does not have exactly k ones in every row and column."""


class NotInPlusSetError(LambdaKitError, ValueError):
    """The matrix has a 0 in the bottom-right corner where a 1 is required."""


class InconsistentInputError(LambdaKitError, ValueError):
    """A claimed count fails an exact divisibility relation it must satisfy."""


class ExactnessError(LambdaKitError, ArithmeticError):
    """An exact computation produced a value its derivation rules out: a
    non-integral or negative count, or a division that left a remainder.
    It signals a transcription error or corrupted state, never bad input."""


def is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool`` (``bool`` subclasses ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)
