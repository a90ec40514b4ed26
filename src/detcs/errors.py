"""Exception types shared across the package.

Each ``DetcsError`` subclass is raised by exactly one module:
``InequalityViolation`` by ``detcs.inequality``, ``OracleError`` by
``detcs.oracles``, ``NotHermitian`` and ``NotPositiveDefinite`` by
``detcs.linalg``, and ``MatrixParseError`` by ``detcs.matrixio``.
"""


class DetcsError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(DetcsError):
    """A weight matrix or a Jacobi oracle input failed the hermitian check."""


class NotPositiveDefinite(DetcsError):
    """A hermitian weight matrix has a non-positive Cholesky pivot."""


class InequalityViolation(DetcsError):
    """A verdict broke a proved bound or its equality contract.  This signals
    a kernel bug (or a tolerance far tighter than roundoff), never a failure
    of the math."""


class OracleError(DetcsError):
    """A brute-force reference computation failed an internal guarantee or
    disagreed with the verdict path: a kernel bug.  An input an oracle refuses
    raises ValueError, TypeError or NotHermitian instead."""


class MatrixParseError(DetcsError):
    """Matrix file text does not conform to the expected format.

    ``line`` is the 1-based line number the parser choked on.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
