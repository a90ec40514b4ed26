"""Exception types shared across the package."""


class DetcsError(Exception):
    """Base class for all package-specific errors."""


class WrongRegime(DetcsError):
    """A principal-angle diagnostic of ``detcs.oracles``
    (``principal_angle_cosines``, ``column_norm_profile``), defined only for
    strictly tall bases (m > n), was given bases with m <= n."""


class NotHermitian(DetcsError):
    """A weight matrix or a Jacobi oracle input failed the hermitian check."""


class NotPositiveDefinite(DetcsError):
    """A hermitian weight matrix has a non-positive Cholesky pivot."""


class InequalityViolation(DetcsError):
    """A proved bound failed numerically.  This signals a kernel bug (or a
    tolerance far tighter than roundoff), never a failure of the math."""


class OracleError(DetcsError):
    """A brute-force reference computation failed an internal guarantee or
    disagreed with the verdict path: a kernel bug.  An input an oracle refuses
    raises ValueError, TypeError, WrongRegime or NotHermitian instead."""


class MatrixParseError(DetcsError):
    """Matrix file text does not conform to the expected format.

    ``line`` is the 1-based line number the parser choked on.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
