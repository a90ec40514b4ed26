"""Exception types shared across the package."""


class DetcsError(Exception):
    """Base class for all package-specific errors."""


class RankDeficient(DetcsError):
    """A matrix required to have full column rank does not."""


class WrongRegime(DetcsError):
    """An operation defined only for strictly tall matrices (m > n) was
    called outside that regime."""


class NotHermitian(DetcsError):
    """A weight matrix failed the hermitian symmetry check."""


class NotPositiveDefinite(DetcsError):
    """A hermitian weight matrix has a non-positive Cholesky pivot."""


class InequalityViolation(DetcsError):
    """A proved bound failed numerically.  This signals a kernel bug (or a
    tolerance far tighter than roundoff), never a failure of the math."""


class OracleError(DetcsError):
    """A brute-force reference computation refused its input or failed an
    internal guarantee."""


class MatrixParseError(DetcsError):
    """Matrix file text does not conform to the expected format.

    ``line`` is the 1-based line number the parser choked on.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
