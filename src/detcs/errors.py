"""Exception types shared across the package."""


class DetcsError(Exception):
    """Base class for all package-specific errors."""


class WrongRegime(DetcsError):
    """An operation defined only for strictly tall matrices (m > n), or for
    the full-rank tall regimes, was called outside them.  A correlation
    refused here names the regime the verdict decided."""


class NotHermitian(DetcsError):
    """A weight matrix failed the hermitian symmetry check."""


class NotPositiveDefinite(DetcsError):
    """A hermitian weight matrix has a non-positive Cholesky pivot."""


class InequalityViolation(DetcsError):
    """A proved bound failed numerically.  This signals a kernel bug (or a
    tolerance far tighter than roundoff), never a failure of the math."""


class OracleError(DetcsError):
    """A brute-force reference computation failed an internal guarantee or
    disagreed with the verdict path.  An input an oracle refuses raises
    ValueError or WrongRegime instead, so this signals a kernel bug."""


class MatrixParseError(DetcsError):
    """Matrix file text does not conform to the expected format.

    ``line`` is the 1-based line number the parser choked on.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
