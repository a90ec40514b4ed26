"""Determinantal Cauchy-Schwarz: |det(A*MB)|^2 <= det(A*MA) det(B*MB).

The package verifies the bound, classifies every equality/strictness regime,
and exposes the determinantal correlation |det(Qa*Qb)| between column
spaces that controls the gap.  The brute-force reference routes used to
cross-check it are not exported here; they live in ``detcs.oracles``.
``FuzzConfig``, ``FuzzSummary`` and ``run_fuzz`` load ``detcs.fuzz`` on first use.
"""

from .errors import (
    DetcsError,
    InequalityViolation,
    MatrixParseError,
    NotHermitian,
    NotPositiveDefinite,
    OracleError,
    RankDeficient,
    WrongRegime,
)
from .inequality import (
    ENSEMBLES,
    EQUALITY_TOL,
    CaseTag,
    CsReport,
    classify_case,
    column_norm_profile,
    det_correlation,
    enforce_equality_contract,
    verify_inequality,
    whitened_pair,
)
from .linalg import (
    HpdFactor,
    SignedLogDet,
    SubspaceBasis,
    as_matrix,
    cholesky_hpd,
    conj_transpose,
    log_det,
    matmul,
)
from .matrixio import load_matrix, parse_matrix, save_matrix, serialize_matrix
from . import oracles  # the reference routes, reached as detcs.oracles.<name>


def __getattr__(name):
    if name in ("FuzzConfig", "FuzzSummary", "run_fuzz"):
        from . import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DetcsError",
    "InequalityViolation",
    "MatrixParseError",
    "NotHermitian",
    "NotPositiveDefinite",
    "OracleError",
    "RankDeficient",
    "WrongRegime",
    "ENSEMBLES",
    "FuzzConfig",
    "FuzzSummary",
    "run_fuzz",
    "EQUALITY_TOL",
    "CaseTag",
    "CsReport",
    "classify_case",
    "column_norm_profile",
    "det_correlation",
    "enforce_equality_contract",
    "verify_inequality",
    "whitened_pair",
    "HpdFactor",
    "SignedLogDet",
    "SubspaceBasis",
    "as_matrix",
    "cholesky_hpd",
    "conj_transpose",
    "log_det",
    "matmul",
    "load_matrix",
    "parse_matrix",
    "save_matrix",
    "serialize_matrix",
]
