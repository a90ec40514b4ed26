"""Determinantal Cauchy-Schwarz: |det(A*MB)|^2 <= det(A*MA) det(B*MB).

The package verifies the bound, classifies every equality/strictness regime,
and exposes the determinantal correlation |det(Qa*Qb)| between column
spaces that controls the gap.  This module exports that verdict API and
nothing else.  Every other module is imported by name: seeded fuzzing from
``detcs.fuzz``, matrix files from ``detcs.matrixio``, and the brute-force
reference routes and principal-angle diagnostics from ``detcs.oracles``.
"""

from .errors import (
    DetcsError,
    InequalityViolation,
    MatrixParseError,
    NotHermitian,
    NotPositiveDefinite,
    OracleError,
    WrongRegime,
)
from .inequality import (
    EQUALITY_TOL,
    CaseTag,
    CsReport,
    classify_case,
    det_correlation,
    verify_inequality,
    whitened_pair,
)
from .linalg import (
    HpdFactor,
    SignedLogDet,
    cholesky_hpd,
    conj_transpose,
    log_det,
    matmul,
)

__all__ = [
    "DetcsError",
    "InequalityViolation",
    "MatrixParseError",
    "NotHermitian",
    "NotPositiveDefinite",
    "OracleError",
    "WrongRegime",
    "EQUALITY_TOL",
    "CaseTag",
    "CsReport",
    "classify_case",
    "det_correlation",
    "verify_inequality",
    "whitened_pair",
    "HpdFactor",
    "SignedLogDet",
    "cholesky_hpd",
    "conj_transpose",
    "log_det",
    "matmul",
]
