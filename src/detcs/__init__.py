"""Determinantal Cauchy-Schwarz: |det(A*MB)|^2 <= det(A*MA) det(B*MB).

One entry, ``verify_inequality``, verifies the bound for an (A, B, M)
instance and returns a ``CsReport``: the equality/strictness regime it
falls in, both sides, and the determinantal correlation |det(Qa*Qb)|
between column spaces that controls the gap.  This module exports that
verdict API and nothing else.  Every other module is imported by name:
seeded fuzzing from ``detcs.fuzz``, matrix files from ``detcs.matrixio``,
and the brute-force reference routes and principal-angle diagnostics from
``detcs.oracles``.
"""

from .errors import (
    DetcsError,
    InequalityViolation,
    MatrixParseError,
    NotHermitian,
    NotPositiveDefinite,
    OracleError,
)
from .inequality import (
    EQUALITY_TOL,
    CaseTag,
    CsReport,
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
    "EQUALITY_TOL",
    "CaseTag",
    "CsReport",
    "verify_inequality",
    "whitened_pair",
    "HpdFactor",
    "SignedLogDet",
    "cholesky_hpd",
    "conj_transpose",
    "log_det",
    "matmul",
]
