"""The determinantal Cauchy-Schwarz inequality |det(A*MB)|^2 <= det(A*MA) det(B*MB).

Five mutually exclusive regimes decide equality versus strictness:

* m < n: every Gram product is singular, both sides vanish.
* m = n: det(A*MB) factors through det(WA) and det(WB), so the two sides
  agree exactly.
* m > n with a rank-deficient factor: both sides vanish again.
* m > n, full rank, identical column spans: equality with positive sides.
* m > n, full rank, distinct spans: strict inequality, and the defect is
  exactly one minus the squared determinantal correlation |det(Qa*Qb)|^2.

Wide instances and instances with a rank-deficient operand (square ones
included) are flagged zero structurally, by shape and rank, never by testing
a computed determinant against noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InequalityViolation
from .linalg import (
    UNIT_SLACK,
    ColumnFactors,
    HpdFactor,
    SignedLogDet,
    as_matrix,
    column_squares,
    conj_transpose,
    factor_lanes,
    log_det,
    matmul,
)

EQUALITY_TOL = 1e-9       # default relative gap below which equality is accepted


class CaseTag(enum.Enum):
    """Which regime an (A, B, M) instance falls in."""

    WIDE_EQUAL_ZERO = "WideEqualZero"
    SQUARE_EQUAL = "SquareEqual"
    RANK_DEFICIENT_ZERO = "RankDeficientZero"
    FULL_RANK_SAME_SPAN = "FullRankSameSpan"
    FULL_RANK_STRICT = "FullRankStrict"


# The fuzz ensembles, in canonical order (a trial's stream is seeded by its
# ensemble's index here).  They are named beside the regimes they target so
# that the CLI can list them without loading the fuzz module.
ENSEMBLES = ("ginibre", "rank_deficient", "shared_span", "weighted")


CLAUSE_TEXT = {
    CaseTag.WIDE_EQUAL_ZERO: (
        "m < n: the n x n Gram products have rank at most m, so both sides vanish "
        "and equality holds"
    ),
    CaseTag.SQUARE_EQUAL: (
        "m = n: det(A*MB) = conj(det(WA)) det(WB), so the two sides agree exactly"
    ),
    CaseTag.RANK_DEFICIENT_ZERO: (
        "m > n with rank(A) < n or rank(B) < n: both sides vanish and equality holds"
    ),
    CaseTag.FULL_RANK_SAME_SPAN: (
        "m > n, full column rank, identical column spans: equality with both sides "
        "positive"
    ),
    CaseTag.FULL_RANK_STRICT: (
        "m > n, full column rank, distinct column spans: the inequality is strict"
    ),
}


@dataclass(frozen=True)
class CsReport:
    """Verdict record for one (A, B, M) instance.

    ``lhs_log`` carries |det(A*MB)|^2 and ``rhs_log`` carries
    det(A*MA) det(B*MB), both in signed-log form.  ``correlation`` is present
    exactly for the two full-rank tall regimes, where the proof's
    |det(Qa*Qb)| is defined.  ``equality`` is read from the tag.
    """

    case_tag: CaseTag
    lhs_log: SignedLogDet
    rhs_log: SignedLogDet
    correlation: float | None
    relative_gap: float
    tol_used: float

    @property
    def equality(self) -> bool:
        return self.case_tag is not CaseTag.FULL_RANK_STRICT


def _same_shape(a, b):
    """Both operands as complex matrices, which must share one shape."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"a and b must share a shape, got {a.shape} and {b.shape}")
    return a, b


def whitened_pair(a, b, m_fac: HpdFactor):
    """(WA, WB) for the weight's factor W; Gram products under M of the
    originals equal unweighted Gram products of the pair.  This is the
    pair every weighted verdict reads, whatever its shape."""
    if not isinstance(m_fac, HpdFactor):
        raise TypeError(f"pass the weight as cholesky_hpd(M), not as {type(m_fac).__name__}")
    a, b = _same_shape(a, b)
    w = m_fac.w_factor
    if w.shape[1] != len(a):
        raise ValueError(f"weight is {w.shape[0]} x {w.shape[1]} but the matrices have {len(a)} rows")
    return _whiten(a, b, w)


def _whiten(a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """(WA, WB) for validated operands and a W of matching size.

    W is upper triangular, so rows i.. of the product read rows i.. of
    [A | B] only.  Each block of 8 rows is one ``matmul`` from its diagonal
    block on; the entries it skips are zeros at the head of each sum, and
    the zeros it keeps left of the diagonal add +0 to a sum that starts at
    +0, so the result equals ``matmul(W, [A | B])`` bit for bit.
    """
    x = np.concatenate((a, b), axis=1)
    wab = np.empty_like(x)
    for i in range(0, x.shape[0], 8):
        wab[i : i + 8] = matmul(w[i : i + 8, i:], x[i:])
    n = a.shape[1]
    return wab[:, :n], wab[:, n:]


def _spans_match(z: np.ndarray, n: int, tol: float) -> bool:
    """The sum of squared principal sines, |Z[n:]|_F^2, is at most tol / 2.

    Sines keep the small angles that cosines near 1 round away, and the sum
    bounds the equality gap 1 - prod cos^2 from above.  A pair that passes
    has an exact gap of at most tol / 2; the other half of the equality
    tolerance absorbs the roundoff of the computed gap, which comes from
    LU and R rather than from these bases.
    """
    return float(column_squares(z[n:]).sum()) <= 0.5 * tol


def _correlation(overlap: np.ndarray, tag: CaseTag) -> float:
    """|det(Qa*Qb)|, checked against 1 before clamping."""
    raw = log_det(overlap).magnitude()
    if raw > 1.0 + UNIT_SLACK:
        raise InequalityViolation(
            f"case {tag.value}: |det(Qa*Qb)| = {raw!r} exceeds 1 + {UNIT_SLACK:g}"
        )
    return raw if raw < 1.0 else 1.0


def _gram_log_det(f: ColumnFactors) -> float:
    """log det(X*X) = log |det R|^2 for a full-column-rank X = QR."""
    return 2.0 * sum(math.log(d) for d in f.diag)


class _Verdict(NamedTuple):
    """One pass over an (A, B, M) instance, which every front end reads: the
    regime, the tolerance it was decided at, the pair the verdict reads
    (``whitened_pair`` when weighted), and that pair's factors: both
    pivoted QRs, Qb and Z.  The factors are None for a wide pair, which
    shape alone settles, and Qb and Z are None unless the pair is tall
    with full column rank."""

    tag: CaseTag
    tol: float
    a: np.ndarray
    b: np.ndarray
    fa: ColumnFactors | None
    fb: ColumnFactors | None
    qb: np.ndarray | None
    z: np.ndarray | None


def _check_tol(tol: float) -> None:
    """The one rule for an equality or span tolerance: 0 < tol < 1, since a
    relative gap lies in [0, 1] and a larger tol would accept any gap."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must lie strictly between 0 and 1")


def _verdict(a, b, m_fac: HpdFactor | None, tol: float) -> _Verdict:
    """Whiten and factor an (A, B, M) instance once, and read its regime.

    Both (whitened) m x n operands go through one two-lane pivoted QR.  Only
    a tall pair of full column rank forms B's basis Qb and Z = Qa* Qb for
    A's full m x m Q: A's reflectors are applied to Qb.  The top n rows of
    Z are Qa*Qb for A's basis Qa, whose singular values are the
    principal-angle cosines whichever bases the QRs chose.  The bottom
    m - n rows project Qb onto the complement of span(A), and their squared
    Frobenius norm is the sum of squared principal sines (Bjorck & Golub,
    1973).
    """
    a, b = _same_shape(a, b) if m_fac is None else whitened_pair(a, b, m_fac)
    _check_tol(tol)
    m, n = a.shape
    if m < n:
        return _Verdict(CaseTag.WIDE_EQUAL_ZERO, tol, a, b, None, None, None, None)
    fa, fb = factor_lanes((a, b))
    if m == n:
        return _Verdict(CaseTag.SQUARE_EQUAL, tol, a, b, fa, fb, None, None)
    if min(fa.rank, fb.rank) < n:
        return _Verdict(CaseTag.RANK_DEFICIENT_ZERO, tol, a, b, fa, fb, None, None)
    qb = fb.basis()
    z = fa.adjoint_apply(qb)
    tag = CaseTag.FULL_RANK_SAME_SPAN if _spans_match(z, n, tol) else CaseTag.FULL_RANK_STRICT
    return _Verdict(tag, tol, a, b, fa, fb, qb, z)


def verify_inequality(
    a,
    b,
    m_fac: HpdFactor | None = None,
    tol: float = EQUALITY_TOL,
) -> CsReport:
    """Classify an (A, B, M) instance, compute both sides of the inequality
    in log domain, and certify them: the package's one verdict entry.

    Shape settles the wide and square regimes; a tall (whitened) pair is
    factored once, rank-tested, then span-compared.  The right side comes
    from the pivot norms |r_kk| of each operand's QR, the left side from LU
    of A*B: two independent routes, so A*A and B*B are never formed.  For
    the two full-rank tall regimes the report carries the correlation
    |det(Qa*Qb)| in [0, 1], the product of the principal-angle cosines,
    checked against 1 + ``UNIT_SLACK`` before clamping; elsewhere it is None.

    Raises InequalityViolation if the left side exceeds the right beyond
    log(1 + tol), if an equality regime's gap exceeds tol
    (``enforce_equality_contract``), or if the correlation exceeds 1: a
    breach means a kernel bug or a tol below roundoff, not a counterexample,
    and its message starts ``case <tag>``.  The span test spends half of
    tol, so a FullRankSameSpan verdict carries an exact gap of at most tol / 2.
    """
    return _report(_verdict(a, b, m_fac, tol))


def _report(v: _Verdict) -> CsReport:
    """The verdict record of one pass, checked against both promises."""
    tol = v.tol
    n = v.a.shape[1]
    correlation = None
    if v.tag is CaseTag.WIDE_EQUAL_ZERO or min(v.fa.rank, v.fb.rank) < n:
        # wide, or an operand short of full column rank (a RankDeficientZero
        # pair, or a singular SquareEqual one): both sides vanish by rank
        # arithmetic, and no determinant is evaluated
        lhs = rhs = SignedLogDet.of_zero()
        relative_gap = 0.0
    else:
        # both sides are nonnegative reals: phase 1, and a zero one has log -inf
        lhs = SignedLogDet(1.0 + 0j, 2.0 * log_det(matmul(conj_transpose(v.a), v.b)).log_magnitude)
        rhs = SignedLogDet(1.0 + 0j, _gram_log_det(v.fa) + _gram_log_det(v.fb))
        if v.tag is not CaseTag.SQUARE_EQUAL:
            correlation = _correlation(v.z[:n], v.tag)
        # an LU that finds A*B singular gives slack -inf here, so gap 1
        slack = lhs.log_magnitude - rhs.log_magnitude
        if slack > math.log1p(tol):
            raise InequalityViolation(
                f"case {v.tag.value}: log slack {slack!r} exceeds log(1 + {tol:g}): "
                f"lhs log {lhs.log_magnitude!r}, rhs log {rhs.log_magnitude!r}"
            )
        relative_gap = max(0.0, -math.expm1(slack))
    report = CsReport(
        case_tag=v.tag,
        lhs_log=lhs,
        rhs_log=rhs,
        correlation=correlation,
        relative_gap=relative_gap,
        tol_used=tol,
    )
    enforce_equality_contract(report)
    return report


def enforce_equality_contract(report: CsReport) -> None:
    """Raise unless an equality-tagged report's gap sits inside its tolerance.

    The four equality regimes promise exact equality in exact arithmetic, so
    a computed gap beyond the tolerance signals a kernel bug or a tolerance
    tighter than roundoff.  A zero side beside a positive one has gap 1 and
    raises too: the regimes promise both sides zero or both positive.
    Every verdict record passes through this check before it is returned.
    """
    if report.equality and report.relative_gap > report.tol_used:
        raise InequalityViolation(
            f"case {report.case_tag.value} demands equality but the relative gap is "
            f"{report.relative_gap!r} > {report.tol_used:g}"
        )
