"""Dense complex matrix kernels: products, Householder QR, Cholesky, log-domain determinants.

Everything here is a pure function of its inputs.  Matrices are numpy
``complex128`` arrays in row-major order; factorization loops run column by
column with a fixed summation order so repeated runs produce identical bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite, RankDeficient

# Default thresholds.  These are artifact choices (the math itself names no
# tolerances); every operation that uses one accepts an override.
SINGULARITY_TOL = 1e-13   # LU pivot cutoff, relative to the largest entry
PD_PIVOT_TOL = 1e-13      # Cholesky pivot cutoff, relative to the largest diagonal
HERMITIAN_TOL = 1e-12     # relative Frobenius deviation allowed in M - M*
RANK_TOL = 1e-10          # pivoted-QR diagonal cutoff, relative to the largest
ORTHO_TOL = 1e-11         # Frobenius deviation allowed in Q*Q - I


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a 2-D complex128 matrix, rejecting NaN/Inf."""
    a = np.asarray(entries)
    if a.ndim == 2 and a.dtype == np.complex128:
        a = np.ascontiguousarray(a)
    else:
        a = np.array(entries, dtype=np.complex128, order="C", ndmin=2)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected an m x n matrix with m, n >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right accumulation over the inner index."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.complex128)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose A*."""
    return np.ascontiguousarray(a.conj().T)


@dataclass(frozen=True)
class SignedLogDet:
    """A determinant stored as unit phase plus log magnitude.

    Products of determinants overflow double precision well inside desk
    scale, so determinants never leave this form inside the package.  When
    ``zero`` is set the phase is meaningless and ``log_magnitude`` is -inf.
    """

    phase: complex
    log_magnitude: float
    zero: bool = False

    @staticmethod
    def of_zero() -> "SignedLogDet":
        return SignedLogDet(0j, float("-inf"), True)

    def magnitude(self) -> float:
        return 0.0 if self.zero else math.exp(self.log_magnitude)

    def value(self) -> complex:
        return 0j if self.zero else self.phase * math.exp(self.log_magnitude)

    def abs_squared(self) -> "SignedLogDet":
        """The determinant's squared magnitude, still in log form."""
        if self.zero:
            return SignedLogDet.of_zero()
        return SignedLogDet(1.0 + 0j, 2.0 * self.log_magnitude, False)

    def __mul__(self, other: "SignedLogDet") -> "SignedLogDet":
        if self.zero or other.zero:
            return SignedLogDet.of_zero()
        return SignedLogDet(
            self.phase * other.phase,
            self.log_magnitude + other.log_magnitude,
            False,
        )


def log_det(a: np.ndarray, singularity_tol: float = SINGULARITY_TOL) -> SignedLogDet:
    """Determinant of a square matrix via LU with partial pivoting.

    A pivot below ``singularity_tol`` times the largest input magnitude marks
    the matrix singular (``zero=True``) instead of polluting the result with
    log-of-noise.
    """
    n, cols = a.shape
    if n != cols:
        raise ValueError(f"determinant requires a square matrix, got {a.shape}")
    scale = np.abs(a).max()
    if scale == 0.0:
        return SignedLogDet.of_zero()
    threshold = singularity_tol * scale
    lu = np.array(a, dtype=np.complex128, copy=True)
    phase = 1.0 + 0j
    log_mag = 0.0
    for k in range(n):
        p = k + int(np.abs(lu[k:, k]).argmax())
        pivot_mag = abs(lu[p, k])
        if pivot_mag < threshold:
            return SignedLogDet.of_zero()
        if p != k:
            row = lu[k].copy()
            lu[k] = lu[p]
            lu[p] = row
            phase = -phase
        pivot = lu[k, k]
        phase *= pivot / pivot_mag
        log_mag += math.log(pivot_mag)
        if k + 1 < n:
            factors = lu[k + 1 :, k] / pivot
            lu[k + 1 :, k + 1 :] -= factors[:, None] * lu[None, k, k + 1 :]  # as in _apply_reflectors
    return SignedLogDet(phase, log_mag, False)


@dataclass(frozen=True, eq=False)
class QRFactors:
    """Thin QR pair: ``q`` has orthonormal columns, ``r`` is upper triangular
    with real positive diagonal (the phase lives in ``q``)."""

    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True, eq=False)
class ColumnFactors:
    """Column-pivoted QR of an m x n matrix, kept to what a verdict reads:
    the Householder reflectors whose product is the m x m unitary Q,
    |diag R| in pivot order, and the rank.  The leading ``rank`` columns of
    Q span the numerical column space.  No basis is formed until one is
    asked for."""

    reflectors: tuple
    diag: np.ndarray
    rank: int
    rows: int

    def basis(self) -> np.ndarray:
        """The orthonormal m x min(m, n) basis: the leading columns of Q."""
        eye = np.eye(self.rows, len(self.diag), dtype=np.complex128)
        return _apply_reflectors(self.reflectors, eye)

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        """Q* x for the full m x m Q, as a new array."""
        return _apply_reflectors(self.reflectors, np.array(x, dtype=np.complex128), adjoint=True)


def _reflector(x: np.ndarray):
    """Householder vector and scaling that annihilate x below its head."""
    norm_x = math.sqrt(float((np.abs(x) ** 2).sum()))
    if norm_x == 0.0:
        return None, 0.0, 0.0
    head = x[0]
    ph = head / abs(head) if head != 0 else 1.0 + 0j
    v = x.copy()
    v[0] += ph * norm_x
    beta = 2.0 / float((np.abs(v) ** 2).sum())
    return v, beta, -ph * norm_x


def _apply_reflectors(reflectors, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Q x in place, or Q* x with ``adjoint``, for Q = H_0 H_1 ... the
    product of the (hermitian) reflectors H_k = I - beta v v* acting on rows
    k and below; returns x."""
    for k, v, beta in reflectors if adjoint else reversed(reflectors):
        if v is not None:
            w = beta * (v.conj() @ x[k:])
            # both axes spelled out, as np.outer does: on a one-entry w the
            # 1-D broadcast v[:, None] * w can round differently
            x[k:] -= v[:, None] * w[None, :]
    return x


def _householder(a: np.ndarray, pivot: bool):
    """Householder QR of a copy of ``a``: (reflectors, R), where the
    reflectors (k, v, beta) define Q as ``_apply_reflectors`` applies it.

    With ``pivot`` each step first swaps in the remaining column of largest
    trailing norm (so |diag R| never increases), and elimination stops once
    the trailing block is zero.
    """
    m, n = a.shape
    r = np.array(a, dtype=np.complex128, copy=True)
    reflectors = []
    for k in range(min(m, n)):
        if pivot:
            trailing = np.sqrt((np.abs(r[k:, k:]) ** 2).sum(axis=0))
            j = k + int(trailing.argmax())
            if trailing[j - k] == 0.0:
                r[k:, k:] = 0.0  # its entries may be too small to square, not zero
                break
            if j != k:
                col = r[:, k].copy()
                r[:, k] = r[:, j]
                r[:, j] = col
        v, beta, head = _reflector(r[k:, k])
        step = (k, v, beta)
        reflectors.append(step)
        if v is None:
            continue
        if k + 1 < n:
            _apply_reflectors((step,), r[:, k + 1 :])
        r[k, k] = head
        r[k + 1 :, k] = 0.0
    return tuple(reflectors), r


def factor_columns(a: np.ndarray, tol: float = RANK_TOL) -> ColumnFactors:
    """Column-pivoted Householder QR of any m x n matrix.

    The rank and |det R| come from this one pass, and the reflectors give
    Q on demand: for a full-column-rank tall A, det(A*A) is the product of
    diag(R) squared.  The rank counts |r_kk| above ``tol`` times the
    largest, so the zero matrix has rank 0.
    """
    if not tol > 0.0:
        raise ValueError("rank tolerance must be positive")
    reflectors, r = _householder(a, pivot=True)
    diag = np.abs(np.diagonal(r))
    rank = int((diag > tol * diag.max()).sum())
    return ColumnFactors(reflectors=reflectors, diag=diag, rank=rank, rows=a.shape[0])


def qr_thin(a: np.ndarray, rank_tol: float = RANK_TOL) -> QRFactors:
    """Thin Householder QR of a tall (m >= n) full-column-rank matrix.

    The raw factorization leaves arbitrary phases on diag(R); a final pass
    moves them into Q so diag(R) is real and strictly positive, which makes
    the factor pair unique.  A rank below n, decided by ``factor_columns``,
    raises ``RankDeficient`` carrying the estimated rank.
    """
    m, n = a.shape
    if m < n:
        raise ValueError(f"thin QR requires m >= n, got {m} x {n}")
    rank = factor_columns(a, rank_tol).rank
    if rank < n:
        raise RankDeficient(
            f"columns are linearly dependent within tolerance {rank_tol:g}",
            estimated_rank=rank,
        )
    reflectors, r = _householder(a, pivot=False)
    q = _apply_reflectors(reflectors, np.eye(m, n, dtype=np.complex128))
    r = np.ascontiguousarray(r[:n, :])
    # rotate row k of R by the conjugate diagonal phase, column k of Q by the
    # phase itself: QR is unchanged and diag(R) becomes real positive
    for k in range(n):
        d = r[k, k]
        ph = d / abs(d)
        r[k, k:] *= ph.conjugate()
        r[k, k] = abs(d)
        q[:, k] *= ph
    return QRFactors(q=q, r=r)


@dataclass(frozen=True, eq=False)
class HpdFactor:
    """A validated hermitian positive definite weight M with a factor W
    satisfying W*W = M."""

    m_matrix: np.ndarray
    w_factor: np.ndarray


def cholesky_hpd(
    m_matrix: np.ndarray,
    hermitian_tol: float = HERMITIAN_TOL,
    pivot_tol: float = PD_PIVOT_TOL,
) -> HpdFactor:
    """Validate M as hermitian positive definite and factor it as W*W = M
    with W upper triangular (the Cholesky factor)."""
    m_mat = as_matrix(m_matrix)
    n, cols = m_mat.shape
    if n != cols:
        raise ValueError(f"weight matrix must be square, got {m_mat.shape}")
    fro = float(np.linalg.norm(m_mat))
    deviation = float(np.linalg.norm(m_mat - m_mat.conj().T))
    if deviation > hermitian_tol * fro:
        raise NotHermitian(
            f"|M - M*| = {deviation:.3e} exceeds {hermitian_tol:g} * |M| = {hermitian_tol * fro:.3e}"
        )
    diag_scale = float(np.abs(np.diagonal(m_mat)).max())
    lower = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        pivot = float(m_mat[j, j].real) - float((np.abs(lower[j, :j]) ** 2).sum())
        if pivot <= pivot_tol * diag_scale:
            raise NotPositiveDefinite(
                f"Cholesky pivot {pivot:.3e} at index {j} is not positive "
                f"(threshold {pivot_tol * diag_scale:.3e})"
            )
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (m_mat[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j].conj()) / lower[j, j]
    return HpdFactor(m_matrix=m_mat, w_factor=conj_transpose(lower))


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal basis of a column space, validated on construction."""

    ortho: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.ortho)
        m, n = q.shape
        if m < n:
            raise ValueError(f"an orthonormal basis needs m >= n, got {m} x {n}")
        gram_dev = float(np.linalg.norm(matmul(conj_transpose(q), q) - np.eye(n)))
        if gram_dev > ORTHO_TOL:
            raise ValueError(
                f"columns are not orthonormal: |Q*Q - I| = {gram_dev:.3e} > {ORTHO_TOL:g}"
            )
        object.__setattr__(self, "ortho", q)

    @property
    def shape(self):
        return self.ortho.shape
