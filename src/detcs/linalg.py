"""Dense complex kernels: products, pivoted Householder QR, Cholesky, log-domain determinants.

Everything here is a pure function of its inputs.  Matrices are numpy
``complex128`` arrays in row-major order; factorization loops run column by
column with a fixed summation order so repeated runs produce identical bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite

# Thresholds.  These are artifact choices (the math itself names no
# tolerances); each is a constant, read where it is used.
SINGULARITY_TOL = 1e-13   # LU pivot cutoff, relative to the largest entry
PD_PIVOT_TOL = 1e-13      # Cholesky pivot cutoff, relative to the largest diagonal
HERMITIAN_TOL = 1e-12     # relative Frobenius deviation allowed in H - H*
RANK_TOL = 1e-10          # pivoted-QR diagonal cutoff, relative to the largest
ORTHO_TOL = 1e-11         # Frobenius deviation allowed in Q*Q - I
UNIT_SLACK = 1e-10        # a computed cosine, correlation or column norm may exceed 1 by this


def as_matrix(entries) -> np.ndarray:
    """Coerce 2-D ``entries`` (a vector is an m x 1 column) to complex128, rejecting NaN/Inf."""
    a = np.array(entries, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected an m x n matrix with m, n >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right accumulation over the inner index.

    One einsum without ``optimize``, so no BLAS: each entry starts at +0, so
    a sum of -0 terms is +0, and adds a[i, k] b[k, j] for k = 0, 1, ... in
    order, with no fused multiply-add.  That is ``oracles.matmul_naive``
    bit for bit, at every numpy SIMD level.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return np.einsum("ij,jk->ik", a, b, order="C")


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose A* of any 2-D array-like, as complex128."""
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128).conj().T)


def column_squares(x: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each column of a complex matrix, or of
    each matrix of a stack of them (lanes): shape (..., n) for (..., m, n).

    The one squared-magnitude sum of the package.  Each column is summed on
    the float64 view, real and imaginary halves apart and added last.
    """
    if x.dtype != np.complex128:
        raise TypeError(f"column_squares takes a complex128 array, got {x.dtype}")
    f = x.view(np.float64)
    halves = np.einsum("...ij,...ij->...j", f, f)
    return halves[..., 0::2] + halves[..., 1::2]


def frobenius_norm(a: np.ndarray) -> float:
    """|A|_F without BLAS: the root of the summed column squares of A 2^-e, with e
    the exponent of A's largest part, so the sum neither overflows nor underflows."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    e = math.frexp(np.abs(parts).max())[1]
    return math.ldexp(math.sqrt(float(column_squares(np.ldexp(parts, -e).view(np.complex128)).sum())), e)


class SignedLogDet(NamedTuple):
    """A determinant stored as unit phase plus log magnitude.

    Products of determinants overflow double precision well inside desk
    scale, so determinants never leave this form inside the package.  A zero
    determinant is the one with log magnitude -inf; its phase is meaningless.
    IEEE arithmetic keeps it zero: exp(-inf) = 0, and -inf plus any log is
    -inf.  It is a plain named tuple: callers combine logs, not records.
    """

    phase: complex
    log_magnitude: float

    @property
    def zero(self) -> bool:
        return self.log_magnitude == -math.inf

    @staticmethod
    def of_zero() -> "SignedLogDet":
        return SignedLogDet(0j, -math.inf)

    def magnitude(self) -> float:
        return math.exp(self.log_magnitude)

    def value(self) -> complex:
        return self.phase * math.exp(self.log_magnitude)


def log_det(a: np.ndarray) -> SignedLogDet:
    """Determinant of a square matrix via LU with partial pivoting.

    ``a`` may be any square array-like with finite entries; a copy is
    factored.  A pivot below ``SINGULARITY_TOL`` times the largest input
    magnitude marks the matrix singular (log magnitude -inf) instead of
    polluting the result with log-of-noise.
    """
    lu = np.array(a, dtype=np.complex128)
    if lu.ndim != 2 or lu.shape[0] != lu.shape[1] or not lu.size:
        raise ValueError(f"determinant requires a square matrix, got {lu.shape}")
    n = len(lu)
    scale = np.abs(lu).max()
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if scale == 0.0:
        return SignedLogDet.of_zero()
    threshold = SINGULARITY_TOL * scale
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
            # whole contiguous rows: the columns up to k take the update too,
            # but no later step reads them.  Both axes spelled out, as
            # np.outer does: a 1-D broadcast of the pivot row can round
            # differently
            lu[k + 1 :] -= factors[:, None] * lu[None, k]
    return SignedLogDet(complex(phase), log_mag)


class _Record:
    """Read-only named fields, listed in ``__slots__`` in constructor order,
    with identity equality; the constructor sets each field once through
    ``_set``."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which validates
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class ColumnFactors(_Record):
    """Column-pivoted QR of an m x n matrix, kept to what a verdict reads:
    the Householder reflectors whose product is the m x m unitary Q,
    |diag R| in pivot order, and the rank.  The leading ``rank`` columns of
    Q span the numerical column space.  No basis is formed until one is
    asked for."""

    __slots__ = ("reflectors", "diag", "rank", "rows")

    def __init__(self, reflectors: tuple, diag: np.ndarray, rank: int, rows: int):
        self._set(reflectors=reflectors, diag=diag, rank=rank, rows=rows)

    def basis(self) -> np.ndarray:
        """The orthonormal m x min(m, n) basis: the leading columns of Q.

        They are formed from the identity by applying the reflectors last
        to first.  The columns left of k are then still unit vectors with no
        entry in rows k and below, which H_k leaves alone, so H_k only
        touches the block from (k, k) on.
        """
        x = np.eye(self.rows, len(self.diag), dtype=np.complex128)
        for k, v, vh in reversed(self.reflectors):
            _reflect(v, vh, x[k:, k:])
        return x

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        """Q* x for the full m x m Q, as a new array."""
        y = np.array(x, dtype=np.complex128)
        for k, v, vh in self.reflectors:
            _reflect(v, vh, y[k:])
        return y


def _reflect(v: np.ndarray, vh: np.ndarray, y: np.ndarray) -> None:
    """y -= v (vh y) in place: the reflector I - v vh, with v a column and
    vh = beta v* a row, applied to y, lane by lane when they are stacked."""
    y -= v * np.matmul(vh, y)


def _householder(operands):
    """Column-pivoted Householder QR of a copy of each of L same-shape m x n
    matrices (the lanes), in one pass: (a tuple of reflectors per lane, the
    L x min(m, n) array of |r_kk|).

    A reflector (k, v, vh) is H_k = I - v vh on rows k and below, with
    vh = beta v*.  Every array operation of a step is shared by the lanes,
    which therefore get the same bits as when factored alone; only each
    lane's scalars (pivot, head phase, beta) are worked out in Python.

    The squared norms are ``column_squares`` of the trailing block.
    Each step first swaps in the lane's remaining column x of largest
    trailing norm (so |r_kk| never increases), and H_k maps x to
    -phase(x0) |x| e0 for its head x0: |r_kk| is the pivot norm |x|.  Its
    square is reused for the reflector too, since v = x + phase(x0) |x| e0
    has |v|^2 = 2 |x| (|x| + |x0|), so beta = 2 / |v|^2 needs no further
    sum.  A lane whose trailing columns all square to 0 gets beta 0 and
    |r_kk| = 0: its block no longer changes, so it stays that way while
    the others go on.
    """
    r = np.array(operands, dtype=np.complex128, order="C")
    lanes, m, n = r.shape
    reflectors = tuple([] for _ in range(lanes))
    norms = np.zeros((lanes, min(m, n)))
    for k in range(min(m, n)):
        squares = column_squares(r[:, k:, k:])
        picks = squares.argmax(axis=1).tolist()
        squares = squares.tolist()
        rows = r[:, k, k:].tolist()
        betas, active = [], []
        for lane, col in enumerate(picks):
            sq = squares[lane][col]
            if sq == 0.0:
                betas.append(0.0)
                continue
            if col:
                j = k + col
                swap = r[lane, :, k].copy()
                r[lane, :, k] = r[lane, :, j]
                r[lane, :, j] = swap
            norm = math.sqrt(sq)
            norms[lane, k] = norm
            x0 = rows[lane][col]
            size = abs(x0)
            shift = (x0 / size if size else 1.0 + 0j) * norm
            betas.append(1.0 / (norm * (norm + size)))
            active.append((lane, x0 + shift))
        if not active:
            break  # every lane's trailing block squares to zero
        v = r[:, k:, k : k + 1].copy()
        for lane, v0 in active:
            v[lane, 0, 0] = v0
        vh = v.reshape(lanes, 1, m - k).conj() * np.array(betas).reshape(lanes, 1, 1)
        if k + 1 < n:
            _reflect(v, vh, r[:, k:, k + 1 :])
        for lane, _ in active:
            reflectors[lane].append((k, v[lane], vh[lane]))
    return tuple(tuple(steps) for steps in reflectors), norms


def factor_lanes(operands) -> tuple:
    """``factor_columns`` of each of L same-shape matrices, in one
    Householder pass; each lane gets the same bits as factored alone."""
    reflectors, diags = _householder(operands)
    ranks = (diags > RANK_TOL * diags.max(axis=1, keepdims=True)).sum(axis=1).tolist()
    return tuple(
        ColumnFactors(reflectors=steps, diag=diag, rank=rank, rows=len(operands[0]))
        for steps, diag, rank in zip(reflectors, diags, ranks)
    )


def factor_columns(a: np.ndarray) -> ColumnFactors:
    """Column-pivoted Householder QR of any m x n matrix.

    The rank and |det R| come from this one pass, and the reflectors give
    Q on demand: for a full-column-rank tall A, det(A*A) is the product of
    diag(R) squared.  The rank counts |r_kk| above ``RANK_TOL`` times the
    largest, so the zero matrix has rank 0.
    """
    return factor_lanes((a,))[0]


def require_hermitian(h: np.ndarray, name: str) -> None:
    """The package's one hermitian rule, for a square ``h`` called ``name`` in
    the message: |H - H*|_F > HERMITIAN_TOL |H|_F raises NotHermitian."""
    fro = frobenius_norm(h)
    deviation = frobenius_norm(h - h.conj().T)
    if deviation > HERMITIAN_TOL * fro:
        raise NotHermitian(
            f"|{name} - {name}*| = {deviation:.3e} exceeds {HERMITIAN_TOL:g} * |{name}| = {HERMITIAN_TOL * fro:.3e}"
        )


class HpdFactor(_Record):
    """A hermitian positive definite weight M with its upper triangular
    Cholesky factor W, W*W = M: the constructor validates M and factors it."""

    __slots__ = ("m_matrix", "w_factor")

    def __init__(self, m_matrix: np.ndarray):
        m_mat = as_matrix(m_matrix)
        n, cols = m_mat.shape
        if n != cols:
            raise ValueError(f"weight matrix must be square, got {m_mat.shape}")
        require_hermitian(m_mat, "M")
        diag_scale = float(np.abs(np.diagonal(m_mat)).max())
        lower = np.zeros((n, n), dtype=np.complex128)
        for j in range(n):
            # column j of M less what the earlier columns of L give; its head
            # is the pivot
            col = m_mat[j:, j] - lower[j:, :j] @ lower[j, :j].conj()
            pivot = float(col[0].real)
            if pivot <= PD_PIVOT_TOL * diag_scale:
                raise NotPositiveDefinite(
                    f"Cholesky pivot {pivot:.3e} at index {j} is not positive "
                    f"(threshold {PD_PIVOT_TOL * diag_scale:.3e})"
                )
            root = math.sqrt(pivot)
            lower[j, j] = root
            lower[j + 1 :, j] = col[1:] / root
        self._set(m_matrix=m_mat, w_factor=conj_transpose(lower))

    def __reduce__(self):
        return type(self), (self.m_matrix,)


def cholesky_hpd(m_matrix: np.ndarray) -> HpdFactor:
    """``HpdFactor(M)``, as a function: a tracer that rebinds this name by
    identity must leave the class, which ``whitened_pair`` checks, alone."""
    return HpdFactor(m_matrix)


class SubspaceBasis(_Record):
    """An orthonormal basis of a column space, validated on construction."""

    __slots__ = ("ortho",)

    def __init__(self, ortho: np.ndarray):
        q = as_matrix(ortho)
        m, n = q.shape
        if m < n:
            raise ValueError(f"an orthonormal basis needs m >= n, got {m} x {n}")
        gram_dev = frobenius_norm(matmul(conj_transpose(q), q) - np.eye(n))
        if gram_dev > ORTHO_TOL:
            raise ValueError(
                f"columns are not orthonormal: |Q*Q - I| = {gram_dev:.3e} > {ORTHO_TOL:g}"
            )
        self._set(ortho=q)

    @property
    def shape(self):
        return self.ortho.shape
