"""Brute-force reference routes used to cross-check the fast kernels.

Everything here favors obviousness over speed: Laplace expansion and Bareiss
elimination for determinants, a bare triple loop for products, and cyclic Jacobi
rotations for hermitian eigenvalues.  Scale guards keep the exponential-cost
paths from silently dominating a test run.  The ``--check`` comparisons live here,
by their bounds, beside ``principal_angle_cosines`` and ``column_norm_profile``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import OracleError
from .linalg import (
    UNIT_SLACK,
    ColumnFactors,
    SignedLogDet,
    SubspaceBasis,
    as_matrix,
    column_squares,
    conj_transpose,
    frobenius_norm,
    matmul,
    require_hermitian,
)

COFACTOR_MAX_N = 6        # Laplace expansion is exponential in n, refuse beyond this
EXACT_MAX_N = 6           # the exact --check audit costs more than n^3; measure before raising
# How far an oracle may disagree with the verdict path under --check.  These
# bound the agreement of two routes to one number in floating point; they do
# not follow --tol, which is the equality tolerance of the verdict itself.
DET_AGREEMENT_RTOL = 1e-9   # per determinant of a side, relative to the exact det
ZERO_DET_RTOL = 1e-8        # |exact det| beside a side flagged zero, relative to scale^n
COSINE_PRODUCT_ATOL = 1e-9  # |Jacobi cosine product - correlation|
JACOBI_OFFDIAG_TOL = 1e-13  # rotate a pair whose magnitude exceeds tol * scale
JACOBI_MAX_SWEEPS = 60
SEARCH_TRIALS = 1000


def det_cofactor(a) -> complex:
    """Laplace-expansion determinant in floating point, guarded to n <= 6;
    ``det_bareiss`` is the exact kernel.

    The expansion runs along the first row of each minor.  A minor keeps
    the trailing rows, so its remaining columns name it, and each one is
    expanded once: O(n 2^n) products instead of n!.
    """
    mat = as_matrix(a)
    n, cols = mat.shape
    if n != cols:
        raise ValueError(f"determinant requires a square matrix, got {mat.shape}")
    if n > COFACTOR_MAX_N:
        raise ValueError(f"cofactor expansion is limited to n <= {COFACTOR_MAX_N}, got n = {n}")
    rows = mat.tolist()

    @functools.cache
    def minor(columns: tuple) -> complex:
        row = rows[n - len(columns)]
        if len(columns) == 1:
            return row[columns[0]]
        total = 0j
        sign = 1.0
        for i, j in enumerate(columns):
            total += sign * row[j] * minor(columns[:i] + columns[i + 1 :])
            sign = -sign
        return total

    return minor(tuple(range(n)))


def matmul_naive(a, b) -> np.ndarray:
    """Entrywise triple-loop product; the reference for matmul."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.complex128)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0j
            for k in range(a.shape[1]):
                acc += complex(a[i, k]) * complex(b[k, j])
            out[i, j] = acc
    return out


def jacobi_sweep(w: np.ndarray, threshold: float) -> int:
    """One cyclic sweep of complex Jacobi rotations on hermitian ``w``, in place.

    Rotates every (p, q) pair whose off-diagonal magnitude exceeds
    ``threshold`` and returns how many pairs it rotated.
    """
    n = w.shape[0]
    rotated = 0
    for p in range(n - 1):
        for q in range(p + 1, n):
            h = w[p, q]
            r = abs(h)
            if r <= threshold:
                continue
            rotated += 1
            a = w[p, p].real
            b = w[q, q].real
            phi = h / r
            tau = (b - a) / (2.0 * r)
            t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            col_p = w[:, p].copy()
            col_q = w[:, q].copy()
            w[:, p] = c * col_p - s * phi.conjugate() * col_q
            w[:, q] = s * phi * col_p + c * col_q
            row_p = w[p, :].copy()
            row_q = w[q, :].copy()
            w[p, :] = c * row_p - s * phi * row_q
            w[q, :] = s * phi.conjugate() * row_p + c * row_q
            # the rotation was chosen to zero this pair exactly; writing the
            # closed-form results keeps w hermitian to the last bit
            w[p, p] = a - t * r
            w[q, q] = b + t * r
            w[p, q] = 0.0
            w[q, p] = 0.0
    return rotated


def hermitian_eigenvalues(h) -> list[float]:
    """Eigenvalues of a hermitian matrix by cyclic Jacobi, ascending.

    The rotations read one triangle, so a non-hermitian input raises NotHermitian.
    A sweep rotates each pair whose magnitude exceeds ``JACOBI_OFFDIAG_TOL``
    times the larger of |trace| and ||H||_F, and iteration stops at the first
    sweep that rotates nothing: the sweep's own test is the one stopping
    rule.  For the PSD products this package feeds in the trace is the
    larger; an indefinite matrix can have trace near 0, and ||H||_F keeps
    its rotations out of subnormal off-diagonals.
    """
    w = as_matrix(h)  # a new array, which the sweeps rotate in place
    n, cols = w.shape
    if n != cols:
        raise ValueError(f"eigenvalues require a square matrix, got {w.shape}")
    require_hermitian(w, "H")
    trace = float(np.diagonal(w).real.sum())
    threshold = JACOBI_OFFDIAG_TOL * max(abs(trace), frobenius_norm(w))
    for _ in range(JACOBI_MAX_SWEEPS):
        if not jacobi_sweep(w, threshold):
            break
    else:
        raise OracleError(f"Jacobi failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
    return sorted(float(x) for x in np.diagonal(w).real)


def _overlap(u: SubspaceBasis, v: SubspaceBasis) -> np.ndarray:
    """U*V for two bases of one tall shape: the angle diagnostics' one pairing rule."""
    for x in (u, v):
        if not isinstance(x, SubspaceBasis):
            raise TypeError(f"pass each basis as SubspaceBasis(Q), not as {type(x).__name__}")
    if u.shape != v.shape:
        raise ValueError(f"bases must share a shape, got {u.shape} and {v.shape}")
    m, n = u.shape
    if m <= n:
        raise ValueError(f"principal angles are defined only for m > n, got {m} x {n}")
    return matmul(conj_transpose(u.ortho), v.ortho)


def principal_angle_cosines(qa: SubspaceBasis, qb: SubspaceBasis) -> tuple[float, ...]:
    """Singular values of Qa*Qb via Jacobi on the hermitian product
    (Qa*Qb)*(Qa*Qb): the cosines of the principal angles between the spans,
    descending.  Their product is the determinantal correlation."""
    p = _overlap(qa, qb)
    eigs = hermitian_eigenvalues(matmul(conj_transpose(p), p))
    cosines = []
    for e in reversed(eigs):
        if e > (1.0 + UNIT_SLACK) ** 2:
            raise OracleError(f"squared cosine {e!r} exceeds 1 + {UNIT_SLACK:g}")
        cosines.append(math.sqrt(e) if e > 0.0 else 0.0)
    return tuple(cosines)


def column_norm_profile(u: SubspaceBasis, v: SubspaceBasis) -> list[float]:
    """Euclidean norms of the columns of U*V for two orthonormal bases.

    Each column of U*V is a coordinate shadow of a unit vector, so every norm
    is at most 1; an excess past the ``UNIT_SLACK`` slack raises OracleError.
    """
    norms = np.sqrt(column_squares(_overlap(u, v)))
    over = norms > 1.0 + UNIT_SLACK
    if over.any():
        j = int(over.argmax())
        raise OracleError(f"column {j} of U*V has norm {float(norms[j])!r} > 1 + {UNIT_SLACK:g}")
    return norms.tolist()


def det_bareiss(x: np.ndarray) -> int:
    """|det X| of a square object array of Python ints by Bareiss's fraction-free
    elimination: each step pivots on the first row with a nonzero lead and leaves
    minors of order k + 1, so every division by the last pivot is exact."""
    pivot = 1
    while len(x):
        rows = np.flatnonzero(x[:, 0])
        if not rows.size:
            return 0
        top, rest = x[rows[0]], np.delete(x, rows[0], axis=0)
        x, pivot = (top[0] * rest[:, 1:] - rest[:, :1] * top[1:]) // pivot, top[0]
    return abs(pivot)


def _integer_form(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(R, e): the real form [[re, -im], [im, re]] of x 2^e in Python ints,
    with 2^e the largest denominator among x's float64 parts."""
    parts = as_matrix(x).view(np.float64)
    ratios = [p.as_integer_ratio() for p in parts.ravel().tolist()]
    e = max(d for _, d in ratios).bit_length() - 1
    ints = np.array([num << (e + 1 - d.bit_length()) for num, d in ratios], dtype=object)
    re, im = ints.reshape(parts.shape)[:, 0::2], ints.reshape(parts.shape)[:, 1::2]
    return np.block([[re, -im], [im, re]]), e


def check_gram_dets(a: np.ndarray, b: np.ndarray, lhs: SignedLogDet, rhs: SignedLogDet) -> None:
    """Audit a verdict's sides, lhs = |det(A*MB)|^2 and rhs = det(A*MA) det(B*MB),
    against exact determinants of its pair's Gram products (the pair is
    whitened when weighted).  A side is a product of two determinants, so its
    square root must match their geometric mean within DET_AGREEMENT_RTOL, or,
    flagged zero, the smaller one must be at most ZERO_DET_RTOL * scale^n,
    with scale the product's largest entry magnitude.
    Skipped before any product above EXACT_MAX_N: each product is n x n.

    Each operand is a Gaussian-integer matrix over 2^e, so R_X^T R_Y is the
    real form of X*Y 2^(ex + ey) and its det_bareiss is |det(X*Y)|^2
    2^(2n (ex + ey)) exactly: only the logs of the sides carry the shift back."""
    n = a.shape[1]
    if n > EXACT_MAX_N:
        return
    (ra, ea), (rb, eb) = _integer_form(a), _integer_form(b)
    shift = 2 * n * (ea + eb) * math.log(2.0)
    prods = [(x[:, :, None] * y[:, None, :]).sum(axis=0) for x, y in ((ra, rb), (ra, ra), (rb, rb))]
    exact = [(det_bareiss(g), (g[:n, :n] ** 2 + g[n:, :n] ** 2).max()) for g in prods]
    for name, side, pair in ("lhs", lhs, exact[:1] * 2), ("rhs", rhs, exact[1:]):
        if side.zero:
            # |det|^2 q^2 <= p^2 (scale^2)^n for ZERO_DET_RTOL = p/q, exactly: a
            # zero det passes at any scale, and so does a zero product
            p, q = ZERO_DET_RTOL.as_integer_ratio()
            if all(det * q * q > p * p * sq**n for det, sq in pair):
                least = min(math.sqrt(det / sq**n) for det, sq in pair)
                raise OracleError(f"{name} is zero but each exact det is >= {least!r} * scale^n")
            continue
        product = pair[0][0] * pair[1][0]
        oracle = 0.5 * math.log(product) - shift if product else -math.inf
        if abs(math.expm1(0.5 * (side.log_magnitude - oracle))) > DET_AGREEMENT_RTOL:
            raise OracleError(
                f"sqrt({name}) disagrees with the exact oracle: log {name} "
                f"{side.log_magnitude!r}, oracle {oracle!r}"
            )


def check_correlation(
    fa: ColumnFactors, qb: np.ndarray, correlation: float
) -> tuple[tuple[float, ...], float]:
    """Cross-check a verdict's correlation |det(Qa*Qb)| against the product
    of the Jacobi principal-angle cosines, and return (cosines, product).

    The angles are taken on the bases of the verdict's pivoted QRs: A's,
    formed here, and Qb; the cosines do not depend on the bases chosen.
    The kernel built both bases, so one that fails orthonormality is a
    kernel bug, raised as OracleError, not an input error."""
    try:
        bases = SubspaceBasis(fa.basis()), SubspaceBasis(qb)
    except ValueError as exc:
        raise OracleError(f"verdict basis: {exc}") from exc
    cosines = principal_angle_cosines(*bases)
    product = math.prod(cosines)
    if abs(product - correlation) > COSINE_PRODUCT_ATOL:
        raise OracleError(
            f"cosine product {product!r} disagrees with correlation {correlation!r}"
        )
    return cosines, product


class BilinearityWitness(NamedTuple):
    """A triple showing det((A1+A2)*B) differs from det(A1*B) + det(A2*B)."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    discrepancy: float


def find_bilinearity_counterexample(seed: int) -> BilinearityWitness:
    """Search random square triples until the additivity defect exceeds 0.1.

    The defect is generic for n >= 2 (1x1 determinants are the one linear
    case, so n = 1 is excluded), so the search ends almost immediately; a full
    sweep of 1000 trials without a witness means the generator is broken.
    """
    from .fuzz import complex_normal  # loaded here, so importing the oracles skips fuzz

    for trial in range(SEARCH_TRIALS):
        rng = np.random.default_rng([abs(int(seed)), trial])
        n = 2 + trial % 2
        a1 = complex_normal(rng, n, n)
        a2 = complex_normal(rng, n, n)
        b = complex_normal(rng, n, n)
        joint = det_cofactor(matmul(conj_transpose(a1 + a2), b))
        split = det_cofactor(matmul(conj_transpose(a1), b)) + det_cofactor(
            matmul(conj_transpose(a2), b)
        )
        discrepancy = abs(joint - split)
        if discrepancy > 0.1:
            return BilinearityWitness(a1=a1, a2=a2, b=b, discrepancy=discrepancy)
    raise OracleError(f"no bilinearity defect above 0.1 in {SEARCH_TRIALS} trials")
