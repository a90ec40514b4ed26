"""Kernel tests: products, transposes, determinants, QR, Cholesky, rank."""

import ast
import copy
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from detcs import (
    NotHermitian,
    NotPositiveDefinite,
    SignedLogDet,
    SubspaceBasis,
    as_matrix,
    cholesky_hpd,
    conj_transpose,
    log_det,
    matmul,
)
from detcs import linalg
from detcs.fuzz import complex_normal
from detcs.linalg import HpdFactor, factor_columns, factor_lanes
from detcs.oracles import det_cofactor, matmul_naive


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        as_matrix([[float("inf")]])


def test_as_matrix_rejects_empty_and_wrong_ndim():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))


def test_matmul_identity():
    eye = np.eye(2, dtype=complex)
    assert np.array_equal(matmul(eye, eye), eye)


def test_matmul_permutation_swaps_rows():
    rng = np.random.default_rng(10)
    block = complex_normal(rng, 2, 2)
    perm = np.array([[0, 1], [1, 0]], dtype=complex)
    out = matmul(perm, block)
    assert np.array_equal(out[0], block[1])
    assert np.array_equal(out[1], block[0])


def test_matmul_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for m, k, n in [(3, 2, 2), (1, 5, 4), (6, 6, 1), (4, 3, 5)]:
        a = complex_normal(rng, m, k)
        b = complex_normal(rng, k, n)
        assert_allclose(matmul(a, b), matmul_naive(a, b), rtol=0, atol=1e-14)


def same_bits(x, y):
    """Equal shapes and bit patterns, so -0 and +0 differ."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_matmul_equals_plain_k_loop():
    # every entry is the oracle's sum over k ascending from +0, bit for bit
    rng = np.random.default_rng(12)
    shapes = [(1, 1, 1), (1, 9, 1), (7, 20, 1), (1, 20, 6), (5, 1, 5), (4, 8, 4), (64, 64, 64)]
    shapes += [(15, 64, 64), (16, 64, 64), (17, 64, 64), (33, 64, 64)]
    shapes += [(7, 12, 1), (5, 4, 3), (6, 4, 3), (9, 3, 8), (3, 30, 1)]
    for m, k, n in shapes:
        a, b = complex_normal(rng, m, k), complex_normal(rng, k, n)
        assert same_bits(matmul(a, b), matmul_naive(a, b)), (m, k, n)
    # strided, Fortran-order and conjugate-transposed views of the operands
    for m, k, n in [(1, 1, 1), (5, 4, 3), (8, 16, 4), (17, 9, 6)]:
        a, b = complex_normal(rng, m, k), complex_normal(rng, k, n)
        views = [
            (complex_normal(rng, 2 * m, 3 * k)[::2, ::3], b),
            (a, complex_normal(rng, 3 * k, 2 * n)[1::3, ::2]),
            (np.asfortranarray(a), b),
            (a, np.asfortranarray(b)),
            (np.asfortranarray(a), np.asfortranarray(b)),
            (complex_normal(rng, k, m).conj().T, b),
            (a, complex_normal(rng, n, k).conj().T),
        ]
        for x, y in views:
            out = matmul(x, y)
            assert out.flags.c_contiguous, (m, k, n)
            assert same_bits(out, matmul_naive(x, y)), (m, k, n, x.strides, y.strides)
    # mostly zeros of either sign: the sum starts at +0, so a sum of -0
    # terms is +0, as in the reference
    signed_zeros = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.5, -2.0])
    for m, k, n in [(1, 1, 1), (3, 5, 2), (6, 4, 7), (8, 8, 8)]:
        parts = [rng.choice(signed_zeros, shape) for shape in [(m, k)] * 2 + [(k, n)] * 2]
        a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
        assert same_bits(matmul(a, b), matmul_naive(a, b)), (m, k, n)
    # the oracle rejects empty matrices; an empty sum is +0
    for m, k, n in [(3, 0, 4), (0, 5, 2)]:
        out = matmul(np.ones((m, k), dtype=complex), np.ones((k, n), dtype=complex))
        assert same_bits(out, np.zeros((m, n), dtype=complex)), (m, k, n)


def test_matmul_holds_one_term_not_one_per_inner_index():
    # a 32 x 64 x 32 product holds its output, not the 64 terms of every
    # entry at once
    rng = np.random.default_rng(13)
    a, b = complex_normal(rng, 32, 64), complex_normal(rng, 64, 32)
    tracemalloc.start()
    try:
        out = matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * out.nbytes, (peak, out.nbytes)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3), dtype=complex), np.zeros((2, 3), dtype=complex))


def test_conj_transpose_examples():
    eye = np.eye(3, dtype=complex)
    assert np.array_equal(conj_transpose(eye), eye)
    assert np.array_equal(conj_transpose(np.array([[1j]])), np.array([[-1j]]))


def test_conj_transpose_involution():
    rng = np.random.default_rng(12)
    a = complex_normal(rng, 4, 6)
    assert np.array_equal(conj_transpose(conj_transpose(a)), a)


def test_conj_transpose_reverses_products():
    rng = np.random.default_rng(13)
    a = complex_normal(rng, 4, 3)
    b = complex_normal(rng, 3, 5)
    lhs = conj_transpose(matmul(a, b))
    rhs = matmul(conj_transpose(b), conj_transpose(a))
    assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-15)


def test_log_det_identity():
    d = log_det(np.eye(3, dtype=complex))
    assert not d.zero
    assert d.phase == 1.0 + 0j
    assert d.log_magnitude == 0.0


def test_log_det_transposition_flips_phase():
    d = log_det(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert d.phase == -1.0 + 0j
    assert d.log_magnitude == 0.0


def test_log_det_matches_cofactor_oracle():
    rng = np.random.default_rng(14)
    for _ in range(50):
        a = complex_normal(rng, 4, 4)
        d = log_det(a)
        ref = det_cofactor(a)
        assert abs(d.value() - ref) <= 1e-10 * abs(ref)


def test_log_det_multiplicative():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = complex_normal(rng, n, n)
        b = complex_normal(rng, n, n)
        ab = log_det(matmul(a, b))
        da, db = log_det(a), log_det(b)
        assert abs(ab.log_magnitude - (da.log_magnitude + db.log_magnitude)) <= 1e-9
        assert abs(ab.phase - da.phase * db.phase) <= 1e-9


def test_log_det_conj_transpose_conjugates_phase():
    rng = np.random.default_rng(16)
    for _ in range(30):
        a = complex_normal(rng, 5, 5)
        d = log_det(a)
        dt = log_det(conj_transpose(a))
        assert abs(dt.phase - d.phase.conjugate()) <= 1e-12
        assert abs(dt.log_magnitude - d.log_magnitude) <= 1e-12


def test_log_det_zero_matrix_flagged():
    d = log_det(np.zeros((3, 3), dtype=complex))
    assert d.zero
    assert d.magnitude() == 0.0
    assert d.value() == 0j


def test_log_det_singular_flagged():
    rng = np.random.default_rng(17)
    a = matmul(complex_normal(rng, 4, 2), complex_normal(rng, 2, 4))
    assert log_det(a).zero


def test_log_det_requires_square():
    with pytest.raises(ValueError):
        log_det(np.zeros((2, 3), dtype=complex))


def block_log_det(a):
    """log_det as first written: each elimination step updates only the
    trailing block right of column k."""
    n = a.shape[0]
    scale = np.abs(a).max()
    if scale == 0.0:
        return SignedLogDet.of_zero()
    threshold = linalg.SINGULARITY_TOL * scale
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
            lu[k + 1 :, k + 1 :] -= factors[:, None] * lu[None, k, k + 1 :]
    return SignedLogDet(phase, log_mag, False)


def same_log_det(x, y):
    """Equal flags and bit patterns of the phase and the log magnitude."""
    bits = [np.array([d.phase, d.log_magnitude]).view(np.uint64) for d in (x, y)]
    return x.zero == y.zero and np.array_equal(*bits)


def test_whole_row_elimination_is_the_block_elimination():
    rng = np.random.default_rng(18)
    for n in [1, 2, 3, 4, 5, 6, 7, 8, 32]:
        cases = []
        for _ in range(20):
            a = complex_normal(rng, n, n)
            cases += [a, a[rng.permutation(n)], a * 2.0 ** rng.integers(-60, 60, (n, 1))]
        if n > 1:
            # exactly singular: a repeated row, a zero column, a rank-one product
            a = complex_normal(rng, n, n)
            a[-1] = a[0]
            cases.append(a)
            a = complex_normal(rng, n, n)
            a[:, rng.integers(n)] = 0.0
            cases.append(a)
            cases.append(matmul(complex_normal(rng, n, 1), complex_normal(rng, 1, n)))
        for a in cases:
            assert same_log_det(log_det(a), block_log_det(a)), n
    # the last pivot just below and just above SINGULARITY_TOL times the
    # largest entry, behind a row permutation: both sides of the cutoff
    flags = set()
    for n in [2, 3, 5, 8, 32]:
        for f in [0.5, 0.99, 0.999, 1.001, 1.01, 2.0]:
            lower = np.tril(0.3 / n * complex_normal(rng, n, n), -1) + np.eye(n)
            upper = np.triu(complex_normal(rng, n, n), 1) + np.eye(n)
            upper[-1, -1] = 0.0
            scale = np.abs(matmul(lower, upper)).max()
            upper[-1, -1] = f * linalg.SINGULARITY_TOL * scale
            a = matmul(lower, upper)[rng.permutation(n)]
            x = log_det(a)
            assert same_log_det(x, block_log_det(a)), (n, f)
            flags.add(x.zero)
    assert flags == {True, False}


def test_records_keep_their_fields_read_only():
    x = SignedLogDet(1j, -0.5)
    assert repr(x) == "SignedLogDet(phase=1j, log_magnitude=-0.5, zero=False)"
    assert x == SignedLogDet(1j, -0.5, False) and x != SignedLogDet(1j, -0.5, True)
    assert hash(x) == hash((1j, -0.5, False))
    rng = np.random.default_rng(14)
    a = complex_normal(rng, 4, 2)
    weight = matmul(conj_transpose(a), a) + np.eye(2)
    records = [
        (x, "phase"),
        (factor_columns(a), "rank"),
        (cholesky_hpd(weight), "w_factor"),
        (SubspaceBasis(factor_columns(a).basis()), "ortho"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    fac = cholesky_hpd(weight)
    # identity equality; a copy is rebuilt through the validating constructor
    twin = copy.copy(fac)
    assert twin != fac and twin.w_factor is fac.w_factor
    assert repr(fac).startswith("HpdFactor(m_matrix=array(")


def test_signed_log_det_arithmetic():
    x = SignedLogDet(1j, 2.0)
    y = SignedLogDet(-1.0 + 0j, 3.0)
    p = x * y
    assert p.phase == -1j and p.log_magnitude == 5.0 and not p.zero
    assert (x * SignedLogDet.of_zero()).zero
    sq = x.abs_squared()
    assert sq.phase == 1.0 + 0j and sq.log_magnitude == 4.0
    assert SignedLogDet.of_zero().abs_squared().zero
    assert abs(x.value() - 1j * math.exp(2.0)) < 1e-12
    assert x.magnitude() == math.exp(2.0)


# The thin QR of a matrix is read from its column-pivoted factorization: the
# basis is the thin Q, |diag R| is kept, and R itself is never formed.


def assert_spans(f, a, tol):
    """f.basis() has orthonormal columns, and every column of ``a`` lies in
    their span: Q*a has nothing below its first min(m, n) rows and Q(Q*a) = a."""
    q = f.basis()
    p = q.shape[1]
    assert np.linalg.norm(matmul(conj_transpose(q), q) - np.eye(p)) <= tol
    assert np.linalg.norm(matmul(q, matmul(conj_transpose(q), a)) - a) <= tol * np.linalg.norm(a)
    assert np.linalg.norm(f.adjoint_apply(a)[p:]) <= tol * np.linalg.norm(a)


def test_qr_thin_single_basis_column():
    # the reflector maps e1 to -e1, and |r| = 1
    a = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    f = factor_columns(a)
    assert np.array_equal(f.basis(), -a)
    assert np.array_equal(f.diag, np.array([1.0]))


def test_qr_thin_scaled_identity():
    f = factor_columns(2.0 * np.eye(2, dtype=complex))
    assert np.array_equal(f.basis(), -np.eye(2, dtype=complex))
    assert np.array_equal(f.diag, np.array([2.0, 2.0]))


def test_qr_thin_reconstructs():
    rng = np.random.default_rng(18)
    a = complex_normal(rng, 5, 3)
    f = factor_columns(a)
    assert_spans(f, a, 1e-12)
    # |det R|^2 = det(A*A), whatever order the pivots took the columns in
    gram_det = abs(np.linalg.det(matmul(conj_transpose(a), a)))
    assert abs(np.prod(f.diag) ** 2 - gram_det) <= 1e-12 * gram_det


def test_qr_thin_invariants_up_to_64_rows():
    rng = np.random.default_rng(19)
    for m, n in [(8, 8), (12, 5), (33, 9), (64, 17)]:
        a = complex_normal(rng, m, n)
        f = factor_columns(a)
        assert_spans(f, a, 1e-11)
        # pivoting keeps |diag R| positive and non-increasing
        assert np.all(f.diag > 0.0) and np.all(np.diff(f.diag) <= 0.0)
        assert f.rank == n


def test_basis_of_rank_deficient_matrix_spans_it():
    # a rank-2 product: the rank says so, and the basis still spans it
    rng = np.random.default_rng(20)
    a = matmul(complex_normal(rng, 6, 2), complex_normal(rng, 2, 4))
    f = factor_columns(a)
    assert f.rank == 2
    assert_spans(f, a, 1e-12)


def test_basis_of_wide_matrix_is_unitary():
    # a wide matrix gets the full m x m unitary Q as its basis
    rng = np.random.default_rng(27)
    a = complex_normal(rng, 2, 3)
    f = factor_columns(a)
    assert f.basis().shape == (2, 2) and f.rank == 2
    assert_spans(f, a, 1e-12)


def test_cholesky_identity():
    fac = cholesky_hpd(np.eye(3, dtype=complex))
    assert np.array_equal(fac.w_factor, np.eye(3, dtype=complex))


def test_cholesky_diagonal_roots():
    fac = cholesky_hpd(np.diag([4.0, 9.0]).astype(complex))
    assert np.array_equal(fac.w_factor, np.diag([2.0, 3.0]).astype(complex))


def test_cholesky_reconstructs():
    rng = np.random.default_rng(21)
    for m in (1, 3, 6):
        g = complex_normal(rng, m, m)
        weight = matmul(conj_transpose(g), g) + np.eye(m)
        fac = cholesky_hpd(weight)
        err = np.linalg.norm(matmul(conj_transpose(fac.w_factor), fac.w_factor) - weight)
        assert err <= 1e-12 * np.linalg.norm(weight)


def test_cholesky_survives_condition_1e8():
    rng = np.random.default_rng(22)
    q1 = factor_columns(complex_normal(rng, 5, 5)).basis()
    weight = matmul(matmul(q1, np.diag(np.logspace(0, 8, 5)).astype(complex)), conj_transpose(q1))
    weight = (weight + conj_transpose(weight)) / 2.0
    fac = cholesky_hpd(weight)
    err = np.linalg.norm(matmul(conj_transpose(fac.w_factor), fac.w_factor) - weight)
    assert err <= 1e-11 * np.linalg.norm(weight)


def test_hpd_factor_rejects_lower_entries():
    weight = np.diag([4.0, 9.0]).astype(complex)
    w = np.diag([2.0, 3.0]).astype(complex)
    w[1, 0] = 1e-300
    with pytest.raises(ValueError):
        HpdFactor(m_matrix=weight, w_factor=w)
    w[1, 0] = 0.0
    w[0, 1] = 1.0
    assert HpdFactor(m_matrix=weight, w_factor=w).w_factor is w


def test_cholesky_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        cholesky_hpd(bad)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_hpd(np.diag([1.0, -2.0]).astype(complex))


def test_cholesky_rejects_non_square():
    with pytest.raises(ValueError):
        cholesky_hpd(np.zeros((2, 3), dtype=complex))


def test_estimate_rank_examples():
    assert factor_columns(np.zeros((3, 2), dtype=complex)).rank == 0
    assert factor_columns(np.eye(3, dtype=complex)).rank == 3
    assert factor_columns(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)).rank == 1


def test_estimate_rank_constructed():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(1, m))
        r = int(rng.integers(1, n + 1))
        a = matmul(complex_normal(rng, m, r), complex_normal(rng, r, n))
        assert factor_columns(a).rank == r


def test_estimate_rank_invariant_under_nonsingular_factor():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(1, 4))
        r = int(rng.integers(1, n + 1))
        a = matmul(complex_normal(rng, m, r), complex_normal(rng, r, n))
        # condition of C held under 1e4 by construction: unitary x diag x unitary
        q1 = factor_columns(complex_normal(rng, n, n)).basis()
        q2 = factor_columns(complex_normal(rng, n, n)).basis()
        spread = np.diag(np.logspace(0, 3, n)).astype(complex)
        c = matmul(matmul(q1, spread), q2)
        assert factor_columns(matmul(a, c)).rank == factor_columns(a).rank


def test_subspace_basis_validates():
    rng = np.random.default_rng(25)
    q = factor_columns(complex_normal(rng, 5, 2)).basis()
    basis = SubspaceBasis(q)
    assert basis.shape == (5, 2)
    with pytest.raises(ValueError):
        SubspaceBasis(complex_normal(rng, 5, 2))
    with pytest.raises(ValueError):
        SubspaceBasis(np.zeros((2, 3), dtype=complex))


def assert_same_factors(alone, lane, m):
    assert np.array_equal(alone.diag, lane.diag)
    assert alone.rank == lane.rank
    assert np.array_equal(alone.basis(), lane.basis())
    x = complex_normal(np.random.default_rng(m), m, 3)
    assert np.array_equal(alone.adjoint_apply(x), lane.adjoint_apply(x))


def test_two_lane_factorization_matches_each_lane_alone():
    rng = np.random.default_rng(26)
    cases = [(8, 4, None), (12, 6, 2), (5, 5, 0), (3, 6, 1), (1, 3, None)]
    cases += [(64, 32, None), (64, 32, 20), (12, 6, "tiny")]
    for m, n, rank in cases:
        a = complex_normal(rng, m, n)
        if rank == 0:
            a = 0.0 * a
        elif rank == "tiny":
            # nonzero entries whose squares all underflow to 0: the lane
            # gets beta 0 from the first step on, beside a live one
            a = 2.0**-600 * a
            assert a.all() and not linalg.column_squares(a).any()
        elif rank is not None:
            # a rank-deficient lane next to a full-rank one, in either order
            a = matmul(complex_normal(rng, m, rank), complex_normal(rng, rank, n))
        b = complex_normal(rng, m, n)
        for pair in ((a, b), (b, a)):
            lanes = factor_lanes(pair)
            for x, lane in zip(pair, lanes):
                assert_same_factors(factor_columns(x), lane, m)


def test_verdict_modules_call_no_numpy_linalg():
    # numpy.linalg hands complex input to BLAS, whose summation order
    # depends on the CPU kernel and the thread count; so do numpy's matrix
    # products, which only linalg.py still calls (ROADMAP item 2)
    src = pathlib.Path(linalg.__file__).parent
    product_free = ("inequality.py", "fuzz.py", "oracles.py", "cli.py", "matrixio.py")
    for name in ("linalg.py", *product_free):
        tree = ast.parse((src / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "linalg", (name, node.lineno)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                imported = [node.module] + [alias.name for alias in node.names]
                assert not any("linalg" in x for x in imported), (name, node.lineno)
        if name not in product_free:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("dot", "matmul"), (name, node.lineno)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.MatMult), (name, node.lineno)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                assert not {"dot", "matmul"} & {a.name for a in node.names}, (name, node.lineno)


def test_r_diagonal_is_the_pivot_norm():
    # |r_kk| has one producer, the pivot norm: the QR takes no complex
    # modulus of an array and reads no diagonal back (the scalar abs of a
    # column head gives the reflector its phase)
    tree = ast.parse(pathlib.Path(linalg.__file__).read_text())
    kernels = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_householder", "factor_lanes")
    ]
    assert len(kernels) == 2
    for kernel in kernels:
        for node in ast.walk(kernel):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("abs", "absolute", "diagonal"), (kernel.name, node.lineno)


def pivot_reduction(stack):
    """The Householder pivot norms as first written: one einsum over the
    lane stack's float64 view, real and imaginary halves added last."""
    f = stack.view(np.float64)
    halves = np.einsum("lij,lij->lj", f, f)
    return halves[:, 0::2] + halves[:, 1::2]


def test_column_squares_is_the_pivot_reduction():
    rng = np.random.default_rng(14)
    signed_zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.0])
    shapes = [(1, 1, 1), (2, 1, 7), (2, 9, 1), (3, 5, 4), (2, 8, 4), (2, 64, 32), (1, 12, 6)]
    for lanes, m, n in shapes:
        stacks = [complex_normal(rng, lanes * m, n).reshape(lanes, m, n)]
        parts = rng.choice(signed_zeros, (2, lanes, m, n))
        stacks.append(parts[0] + 1j * parts[1])
        stacks.append(stacks[0] * 2.0 ** rng.integers(-500, 500, (lanes, m, 1)))
        for stack in stacks:
            expected = pivot_reduction(stack)
            assert same_bits(linalg.column_squares(stack), expected), (lanes, m, n)
            assert same_bits(linalg.column_squares(stack[0]), expected[0])
            # the trailing blocks _householder slices from its stack
            k = min(m, n) - 1
            tail = pivot_reduction(np.ascontiguousarray(stack[:, k:, k:]))
            assert same_bits(linalg.column_squares(stack[:, k:, k:]), tail)
    # a real array is not read as the interleaved view of a complex one
    with pytest.raises(TypeError):
        linalg.column_squares(stack.view(np.float64))


def test_column_squares_agrees_with_squared_magnitudes():
    # both sum m positive terms, each rounded a bounded number of times, so
    # each is within (m + 2) eps of the exact sum, relative
    rng = np.random.default_rng(15)
    for m, n in [(1, 1), (1, 6), (6, 1), (6, 6), (12, 6), (64, 32)]:
        x = complex_normal(rng, m, n) * 2.0 ** rng.integers(-40, 40, (m, 1))
        expected = (np.abs(x) ** 2).sum(axis=0)
        bound = 2 * (m + 2) * np.finfo(float).eps
        assert_allclose(linalg.column_squares(x), expected, rtol=bound, atol=0)
    assert np.array_equal(linalg.column_squares(np.array([[3 + 4j], [-0.0 - 12j]])), [169.0])


def test_one_function_sums_squared_magnitudes():
    # column_squares is the only reduction of squared magnitudes: no module
    # squares an np.abs, and einsum is called in column_squares and in
    # matmul only, the latter with the product's subscripts
    src = pathlib.Path(linalg.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        helpers = {
            node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("column_squares", "matmul")
        }
        assert set(helpers) == ({"column_squares", "matmul"} if path.name == "linalg.py" else set())
        for name, helper in helpers.items():
            calls = [
                node for node in ast.walk(helper)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
            ]
            assert len(calls) == 1, name
            if name == "matmul":
                # no optimize, which could hand the product to BLAS
                assert ast.literal_eval(calls[0].args[0]) == "ij,jk->ik"
                assert "optimize" not in {kw.arg for kw in calls[0].keywords}
        inside = {id(node) for h in helpers.values() for node in ast.walk(h)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in inside:
                assert node.attr != "einsum", (path.name, node.lineno)
            elif isinstance(node, ast.Name) and id(node) not in inside:
                assert node.id != "einsum", (path.name, node.lineno)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base = node.left
                squares_abs = isinstance(base, ast.Call) and (
                    isinstance(base.func, ast.Attribute) and base.func.attr in ("abs", "absolute")
                )
                assert not squares_abs, (path.name, node.lineno)
