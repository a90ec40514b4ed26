"""Tests for the inequality layer: Gram products, correlation, bounds,
classification, and the verdict report."""

import ast
import collections
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from detcs import (
    CaseTag,
    EQUALITY_TOL,
    CsReport,
    InequalityViolation,
    OracleError,
    SignedLogDet,
    cholesky_hpd,
    conj_transpose,
    matmul,
    verify_inequality,
    whitened_pair,
)
from detcs import inequality, linalg, oracles
from detcs.cli import run
from detcs.fuzz import complex_normal
from detcs.inequality import enforce_equality_contract
from detcs.linalg import SubspaceBasis, factor_columns
from detcs.matrixio import save_matrix
from detcs.oracles import column_norm_profile, det_cofactor, matmul_naive


def hpd(rng, m, ridge=1.0):
    g = complex_normal(rng, m, m)
    return cholesky_hpd(matmul(conj_transpose(g), g) + ridge * np.eye(m))


def weighted_gram(a, b, fac):
    """A*MB as (WA)*(WB) from the whitened pair, the product whose LU gives
    the verdict's left side."""
    wa, wb = whitened_pair(a, b, fac)
    return matmul(conj_transpose(wa), wb)


def test_gram_identity():
    eye = np.eye(2, dtype=complex)
    assert np.array_equal(weighted_gram(eye, eye, cholesky_hpd(eye)), eye)


def test_gram_diagonal_weight():
    e1 = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    fac = cholesky_hpd(np.diag([4.0, 1.0, 1.0]).astype(complex))
    assert np.array_equal(weighted_gram(e1, e1, fac), np.array([[4.0 + 0j]]))


def test_gram_matches_direct_triple_product():
    rng = np.random.default_rng(40)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        fac = hpd(rng, m)
        direct = matmul_naive(matmul_naive(conj_transpose(a), fac.m_matrix), b)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(weighted_gram(a, b, fac) - direct).max() <= 1e-12 * scale


def test_gram_shape_mismatch():
    fac = cholesky_hpd(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        weighted_gram(np.zeros((2, 2), dtype=complex), np.zeros((3, 2), dtype=complex), fac)


def test_whitened_pair_identity_weight():
    rng = np.random.default_rng(41)
    a = complex_normal(rng, 3, 2)
    b = complex_normal(rng, 3, 2)
    fac = cholesky_hpd(np.eye(3, dtype=complex))
    wa, wb = whitened_pair(a, b, fac)
    assert np.array_equal(wa, a)
    assert np.array_equal(wb, b)


def test_whitened_pair_diagonal_example():
    fac = cholesky_hpd(np.diag([4.0, 9.0]).astype(complex))
    a = np.array([[1.0], [0.0]], dtype=complex)
    b = np.array([[0.0], [1.0]], dtype=complex)
    wa, wb = whitened_pair(a, b, fac)
    assert np.array_equal(wa, 2.0 * a)
    assert np.array_equal(wb, 3.0 * b)


def test_triangular_whitening_equals_full_product():
    rng = np.random.default_rng(48)
    for m, n in [(1, 1), (3, 2), (8, 4), (5, 7), (64, 32)]:
        a, b = complex_normal(rng, m, n), complex_normal(rng, m, n)
        fac = hpd(rng, m, ridge=1e-3)
        full = matmul(fac.w_factor, np.concatenate((a, b), axis=1))
        wa, wb = whitened_pair(a, b, fac)
        assert np.array_equal(wa, full[:, :n])
        assert np.array_equal(wb, full[:, n:])


def test_weighted_verdict_reads_the_whitened_pair(tmp_path, count_calls):
    # wide, square and tall: the verdict's pair is whitened_pair's, bit for
    # bit, and the verdict gets it by one call of the module's whitened_pair
    calls = count_calls(inequality, "whitened_pair")
    rng = np.random.default_rng(49)
    for m, n, tag in [(3, 5, CaseTag.WIDE_EQUAL_ZERO), (5, 5, CaseTag.SQUARE_EQUAL), (8, 4, None)]:
        a, b, fac = complex_normal(rng, m, n), complex_normal(rng, m, n), hpd(rng, m)
        v = inequality._verdict(a, b, fac, EQUALITY_TOL)
        assert calls["whitened_pair"] == 1
        calls.clear()
        wa, wb = whitened_pair(a, b, fac)
        assert v.a.tobytes() == wa.tobytes() and v.b.tobytes() == wb.tobytes()
        assert tag is None or v.tag is tag
    # the --check audit reads the whitened Gram products of a wide pair too
    a, b, fac = complex_normal(rng, 3, 5), complex_normal(rng, 3, 5), hpd(rng, 3)
    for name, x in ("a", a), ("b", b), ("m", fac.m_matrix):
        save_matrix(tmp_path / f"{name}.mat", x)
    files = [f"--{name}={tmp_path / name}.mat" for name in "abm"]
    assert run(["verify", "--check", *files]) == 0
    # the weight must still fit the operands
    with pytest.raises(ValueError):
        verify_inequality(a, b, hpd(rng, 4))


def test_whitened_pair_weight_shape_mismatch():
    rng = np.random.default_rng(42)
    fac = hpd(rng, 4)
    a = complex_normal(rng, 3, 2)
    with pytest.raises(ValueError, match="weight is 4 x 4 but the matrices have 3 rows"):
        whitened_pair(a, a, fac)


def test_a_raw_weight_matrix_names_cholesky_hpd():
    # every weighted verdict reads its pair from whitened_pair, which takes
    # the factored weight only: a bare M is refused with the constructor to
    # call, not with an AttributeError from inside the whitening
    rng = np.random.default_rng(44)
    a, b = complex_normal(rng, 3, 2), complex_normal(rng, 3, 2)
    for entry in (verify_inequality, whitened_pair):
        with pytest.raises(TypeError, match=r"cholesky_hpd\(M\), not as ndarray"):
            entry(a, b, np.eye(3))


def test_whitening_reduction_reports_identical():
    rng = np.random.default_rng(43)
    for _ in range(10):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        fac = hpd(rng, m, ridge=1e-3)
        weighted = verify_inequality(a, b, fac)
        wa, wb = whitened_pair(a, b, fac)
        plain = verify_inequality(wa, wb)
        assert weighted.case_tag is plain.case_tag
        assert weighted.equality == plain.equality
        assert weighted.lhs_log == plain.lhs_log
        assert weighted.rhs_log == plain.rhs_log
        assert weighted.relative_gap == plain.relative_gap
        assert weighted.correlation == plain.correlation


def test_correlation_identical_spans():
    rng = np.random.default_rng(44)
    a = complex_normal(rng, 4, 2)
    assert abs(verify_inequality(a, a).correlation - 1.0) <= 1e-10


def test_correlation_is_exactly_one_when_rounding_lands_above():
    # |det(Qa*Qa)| computed from a draw's own factors can round a few ulps
    # above 1; the report clamps such a raw value to 1.0 exactly
    for seed in range(200):
        a = complex_normal(np.random.default_rng(seed), 12, 6)
        v = inequality._verdict(a, a, None, EQUALITY_TOL)
        if inequality.log_det(v.z[:6]).magnitude() > 1.0:
            break
    else:
        pytest.fail("no seeded draw rounds above 1")
    assert verify_inequality(a, a).correlation == 1.0


def test_correlation_orthogonal_spans():
    a = np.eye(4, 2, dtype=complex)
    b = np.zeros((4, 2), dtype=complex)
    b[2, 0] = 1.0
    b[3, 1] = 1.0
    assert verify_inequality(a, b).correlation == 0.0


def test_correlation_half_tilted_plane():
    a = np.eye(3, 2, dtype=complex)
    b = np.zeros((3, 2), dtype=complex)
    b[0, 0] = 1.0
    b[1, 1] = b[2, 1] = 1.0 / np.sqrt(2.0)
    assert abs(verify_inequality(a, b).correlation - 1.0 / np.sqrt(2.0)) <= 1e-12


def test_correlation_shared_span_scaling():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 5))
        a = complex_normal(rng, m, n)
        b = matmul(a, complex_normal(rng, n, n))
        assert abs(verify_inequality(a, b).correlation - 1.0) <= 1e-10


def test_correlation_unitary_invariance():
    rng = np.random.default_rng(46)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 5))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        p = factor_columns(complex_normal(rng, m, m)).basis()
        base = verify_inequality(a, b).correlation
        rotated = verify_inequality(matmul(p, a), matmul(p, b)).correlation
        assert abs(base - rotated) <= 1e-10


def test_det_correlation_validates_each_operand_once(count_calls):
    # the determinant correlation is read off the verdict; forming it
    # validates each operand once, with or without a weight
    calls = count_calls(inequality, "as_matrix")
    rng = np.random.default_rng(48)
    a, b = complex_normal(rng, 12, 6), complex_normal(rng, 12, 6)
    for weight in (None, hpd(rng, 12)):
        calls.clear()
        correlation = verify_inequality(a, b, weight).correlation
        assert 0.0 < correlation < 1.0
        assert calls == {"as_matrix": 2}


def test_column_norm_profile_identical():
    rng = np.random.default_rng(50)
    u = SubspaceBasis(factor_columns(complex_normal(rng, 6, 3)).basis())
    assert_allclose(column_norm_profile(u, u), np.ones(3), rtol=0, atol=1e-12)


def test_column_norm_profile_orthogonal():
    u = SubspaceBasis(np.eye(4, 2, dtype=complex))
    v = np.zeros((4, 2), dtype=complex)
    v[2, 0] = 1.0
    v[3, 1] = 1.0
    assert column_norm_profile(u, SubspaceBasis(v)) == [0.0, 0.0]


def test_column_norm_profile_half_tilted_plane():
    u = SubspaceBasis(np.eye(3, 2, dtype=complex))
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = v[2, 1] = 1.0 / np.sqrt(2.0)
    profile = column_norm_profile(u, SubspaceBasis(v))
    assert_allclose(profile, [1.0, 1.0 / np.sqrt(2.0)], rtol=0, atol=1e-12)


def test_column_norm_profile_errors():
    rng = np.random.default_rng(51)
    u = SubspaceBasis(factor_columns(complex_normal(rng, 5, 2)).basis())
    v = SubspaceBasis(factor_columns(complex_normal(rng, 5, 3)).basis())
    with pytest.raises(ValueError):
        column_norm_profile(u, v)
    square = SubspaceBasis(factor_columns(complex_normal(rng, 3, 3)).basis())
    with pytest.raises(ValueError, match="principal angles are defined only for m > n, got 3 x 3"):
        column_norm_profile(square, square)


def test_classify_shared_span():
    rng = np.random.default_rng(52)
    a = complex_normal(rng, 5, 3)
    c = complex_normal(rng, 3, 3)
    assert verify_inequality(a, matmul(a, c)).case_tag is CaseTag.FULL_RANK_SAME_SPAN


def test_classify_distinct_axes():
    a = np.eye(3, 2, dtype=complex)
    b = np.zeros((3, 2), dtype=complex)
    b[0, 0] = 1.0
    b[2, 1] = 1.0
    assert verify_inequality(a, b).case_tag is CaseTag.FULL_RANK_STRICT


def test_classify_absorbs_tiny_perturbation():
    rng = np.random.default_rng(53)
    a = complex_normal(rng, 5, 3)
    b = a + 1e-14 * complex_normal(rng, 5, 3)
    assert verify_inequality(a, b).case_tag is CaseTag.FULL_RANK_SAME_SPAN


def test_classify_edge_inputs_and_bad_tol():
    rng = np.random.default_rng(54)
    deficient = matmul(complex_normal(rng, 5, 1), complex_normal(rng, 1, 2))
    report = verify_inequality(deficient, complex_normal(rng, 5, 2))
    assert report.case_tag is CaseTag.RANK_DEFICIENT_ZERO
    wide = np.zeros((2, 3), dtype=complex)
    assert verify_inequality(wide, wide).case_tag is CaseTag.WIDE_EQUAL_ZERO
    square = complex_normal(rng, 3, 3)
    tall = complex_normal(rng, 4, 2)
    # a tolerance outside (0, 1) is refused before the shape decides
    for a, b in [(wide, wide), (square, square), (tall, tall)]:
        for tol in (0.0, -1.0, float("nan"), float("inf"), 1.0, 20.0):
            with pytest.raises(ValueError):
                verify_inequality(a, b, tol=tol)


def test_classify_all_five_regimes():
    rng = np.random.default_rng(55)
    wide = complex_normal(rng, 2, 3)
    assert verify_inequality(wide, complex_normal(rng, 2, 3)).case_tag is CaseTag.WIDE_EQUAL_ZERO
    square = complex_normal(rng, 3, 3)
    assert verify_inequality(square, complex_normal(rng, 3, 3)).case_tag is CaseTag.SQUARE_EQUAL
    deficient = matmul(complex_normal(rng, 4, 1), complex_normal(rng, 1, 2))
    report = verify_inequality(deficient, complex_normal(rng, 4, 2))
    assert report.case_tag is CaseTag.RANK_DEFICIENT_ZERO
    a = complex_normal(rng, 4, 2)
    report = verify_inequality(a, matmul(a, complex_normal(rng, 2, 2)))
    assert report.case_tag is CaseTag.FULL_RANK_SAME_SPAN
    assert verify_inequality(a, complex_normal(rng, 4, 2)).case_tag is CaseTag.FULL_RANK_STRICT


def test_classify_scaling_covariance():
    rng = np.random.default_rng(56)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        c = complex_normal(rng, n, n)
        before = verify_inequality(a, b)
        after = verify_inequality(matmul(a, c), b)
        assert before.case_tag is after.case_tag


def test_classify_weighted_matches_whitened():
    rng = np.random.default_rng(57)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        fac = hpd(rng, m, ridge=1e-3)
        wa, wb = whitened_pair(a, b, fac)
        assert verify_inequality(a, b, fac).case_tag is verify_inequality(wa, wb).case_tag


def test_verify_wide_vanishes_structurally():
    rng = np.random.default_rng(58)
    report = verify_inequality(complex_normal(rng, 1, 2), complex_normal(rng, 1, 2))
    assert report.case_tag is CaseTag.WIDE_EQUAL_ZERO
    assert report.lhs_log.zero and report.rhs_log.zero
    assert report.relative_gap == 0.0
    assert report.equality
    assert report.correlation is None


def test_verify_rank_deficient_vanishes_structurally():
    rng = np.random.default_rng(59)
    a = matmul(complex_normal(rng, 5, 2), complex_normal(rng, 2, 3))
    report = verify_inequality(a, complex_normal(rng, 5, 3))
    assert report.case_tag is CaseTag.RANK_DEFICIENT_ZERO
    assert report.lhs_log.zero and report.rhs_log.zero
    assert report.equality


def test_verify_square_equality_within_tolerance():
    rng = np.random.default_rng(60)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        report = verify_inequality(complex_normal(rng, n, n), complex_normal(rng, n, n))
        assert report.case_tag is CaseTag.SQUARE_EQUAL
        assert report.equality
        assert report.relative_gap <= 1e-10
        assert report.correlation is None


def test_verify_strict_gap_equals_one_minus_correlation_squared():
    rng = np.random.default_rng(61)
    for _ in range(30):
        a = complex_normal(rng, 5, 2)
        b = complex_normal(rng, 5, 2)
        report = verify_inequality(a, b)
        assert report.case_tag is CaseTag.FULL_RANK_STRICT
        assert not report.equality
        assert report.correlation is not None
        assert abs(report.relative_gap - (1.0 - report.correlation**2)) <= 1e-9


def test_verify_strictness_forces_correlation_below_one():
    rng = np.random.default_rng(62)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 5))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        report = verify_inequality(a, b)
        if report.case_tag is CaseTag.FULL_RANK_SAME_SPAN:
            continue
        assert report.case_tag is CaseTag.FULL_RANK_STRICT
        assert report.correlation < 1.0 - 1e-12


def test_verify_same_span_equality():
    rng = np.random.default_rng(63)
    a = complex_normal(rng, 6, 3)
    report = verify_inequality(a, matmul(a, complex_normal(rng, 3, 3)))
    assert report.case_tag is CaseTag.FULL_RANK_SAME_SPAN
    assert report.equality
    assert abs(report.correlation - 1.0) <= 1e-10
    assert report.relative_gap <= 1e-9


def test_verify_rejects_bad_tol_and_shape():
    rng = np.random.default_rng(64)
    a = complex_normal(rng, 3, 2)
    with pytest.raises(ValueError):
        verify_inequality(a, a, tol=0.0)
    with pytest.raises(ValueError, match="a and b must share a shape"):
        verify_inequality(a, complex_normal(rng, 2, 2))
    # unchecked, this pair would verify as WideEqualZero
    with pytest.raises(ValueError, match="a and b must share a shape"):
        verify_inequality(complex_normal(rng, 2, 3), complex_normal(rng, 2, 5))


def test_operands_are_matrices_and_a_vector_is_a_column():
    # n = 1 is the classical Cauchy-Schwarz inequality for two vectors, which
    # are passed as m x 1 columns; a 1-D or 0-D operand is refused, not read
    # as a 1 x m row of the wide regime
    for operand in ([1.0, 2.0, 3.0], 2.0):
        shape = np.shape(operand)
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
            verify_inequality(operand, operand)
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
            cholesky_hpd(operand)
    report = verify_inequality([[1], [2], [3]], [[4], [5], [6]])
    assert report.case_tag is CaseTag.FULL_RANK_STRICT
    assert report.relative_gap == 0.050092764378479156


def square_pair_with_roundoff(sign):
    """The first seeded 4x4 square pair whose computed lhs sits above
    (sign > 0) or below (sign < 0) its rhs; the seed is searched rather than
    pinned, so the tests survive last-digit changes in the kernels."""
    for seed in range(64):
        rng = np.random.default_rng(seed)
        a = complex_normal(rng, 4, 4)
        b = complex_normal(rng, 4, 4)
        report = verify_inequality(a, b)
        slack = report.lhs_log.log_magnitude - report.rhs_log.log_magnitude
        if slack * sign > 0.0:
            return a, b
    return None


def test_verify_absurd_tolerance_raises_on_positive_roundoff():
    # a square pair with lhs a few ulps above rhs: a tolerance below
    # roundoff must trip the bound assertion
    pair = square_pair_with_roundoff(+1)
    assert pair is not None
    with pytest.raises(InequalityViolation):
        verify_inequality(*pair, tol=1e-18)
    # the bound is log(1 + tol), no wider: a tol that puts the slack
    # 1.5 times past it raises too, naming the regime as the equality
    # contract does
    report = verify_inequality(*pair)
    slack = report.lhs_log.log_magnitude - report.rhs_log.log_magnitude
    with pytest.raises(InequalityViolation, match="^case SquareEqual: log slack .* exceeds log"):
        verify_inequality(*pair, tol=math.expm1(slack) / 1.5)


def test_equality_contract_trips_below_roundoff():
    # a square pair with lhs a shade under rhs: the bound holds at any
    # tolerance but the computed gap cannot beat 1e-18, so verify raises
    pair = square_pair_with_roundoff(-1)
    assert pair is not None
    with pytest.raises(InequalityViolation, match="demands equality"):
        verify_inequality(*pair, tol=1e-18)


def test_verify_enforces_the_equality_contract(monkeypatch):
    # an LU that lowers lhs by 1e-6 in log leaves the bound intact but
    # breaks the equality a same-span pair promises: verify itself raises
    rng = np.random.default_rng(67)
    a = complex_normal(rng, 12, 6)
    b = matmul(a, complex_normal(rng, 6, 6))
    assert verify_inequality(a, b).case_tag is CaseTag.FULL_RANK_SAME_SPAN
    original = inequality.log_det

    def lowered(mat):
        d = original(mat)
        return d._replace(log_magnitude=d.log_magnitude - 0.5e-6)  # lhs is |det|^2

    monkeypatch.setattr(inequality, "log_det", lowered)
    with pytest.raises(InequalityViolation, match="demands equality"):
        verify_inequality(a, b)


def test_equality_contract_has_one_caller():
    # the contract is enforced where every verdict record is built, so no
    # front end calls it a second time
    callers = []
    for path in sorted(pathlib.Path(inequality.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "enforce_equality_contract" in ast.unparse(node.func):
                inner = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                callers.append((path.name, max(inner, key=lambda f: f.lineno).name if inner else None))
    assert callers == [("inequality.py", "_report")]


def test_equality_contract_passes_sane_reports():
    rng = np.random.default_rng(65)
    for draw in [(3, 3), (2, 4), (5, 2)]:
        a = complex_normal(rng, *draw)
        b = complex_normal(rng, *draw)
        enforce_equality_contract(verify_inequality(a, b))


def test_verify_report_log_identity():
    # lhs is |det(A*B)|^2: its log must be twice the log of the Gram
    # determinant magnitude computed directly
    rng = np.random.default_rng(66)
    a = complex_normal(rng, 4, 4)
    b = complex_normal(rng, 4, 4)
    report = verify_inequality(a, b)
    ref = abs(det_cofactor(matmul(conj_transpose(a), b)))
    assert abs(report.lhs_log.log_magnitude - 2.0 * math.log(ref)) <= 1e-9


def test_ill_conditioned_tall_operand_verifies(tmp_path):
    # sigma_min / sigma_max = 1e-9 squares to 1e-18 in A*A, past the LU pivot
    # cutoff; the right side must come from R instead.  Both R and the SVD
    # resolve log sigma_min only to about 1e-16 * 1e9, hence the 1e-9 bound.
    rng = np.random.default_rng(90)
    u = np.linalg.qr(complex_normal(rng, 12, 12))[0][:, :6]
    v = np.linalg.qr(complex_normal(rng, 6, 6))[0]
    a = (u * np.logspace(0.0, -9.0, 6)) @ v
    b = complex_normal(rng, 12, 6)
    report = verify_inequality(a, b)
    assert report.case_tag is CaseTag.FULL_RANK_STRICT
    ref = 2.0 * sum(np.log(np.linalg.svd(x, compute_uv=False)).sum() for x in (a, b))
    assert abs(report.rhs_log.log_magnitude - ref) <= 1e-9 * abs(ref)
    save_matrix(tmp_path / "a.mat", a)
    save_matrix(tmp_path / "b.mat", b)
    assert run(["verify", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]) == 0


def count_verdict_kernels(count_calls):
    count_calls(inequality, "factor_lanes", "matmul", "log_det", "_whiten")
    # every Householder pass, whoever asks for it
    count_calls(linalg, "factor_columns", "_householder")
    # a basis Q, or Q* applied to one, is formed only through these two
    count_calls(linalg.ColumnFactors, "basis", "adjoint_apply")
    # inequality binds nothing from the oracles, so patching them in their
    # own module catches any call that reaches them
    return count_calls(oracles, "hermitian_eigenvalues", "jacobi_sweep")


def test_strict_verdict_factors_each_operand_once(count_calls):
    calls = count_verdict_kernels(count_calls)
    count_calls(inequality, "as_matrix")
    bound = (getattr(v, "__module__", None) for v in vars(inequality).values())
    assert oracles.__name__ not in bound
    rng = np.random.default_rng(8)
    report = verify_inequality(complex_normal(rng, 8, 4), complex_normal(rng, 8, 4))
    assert report.case_tag is CaseTag.FULL_RANK_STRICT
    # each operand is validated once; both go through one two-lane
    # factorization; B's basis is formed once and A's reflectors are applied
    # to it; the one product is A*B for the LU route
    expected = {
        "as_matrix": 2,
        "factor_lanes": 1,
        "_householder": 1,
        "matmul": 1,
        "log_det": 2,
        "basis": 1,
        "adjoint_apply": 1,
    }
    assert calls == expected
    # a weight adds one triangular whitening of both operands together, one
    # matmul per 8-row block of W (one at 8 rows, two at 12), and no second
    # validation
    for m, n, blocks in (8, 4, 1), (12, 6, 2):
        a, b, weight = complex_normal(rng, m, n), complex_normal(rng, m, n), hpd(rng, m)
        calls.clear()
        report = verify_inequality(a, b, weight)
        assert report.case_tag is CaseTag.FULL_RANK_STRICT
        assert calls == dict(expected, _whiten=1, matmul=1 + blocks)


def test_square_wide_and_deficient_verdicts_form_no_basis(count_calls):
    calls = count_verdict_kernels(count_calls)
    rng = np.random.default_rng(9)
    deficient = matmul(complex_normal(rng, 8, 3), complex_normal(rng, 3, 4))
    pairs = [
        (complex_normal(rng, 4, 4), complex_normal(rng, 4, 4), CaseTag.SQUARE_EQUAL, 1),
        (deficient[:4], complex_normal(rng, 4, 4), CaseTag.SQUARE_EQUAL, 0),
        (complex_normal(rng, 3, 5), complex_normal(rng, 3, 5), CaseTag.WIDE_EQUAL_ZERO, 0),
        (deficient, complex_normal(rng, 8, 4), CaseTag.RANK_DEFICIENT_ZERO, 0),
    ]
    for a, b, tag, lu_calls in pairs:
        passes = 0 if tag is CaseTag.WIDE_EQUAL_ZERO else 1
        calls.clear()
        report = verify_inequality(a, b)
        assert report.case_tag is tag
        assert report.correlation is None
        assert calls["basis"] == calls["adjoint_apply"] == 0
        assert calls["_householder"] == calls["factor_lanes"] == passes
        assert calls["log_det"] == lu_calls


def test_complement_block_gives_sines_and_overlap():
    # Z = Qa* Qb for A's full Q: the bottom rows carry sum sin^2 theta, which
    # must match |Qb - Qa(Qa*Qb)|_F^2 from the one-lane bases, and |det Z[:n]|
    # must match the product of cosines from numpy's QR and SVD
    rng = np.random.default_rng(93)
    for m, n in [(12, 6), (64, 32)]:
        for kind in ("generic", "same span", 1e-4, 1e-6):
            for weighted in (False, True):
                if kind == "generic":
                    a, b = complex_normal(rng, m, n), complex_normal(rng, m, n)
                elif kind == "same span":
                    a = complex_normal(rng, m, n)
                    b = matmul(a, complex_normal(rng, n, n))
                else:
                    a, b = tilted_pair(rng, m, n, kind)
                if weighted:
                    a, b = whitened_pair(a, b, hpd(rng, m))
                z = inequality._verdict(a, b, None, EQUALITY_TOL).z
                qa, qb = factor_columns(a).basis(), factor_columns(b).basis()
                residual = qb - matmul(qa, matmul(conj_transpose(qa), qb))
                sines = float((np.abs(z[n:]) ** 2).sum())
                assert abs(sines - float((np.abs(residual) ** 2).sum())) <= 1e-14
                na, nb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
                cosines = np.linalg.svd(na.conj().T @ nb, compute_uv=False).prod()
                assert abs(abs(np.linalg.det(z[:n])) - cosines) <= 1e-12 * cosines


def tilted_pair(rng, m, n, theta):
    """A generic full-rank m x n A, and a B whose span is A's with its last
    basis direction turned by theta towards the orthogonal complement: one
    principal angle theta, the others zero."""
    u = np.linalg.qr(complex_normal(rng, m, m))[0]
    q = u[:, :n].copy()
    q[:, -1] = math.cos(theta) * u[:, n - 1] + math.sin(theta) * u[:, n]
    return u[:, :n] @ complex_normal(rng, n, n), q @ complex_normal(rng, n, n)


def test_small_tilt_is_strict_and_verifies(tmp_path):
    # sin^2 theta = 1e-8 exceeds the 1e-9 equality tolerance, and so does the
    # gap; a span test on 1 - cos theta (about 5e-9) would pass the spans as
    # equal and the report would then break its own equality contract
    a, b = tilted_pair(np.random.default_rng(91), 12, 6, 1e-4)
    report = verify_inequality(a, b)
    assert report.case_tag is CaseTag.FULL_RANK_STRICT
    save_matrix(tmp_path / "a.mat", a)
    save_matrix(tmp_path / "b.mat", b)
    assert run(["verify", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]) == 0


def test_tilt_under_tolerance_is_same_span():
    a, b = tilted_pair(np.random.default_rng(91), 12, 6, 1e-5)
    report = verify_inequality(a, b)
    assert report.case_tag is CaseTag.FULL_RANK_SAME_SPAN
    assert report.relative_gap <= 1e-9


def test_tilt_sweep_keeps_equality_contract():
    # random tilts from 1e-6 to 1e-3, plus tilts whose sin^2 lies within
    # 1e-5 relative of the equality tolerance or of half of it, where a span
    # threshold flips the tag while the computed gap carries roundoff
    rng = np.random.default_rng(92)
    cases = [(m, n, 10.0 ** rng.uniform(-6.0, -3.0)) for m, n in [(12, 6)] * 28 + [(64, 32)] * 12]
    for level in (1e-9, 0.5e-9):
        for _ in range(30):
            cases.append((12, 6, math.asin(math.sqrt(level * (1.0 + rng.uniform(-1e-5, 1e-5))))))
    tags = collections.Counter()
    for m, n, theta in cases:
        report = verify_inequality(*tilted_pair(rng, m, n, theta))
        enforce_equality_contract(report)
        tags[report.case_tag] += 1
        if report.case_tag is CaseTag.FULL_RANK_SAME_SPAN:
            assert report.relative_gap <= report.tol_used
        # sin^2 theta against half the tolerance decides the tag away from it
        if theta**2 < 0.4e-9:
            assert report.case_tag is CaseTag.FULL_RANK_SAME_SPAN
        elif theta**2 > 0.6e-9:
            assert report.case_tag is CaseTag.FULL_RANK_STRICT
    assert tags[CaseTag.FULL_RANK_SAME_SPAN] and tags[CaseTag.FULL_RANK_STRICT]


def test_column_norm_profile_bounds_the_correlation():
    # the column norms of Qa*Qb, for bases of the whitened pair, bound the
    # correlation by their product (Hadamard)
    rng = np.random.default_rng(96)
    m, n = 12, 6
    for kind in ("generic", "same span", "tilted"):
        for weighted in (False, True):
            if kind == "generic":
                a, b = complex_normal(rng, m, n), complex_normal(rng, m, n)
            elif kind == "same span":
                a = complex_normal(rng, m, n)
                b = matmul(a, complex_normal(rng, n, n))
            else:
                a, b = tilted_pair(rng, m, n, 1e-4)
            fac = hpd(rng, m) if weighted else None
            correlation = verify_inequality(a, b, fac).correlation
            if weighted:
                a, b = whitened_pair(a, b, fac)
            qa, qb = (SubspaceBasis(factor_columns(x).basis()) for x in (a, b))
            bound = math.prod(column_norm_profile(qa, qb))
            assert correlation <= bound * (1.0 + 1e-14), (kind, weighted)


def test_correlation_past_unit_slack_raises(tmp_path, monkeypatch, capsys):
    # an LU that reads |det(Qa*Qb)| as 1 + 1e-9 is past the 1e-10 slack, so
    # the correlation raises, naming the regime, instead of being clamped to 1
    rng = np.random.default_rng(97)
    a = complex_normal(rng, 12, 6)
    b = matmul(a, complex_normal(rng, 6, 6))
    save_matrix(tmp_path / "a.mat", a)
    save_matrix(tmp_path / "b.mat", b)
    original = inequality.log_det
    monkeypatch.setattr(
        inequality, "log_det", lambda mat: original(mat)._replace(log_magnitude=math.log1p(1e-9))
    )
    message = r"^case FullRankSameSpan: \|det\(Qa\*Qb\)\| = .* exceeds 1 \+ 1e-10$"
    with pytest.raises(InequalityViolation, match=message):
        verify_inequality(a, b)
    assert run(["verify", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]) == 3
    assert re.match(message, capsys.readouterr().err.removeprefix("invariant violation: "))


def test_column_norm_past_unit_slack_raises(monkeypatch):
    # squared column norms read 1e-8 high put the unit columns of a
    # same-span overlap past the 1e-10 slack
    rng = np.random.default_rng(98)
    a = complex_normal(rng, 12, 6)
    b = matmul(a, complex_normal(rng, 6, 6))
    qa, qb = (SubspaceBasis(factor_columns(x).basis()) for x in (a, b))
    original = oracles.column_squares
    monkeypatch.setattr(oracles, "column_squares", lambda x: original(x) * (1.0 + 1e-8))
    with pytest.raises(OracleError, match="column 0 of U\\*V has norm"):
        column_norm_profile(qa, qb)


@pytest.mark.xfail(
    strict=True,
    reason="the LU of A*B = A*A C squares the condition number of A, so its "
    "left side is off by far more than the equality tolerance",
)
def test_ill_conditioned_same_span_verifies(tmp_path):
    # B = AC with sigma_min / sigma_max of A at 1e-6 or 1e-4: FullRankSameSpan,
    # yet verify exits 3 because the left side exceeds the right, by ~4e-5
    # and ~6e-9 in log
    codes = []
    for low in (-6.0, -4.0):
        rng = np.random.default_rng(94)
        u = np.linalg.qr(complex_normal(rng, 12, 12))[0][:, :6]
        v = np.linalg.qr(complex_normal(rng, 6, 6))[0]
        a = (u * np.logspace(0.0, low, 6)) @ v
        b = a @ complex_normal(rng, 6, 6)
        assert inequality._verdict(a, b, None, EQUALITY_TOL).tag is CaseTag.FULL_RANK_SAME_SPAN
        save_matrix(tmp_path / "a.mat", a)
        save_matrix(tmp_path / "b.mat", b)
        codes.append(run(["verify", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]))
    assert codes == [0, 0]


def defect_d_files(tmp_path):
    """A 12x6 same-span pair B = AC with sigma_min / sigma_max of A at 1e-8,
    saved for the CLI.  LU of A*B = A*A C crosses its pivot cutoff here, so
    the left side comes out zero beside a positive right side."""
    rng = np.random.default_rng(95)
    u = np.linalg.qr(complex_normal(rng, 12, 12))[0][:, :6]
    v = np.linalg.qr(complex_normal(rng, 6, 6))[0]
    a = (u * np.logspace(0.0, -8.0, 6)) @ v
    b = a @ complex_normal(rng, 6, 6)
    assert inequality._verdict(a, b, None, EQUALITY_TOL).tag is CaseTag.FULL_RANK_SAME_SPAN
    save_matrix(tmp_path / "a.mat", a)
    save_matrix(tmp_path / "b.mat", b)
    return ["verify", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]


def test_equality_contract_rejects_a_zero_side_beside_a_positive_one():
    report = CsReport(
        case_tag=CaseTag.FULL_RANK_SAME_SPAN,
        lhs_log=SignedLogDet.of_zero(),
        rhs_log=SignedLogDet(1.0 + 0j, -193.6),
        correlation=1.0,
        relative_gap=1.0,
        tol_used=1e-9,
    )
    with pytest.raises(InequalityViolation, match="relative gap is 1.0"):
        enforce_equality_contract(report)
    # the contract's bound is tol itself: a gap of 1.5 tol raises, 0.5 tol passes
    for gap, raises in (1.5e-9, True), (0.5e-9, False):
        report = CsReport(
            case_tag=CaseTag.FULL_RANK_SAME_SPAN,
            lhs_log=SignedLogDet(1.0 + 0j, -193.6 + math.log1p(-gap)),
            rhs_log=SignedLogDet(1.0 + 0j, -193.6),
            correlation=1.0,
            relative_gap=gap,
            tol_used=1e-9,
        )
        assert report.equality
        if raises:
            with pytest.raises(InequalityViolation, match="demands equality"):
                enforce_equality_contract(report)
        else:
            enforce_equality_contract(report)


def test_ill_conditioned_same_span_never_passes_with_a_zero_side(tmp_path, capsys):
    # a FullRankSameSpan verdict promises both sides positive; printing a
    # zero left side and exiting 0 would hide the broken LU
    code = run(defect_d_files(tmp_path))
    out = capsys.readouterr().out
    assert not (code == 0 and "lhs log |det(A*MB)|^2: zero" in out), out


@pytest.mark.xfail(
    strict=True,
    reason="the LU of A*B = A*A C crosses its pivot cutoff, so verify reports "
    "a zero left side and exits 3",
)
def test_ill_conditioned_same_span_has_a_positive_left_side(tmp_path, capsys):
    assert run(defect_d_files(tmp_path)) == 0
    assert "lhs log |det(A*MB)|^2: zero" not in capsys.readouterr().out


@pytest.mark.xfail(
    strict=True,
    reason="the pivoted QR's squared column norms overflow or underflow at "
    "1e±160 and 2^±600, so the rank test reads a scaled strict pair as "
    "RankDeficientZero and a NaN warning leaks from the Householder step; "
    "a square pair at 2^510 (about 3.4e153) breaks its equality contract "
    "(defect C, ROADMAP item 4)",
)
def test_scaled_strict_pair_keeps_its_tag():
    # the regime does not depend on a common scale of A and B, so a 12x6
    # strict pair keeps its tag however far it is scaled within range, and
    # a 4x4 pair stays SquareEqual
    rng = np.random.default_rng(95)
    strict = complex_normal(rng, 12, 6), complex_normal(rng, 12, 6)
    rng = np.random.default_rng(3)
    square = complex_normal(rng, 4, 4), complex_normal(rng, 4, 4)
    inputs = [(strict, s, CaseTag.FULL_RANK_STRICT) for s in (2.0**600, 2.0**-600, 1e160, 1e-160)]
    inputs.append((square, 2.0**510, CaseTag.SQUARE_EQUAL))
    for (a, b), _, tag in inputs:
        assert verify_inequality(a, b).case_tag is tag
    tags = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        for (a, b), scale, _ in inputs:
            tags[a.shape, scale] = verify_inequality(scale * a, scale * b).case_tag
    assert tags == {(a.shape, scale): tag for (a, _), scale, tag in inputs}
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
