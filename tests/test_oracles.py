"""Reference-route tests: cofactor and exact determinants, naive products,
Jacobi angles, and the bilinearity-defect search."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from detcs import (
    EQUALITY_TOL,
    NotHermitian,
    OracleError,
    SignedLogDet,
    conj_transpose,
    inequality,
    log_det,
    matmul,
    oracles,
    verify_inequality,
)
from detcs.fuzz import ENSEMBLES, complex_normal, draw_instance, trial_rng
from detcs.linalg import SubspaceBasis, factor_columns, frobenius_norm
from detcs.oracles import (
    EXACT_MAX_N,
    JACOBI_MAX_SWEEPS,
    check_correlation,
    check_gram_dets,
    column_norm_profile,
    det_bareiss,
    det_cofactor,
    find_bilinearity_counterexample,
    hermitian_eigenvalues,
    jacobi_sweep,
    matmul_naive,
    principal_angle_cosines,
)


def test_det_cofactor_examples():
    assert det_cofactor(np.eye(4, dtype=complex)) == 1.0 + 0j
    assert det_cofactor(np.diag([2.0, 3.0]).astype(complex)) == 6.0 + 0j
    assert det_cofactor(np.array([[5j]])) == 5j


def test_det_cofactor_matches_plain_laplace():
    # the memoized expansion must give the bits of a plain recursive one
    def laplace(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0j
        sign = 1.0
        for j in range(len(rows)):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += sign * rows[0][j] * laplace(minor)
            sign = -sign
        return total

    rng = np.random.default_rng(24)
    for n in range(1, 7):
        for _ in range(5):
            a = complex_normal(rng, n, n)
            assert det_cofactor(a) == laplace(a.tolist())


def test_det_cofactor_scale_guard():
    # a refused input is a caller's error, not an oracle failure
    with pytest.raises(ValueError, match="limited to n <= 6"):
        det_cofactor(np.eye(7, dtype=complex))


def test_det_cofactor_requires_square():
    with pytest.raises(ValueError):
        det_cofactor(np.zeros((2, 3), dtype=complex))


def test_det_cofactor_agrees_with_lu():
    rng = np.random.default_rng(30)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = complex_normal(rng, n, n)
        ref = det_cofactor(a)
        d = log_det(a)
        assert abs(d.value() - ref) <= 1e-10 * abs(ref)


def test_matmul_naive_shape_check():
    with pytest.raises(ValueError):
        matmul_naive(np.zeros((2, 2), dtype=complex), np.zeros((3, 2), dtype=complex))


def test_hermitian_eigenvalues_diagonal():
    assert hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex)) == [1.0, 2.0, 3.0]


def test_hermitian_eigenvalues_zero_and_scalar():
    assert hermitian_eigenvalues(np.zeros((2, 2), dtype=complex)) == [0.0, 0.0]
    assert hermitian_eigenvalues(np.array([[4.0 + 0j]])) == [4.0]


def test_hermitian_eigenvalues_match_numpy():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        p = complex_normal(rng, n, n)
        h = matmul(conj_transpose(p), p)
        ours = np.array(hermitian_eigenvalues(h))
        ref = np.linalg.eigvalsh(h)
        assert_allclose(ours, ref, rtol=0, atol=1e-11 * max(1.0, float(ref.max())))
    # clusters 1e-11 and 1e-12 apart: Jacobi must drive the off-diagonal
    # mass far enough down to resolve them
    spectrum = np.array([1.0, 1.0 + 1e-11, 1.0 + 1.1e-11, 2.0, 2.0 + 1e-12, 3.0])
    for seed in range(6):
        u = factor_columns(complex_normal(np.random.default_rng(seed), 6, 6)).basis()
        h = matmul(u * spectrum, conj_transpose(u))
        h = 0.5 * (h + conj_transpose(h))
        ours = np.array(hermitian_eigenvalues(h))
        assert_allclose(ours, np.linalg.eigvalsh(h), rtol=0, atol=2e-12)
    # an exactly zero off-diagonal pair is skipped: rotating it divides 0 by 0
    h = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
    assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h), rtol=0, atol=1e-14)


def test_hermitian_eigenvalues_of_indefinite_matrices():
    # a traceless matrix has no scale in its trace: stopping at 1e-13 * |trace|
    # rotated into subnormal off-diagonals, overflowed (a RuntimeWarning,
    # an error here) or ran out of sweeps, an OracleError on valid input
    h = np.array([[0, 1j, 0], [-1j, 0, 1], [0, 1, 0]])
    root2 = 2.0**0.5
    assert_allclose(hermitian_eigenvalues(h), [-root2, 0.0, root2], rtol=0, atol=1e-15)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(3, 8))
        g = complex_normal(rng, n, n)
        h = g + conj_transpose(g)
        h -= np.eye(n) * (np.trace(h).real / n)
        ref = np.linalg.eigvalsh(h)
        ours = hermitian_eigenvalues(h)
        assert_allclose(ours, ref, rtol=0, atol=2e-15 * np.abs(ref).max())


def test_hermitian_eigenvalues_require_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((2, 3), dtype=complex))


def test_hermitian_eigenvalues_refuse_a_non_hermitian_matrix():
    # the rotations read one triangle, so unchecked both of these would
    # return [-1.0, 3.0]; their eigenvalues are 1, 1 and 1 - 2j, 1 + 2j
    for h in ([[1, 2], [0, 1]], [[1, 2j], [2j, 1]]):
        with pytest.raises(NotHermitian, match=r"\|H - H\*\|"):
            hermitian_eigenvalues(h)


def test_jacobi_stops_on_the_sweeps_own_test():
    # the off-diagonal pair's magnitude reads 1e-13 * 8a by scalar abs and
    # one ulp above it by numpy's vector abs: a separate vector scan never
    # saw convergence while each sweep rotated nothing, and raised
    # OracleError after 60 sweeps on this valid matrix
    a = 786868426640.5592
    h = a * np.eye(8, dtype=complex)
    h[0, 1] = -0.5442589828573099 - 0.31630015636915454j
    h[1, 0] = h[0, 1].conjugate()
    assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h), rtol=1e-12, atol=0)


def test_jacobi_refuses_to_stop_short_of_convergence(monkeypatch):
    monkeypatch.setattr(oracles, "JACOBI_MAX_SWEEPS", 1)
    p = complex_normal(np.random.default_rng(36), 6, 6)
    with pytest.raises(OracleError, match="failed to converge"):
        hermitian_eigenvalues(matmul(conj_transpose(p), p))


def test_jacobi_offdiagonal_mass_decreases_per_sweep():
    rng = np.random.default_rng(32)
    p = complex_normal(rng, 6, 6)
    w = matmul(conj_transpose(p), p)
    threshold = 1e-13 * frobenius_norm(w)
    masses, counts = [], []
    for _ in range(JACOBI_MAX_SWEEPS):
        counts.append(jacobi_sweep(w, threshold))
        masses.append(frobenius_norm(w - np.diag(np.diagonal(w))))
        if not counts[-1]:
            break
    for before, after in zip(masses, masses[1:]):
        assert after <= before
    # a sweep that rotates nothing comes within the budget
    assert counts[-1] == 0, counts


def test_principal_angles_identical_bases():
    rng = np.random.default_rng(33)
    q = SubspaceBasis(factor_columns(complex_normal(rng, 6, 3)).basis())
    assert_allclose(principal_angle_cosines(q, q), np.ones(3), rtol=0, atol=1e-12)


def test_principal_angles_orthogonal_spans():
    u = SubspaceBasis(np.eye(4, 2, dtype=complex))
    v = np.zeros((4, 2), dtype=complex)
    v[2, 0] = 1.0
    v[3, 1] = 1.0
    assert principal_angle_cosines(u, SubspaceBasis(v)) == (0.0, 0.0)


def test_principal_angles_half_tilted_plane():
    # span{e1, e2} against span{e1, (e2+e3)/sqrt(2)} in C^3: cosines 1, 1/sqrt(2)
    u = SubspaceBasis(np.eye(3, 2, dtype=complex))
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = v[2, 1] = 1.0 / np.sqrt(2.0)
    cosines = principal_angle_cosines(u, SubspaceBasis(v))
    assert_allclose(cosines, [1.0, 1.0 / np.sqrt(2.0)], rtol=0, atol=1e-12)


def test_principal_angles_sorted_and_product_matches_correlation():
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 6))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        qa = SubspaceBasis(factor_columns(a).basis())
        qb = SubspaceBasis(factor_columns(b).basis())
        cosines = principal_angle_cosines(qa, qb)
        assert type(cosines) is tuple
        assert list(cosines) == sorted(cosines, reverse=True)
        assert abs(math.prod(cosines) - verify_inequality(a, b).correlation) <= 1e-9


def test_principal_angles_read_a_negative_squared_cosine_as_zero():
    # Qa and Qb share one direction and are orthogonal across the other, so
    # one squared cosine is exactly 0; Jacobi lands it just below 0 for
    # about a third of the seeds
    negatives = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = factor_columns(complex_normal(rng, 3, 3)).basis()
        r = factor_columns(complex_normal(rng, 2, 2)).basis()
        qa, qb = u[:, :2], matmul(u[:, [0, 2]], r)
        p = matmul(conj_transpose(qa), qb)
        if hermitian_eigenvalues(matmul(conj_transpose(p), p))[0] < 0.0:
            negatives += 1
            cosines = principal_angle_cosines(SubspaceBasis(qa), SubspaceBasis(qb))
            assert cosines[1] == 0.0
    assert negatives > 0


def test_principal_angles_regime_and_shape_errors():
    rng = np.random.default_rng(35)
    square = SubspaceBasis(factor_columns(complex_normal(rng, 3, 3)).basis())
    with pytest.raises(ValueError, match="principal angles are defined only for m > n, got 3 x 3"):
        principal_angle_cosines(square, square)
    tall = SubspaceBasis(factor_columns(complex_normal(rng, 5, 2)).basis())
    other = SubspaceBasis(factor_columns(complex_normal(rng, 5, 3)).basis())
    with pytest.raises(ValueError):
        principal_angle_cosines(tall, other)


def test_a_raw_basis_names_subspace_basis():
    # both angle routes pair their bases through one check: a raw Q is
    # refused by its type, and a square pair with one message
    q = np.eye(4, 2, dtype=complex)
    square = SubspaceBasis(np.eye(2, dtype=complex))
    for route in (principal_angle_cosines, column_norm_profile):
        for pair in ((q, SubspaceBasis(q)), (SubspaceBasis(q), q)):
            with pytest.raises(TypeError, match=r"pass each basis as SubspaceBasis\(Q\), not as ndarray"):
                route(*pair)
        with pytest.raises(ValueError, match="principal angles are defined only for m > n, got 2 x 2"):
            route(square, square)


def test_bilinearity_defect_of_identity_triple():
    # det((I+I)*I) = 4 against det(I*I) + det(I*I) = 2: defect exactly 2
    eye = np.eye(2, dtype=complex)
    joint = det_cofactor(matmul(conj_transpose(eye + eye), eye))
    split = det_cofactor(eye) + det_cofactor(eye)
    assert abs(joint - split) == 2.0


def test_bilinearity_search_finds_witness():
    witness = find_bilinearity_counterexample(42)
    assert witness.discrepancy > 0.1
    n = witness.b.shape[0]
    assert n >= 2
    joint = det_cofactor(matmul(conj_transpose(witness.a1 + witness.a2), witness.b))
    split = det_cofactor(matmul(conj_transpose(witness.a1), witness.b)) + det_cofactor(
        matmul(conj_transpose(witness.a2), witness.b)
    )
    assert abs(abs(joint - split) - witness.discrepancy) == 0.0


def test_bilinearity_search_is_deterministic():
    w1 = find_bilinearity_counterexample(42)
    w2 = find_bilinearity_counterexample(42)
    assert np.array_equal(w1.a1, w2.a1)
    assert np.array_equal(w1.a2, w2.a2)
    assert np.array_equal(w1.b, w2.b)
    assert w1.discrepancy == w2.discrepancy


def test_bilinearity_search_gives_up_without_a_witness(monkeypatch):
    monkeypatch.setattr(oracles, "SEARCH_TRIALS", 3)
    monkeypatch.setattr(oracles, "det_cofactor", lambda mat: 0j)
    with pytest.raises(OracleError, match="no bilinearity defect above 0.1 in 3 trials"):
        find_bilinearity_counterexample(42)


def test_gram_check_forms_no_product_past_the_exact_limit(count_calls):
    # the size guard reads the pair's column count before any product: at
    # 64 x 32 and one column past the limit nothing is formed; at the limit
    # each operand is made exact once and each of the three Gram products
    # gets one exact determinant, with no floating product or determinant
    rng = np.random.default_rng(63)
    calls = count_calls(oracles, "_integer_form", "det_bareiss", "det_cofactor", "matmul")
    checked = {"_integer_form": 2, "det_bareiss": 3}
    for m, n, expected in (64, 32, {}), (12, EXACT_MAX_N + 1, {}), (12, EXACT_MAX_N, checked):
        a, b = complex_normal(rng, m, n), complex_normal(rng, m, n)
        report = verify_inequality(a, b)
        calls.clear()
        check_gram_dets(a, b, report.lhs_log, report.rhs_log)
        assert calls == expected, (m, n)


def test_exact_det_is_the_squared_cofactor_det_on_gaussian_integers():
    # on small Gaussian-integer matrices every cofactor product is an exact
    # float, so both routes are exact: the real form's Bareiss determinant
    # is |det|^2 to the last unit.  The draws hold 31 zero leads, which
    # take a later pivot row, and one singular matrix
    rng = np.random.default_rng(41)
    for trial in range(200):
        n = 1 + trial % 5
        x = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
        real_form, e = oracles._integer_form(x)
        d = det_cofactor(x)
        assert e == 0
        assert det_bareiss(real_form) == int(d.real) ** 2 + int(d.imag) ** 2, trial


def test_gram_check_refuses_a_zero_flag_on_a_small_positive_det():
    # B's third column is orthogonal to span(A) but for a 1e-6 tilt, so
    # det(A*B) is about 2e-7 * scale^3: small, yet far above the 1e-8 that a
    # left side flagged zero may leave
    rng = np.random.default_rng(0)
    q = factor_columns(complex_normal(rng, 6, 6)).basis()
    a = matmul(q[:, :3], complex_normal(rng, 3, 3))
    b = complex_normal(rng, 6, 3)
    b[:, 2] = q[:, 3] + 1e-6 * q[:, 0]
    report = verify_inequality(a, b)
    check_gram_dets(a, b, report.lhs_log, report.rhs_log)
    with pytest.raises(OracleError, match="lhs is zero"):
        check_gram_dets(a, b, SignedLogDet.of_zero(), report.rhs_log)


def test_gram_check_refuses_a_positive_lhs_on_an_exactly_singular_product():
    # A*B = diag(1, 0) exactly, so its exact det is 0: a left side
    # flagged positive disagrees with the oracle rather than failing its log
    a = np.eye(4, 2, dtype=complex)
    b = np.eye(4, dtype=complex)[:, [0, 2]]
    one = SignedLogDet(1.0 + 0j, 0.0)
    check_gram_dets(a, a, one, one)
    with pytest.raises(OracleError, match=r"sqrt\(lhs\) disagrees"):
        check_gram_dets(a, b, one, one)


def test_gram_check_passes_a_zero_lhs_on_a_zero_product():
    # orthogonal spans give A*B = 0 exactly: no scale to divide its zero
    # det by, and the zero left side passes
    a = np.eye(4, 2, dtype=complex)
    b = np.eye(4, dtype=complex)[:, [2, 3]]
    report = verify_inequality(a, b)
    assert report.lhs_log.zero and not report.rhs_log.zero
    check_gram_dets(a, b, report.lhs_log, report.rhs_log)


def test_gram_check_passes_fuzz_traffic():
    # the audit of verify --check on the first 250 draws of each ensemble at
    # seed 7, wherever the exact audit reaches (n <= 6)
    for ensemble in ENSEMBLES:
        for trial in range(250):
            inst = draw_instance(ensemble, trial_rng(7, ensemble, trial), 8, 8)
            if inst.a.shape[1] > EXACT_MAX_N:
                continue
            v = inequality._verdict(inst.a, inst.b, inst.m_fac, EQUALITY_TOL)
            report = inequality._report(v)
            check_gram_dets(v.a, v.b, report.lhs_log, report.rhs_log)
            if report.correlation is not None:
                check_correlation(v.fa, v.qb, report.correlation)
