"""Reference-route tests: cofactor determinants, naive products, Jacobi
angles, and the bilinearity-defect search."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from detcs import (
    ENSEMBLES,
    EQUALITY_TOL,
    OracleError,
    SubspaceBasis,
    WrongRegime,
    conj_transpose,
    det_correlation,
    inequality,
    log_det,
    matmul,
    oracles,
    verify_inequality,
)
from detcs.fuzz import complex_normal, draw_instance, trial_rng
from detcs.linalg import factor_columns
from detcs.oracles import (
    COFACTOR_MAX_N,
    check_cosine_product,
    check_gram_dets,
    det_cofactor,
    find_bilinearity_counterexample,
    hermitian_eigenvalues,
    jacobi_sweep,
    matmul_naive,
    principal_angle_cosines,
    verdict_angles,
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
    with pytest.raises(OracleError):
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


def test_jacobi_offdiagonal_mass_decreases_per_sweep():
    rng = np.random.default_rng(32)
    p = complex_normal(rng, 6, 6)
    w = matmul(conj_transpose(p), p)
    masses = []
    for _ in range(6):
        masses.append(jacobi_sweep(w, 0.0))
    for before, after in zip(masses, masses[1:]):
        assert after <= before


def test_principal_angles_identical_bases():
    rng = np.random.default_rng(33)
    q = SubspaceBasis(factor_columns(complex_normal(rng, 6, 3)).basis())
    angles = principal_angle_cosines(q, q)
    assert_allclose(angles.cosines, np.ones(3), rtol=0, atol=1e-12)


def test_principal_angles_orthogonal_spans():
    u = SubspaceBasis(np.eye(4, 2, dtype=complex))
    v = np.zeros((4, 2), dtype=complex)
    v[2, 0] = 1.0
    v[3, 1] = 1.0
    angles = principal_angle_cosines(u, SubspaceBasis(v))
    assert angles.cosines == (0.0, 0.0)


def test_principal_angles_half_tilted_plane():
    # span{e1, e2} against span{e1, (e2+e3)/sqrt(2)} in C^3: cosines 1, 1/sqrt(2)
    u = SubspaceBasis(np.eye(3, 2, dtype=complex))
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = v[2, 1] = 1.0 / np.sqrt(2.0)
    angles = principal_angle_cosines(u, SubspaceBasis(v))
    assert_allclose(angles.cosines, [1.0, 1.0 / np.sqrt(2.0)], rtol=0, atol=1e-12)


def test_principal_angles_sorted_and_product_matches_correlation():
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 6))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        qa = SubspaceBasis(factor_columns(a).basis())
        qb = SubspaceBasis(factor_columns(b).basis())
        angles = principal_angle_cosines(qa, qb)
        assert list(angles.cosines) == sorted(angles.cosines, reverse=True)
        assert abs(angles.correlation() - det_correlation(a, b)) <= 1e-9


def test_principal_angles_regime_and_shape_errors():
    rng = np.random.default_rng(35)
    square = SubspaceBasis(factor_columns(complex_normal(rng, 3, 3)).basis())
    with pytest.raises(WrongRegime):
        principal_angle_cosines(square, square)
    tall = SubspaceBasis(factor_columns(complex_normal(rng, 5, 2)).basis())
    other = SubspaceBasis(factor_columns(complex_normal(rng, 5, 3)).basis())
    with pytest.raises(ValueError):
        principal_angle_cosines(tall, other)


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


def test_gram_check_forms_no_product_past_the_cofactor_limit(count_calls):
    # the size guard reads the pair's column count before any product: at
    # 64 x 32 nothing is formed, at the limit all three Gram products are
    # formed once and checked, and no LU runs
    rng = np.random.default_rng(63)
    calls = count_calls(oracles, "matmul", "det_cofactor")
    checked = {"matmul": 3, "det_cofactor": 3}
    for m, n, expected in (64, 32, {}), (12, COFACTOR_MAX_N + 1, {}), (12, COFACTOR_MAX_N, checked):
        a, b = complex_normal(rng, m, n), complex_normal(rng, m, n)
        report = verify_inequality(a, b)
        calls.clear()
        check_gram_dets(a, b, report.lhs_log, report.rhs_log)
        assert calls == expected, (m, n)


def test_gram_check_passes_fuzz_traffic():
    # the audit of verify --check on the first 250 draws of each ensemble at
    # seed 7, wherever the cofactor oracle reaches (n <= 6)
    for ensemble in ENSEMBLES:
        for trial in range(250):
            inst = draw_instance(ensemble, trial_rng(7, ensemble, trial), 8, 8)
            if inst.a.shape[1] > COFACTOR_MAX_N:
                continue
            v = inequality._verdict(inst.a, inst.b, inst.m_fac, EQUALITY_TOL)
            report = inequality._report(v)
            check_gram_dets(v.a, v.b, report.lhs_log, report.rhs_log)
            if report.correlation is not None:
                check_cosine_product(verdict_angles(v.fa, v.qb).correlation(), report.correlation)
