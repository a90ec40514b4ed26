"""Package-level acceptance gate.

Eight independent properties, one test each.  Every test prints a single
PASS/FAIL line naming the property, so a verbose run reads as a checklist.
All randomness is seeded; every run checks the same instances.
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np

from detcs import (
    CaseTag,
    conj_transpose,
    log_det,
    matmul,
    verify_inequality,
    whitened_pair,
)
from detcs.fuzz import (
    ENSEMBLES,
    FuzzConfig,
    complex_normal,
    draw_instance,
    run_fuzz,
    trial_rng,
)
from detcs.linalg import SubspaceBasis, factor_columns, factor_lanes
from detcs.oracles import (
    column_norm_profile,
    det_cofactor,
    find_bilinearity_counterexample,
    hermitian_eigenvalues,
    principal_angle_cosines,
)


def _verdict(name: str, ok: bool) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")


def test_inequality_holds_universally():
    # 2,500 trials in each of the four ensembles, shapes up to 8 x 8,
    # default tolerance: no instance may breach the bound or its equality
    # contract
    summary = run_fuzz(FuzzConfig(trials=2500, seed=7))
    ok = summary.total_trials == 10000 and not summary.violations
    _verdict("universal inequality, 10000 mixed trials", ok)
    assert ok, [v.message for v in summary.violations][:3]


def test_case_taxonomy_is_exact():
    problems = []

    for t in range(1000):
        rng = np.random.default_rng([7, 100, t])
        m = int(rng.integers(1, 8))
        n = int(rng.integers(m + 1, 9))
        r = verify_inequality(complex_normal(rng, m, n), complex_normal(rng, m, n))
        if r.case_tag is not CaseTag.WIDE_EQUAL_ZERO or not r.equality:
            problems.append(f"wide trial {t}: {r.case_tag.value}")
        elif not (r.lhs_log.zero and r.rhs_log.zero):
            problems.append(f"wide trial {t}: sides not zero-flagged")

    for t in range(1000):
        rng = np.random.default_rng([7, 101, t])
        n = int(rng.integers(1, 9))
        r = verify_inequality(complex_normal(rng, n, n), complex_normal(rng, n, n))
        if r.case_tag is not CaseTag.SQUARE_EQUAL or r.relative_gap > 1e-10:
            problems.append(f"square trial {t}: gap {r.relative_gap!r}")

    for t in range(1000):
        rng = np.random.default_rng([7, 102, t])
        m = int(rng.integers(3, 9))
        n = int(rng.integers(2, m))
        rank = int(rng.integers(1, n))
        which = int(rng.integers(3))

        def thin(deficient):
            if deficient:
                return matmul(complex_normal(rng, m, rank), complex_normal(rng, rank, n))
            return complex_normal(rng, m, n)

        r = verify_inequality(thin(which != 1), thin(which != 0))
        if r.case_tag is not CaseTag.RANK_DEFICIENT_ZERO or not r.equality:
            problems.append(f"deficient trial {t}: {r.case_tag.value}")
        elif not (r.lhs_log.zero and r.rhs_log.zero):
            problems.append(f"deficient trial {t}: sides not zero-flagged")

    for t in range(1000):
        rng = np.random.default_rng([7, 103, t])
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m))
        a = complex_normal(rng, m, n)
        b = matmul(a, complex_normal(rng, n, n))
        r = verify_inequality(a, b)
        if r.case_tag is not CaseTag.FULL_RANK_SAME_SPAN or not r.equality:
            problems.append(f"span trial {t}: {r.case_tag.value}")
        elif r.correlation is None or abs(r.correlation - 1.0) > 1e-10:
            problems.append(f"span trial {t}: correlation {r.correlation!r}")

    strict = 0
    for t in range(1000):
        rng = np.random.default_rng([7, 104, t])
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m))
        r = verify_inequality(complex_normal(rng, m, n), complex_normal(rng, m, n))
        if r.case_tag is CaseTag.FULL_RANK_STRICT:
            strict += 1
    if strict < 999:
        problems.append(f"only {strict}/1000 generic tall pairs came out strict")

    ok = not problems
    _verdict("case taxonomy, 1000 targeted instances per clause", ok)
    assert ok, problems[:5]


def _condition_below_1e6(x) -> bool:
    eigs = hermitian_eigenvalues(matmul(conj_transpose(x), x))
    low, high = eigs[0], eigs[-1]
    return low > 0.0 and high < 1e12 * low


def test_proof_identity_links_sides_through_correlation():
    # |det(A*B)|^2 = correlation^2 det(A*A) det(B*B), compared in log
    # domain on well-conditioned full-rank tall pairs
    rng = np.random.default_rng([7, 200])
    worst = 0.0
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        if not (_condition_below_1e6(a) and _condition_below_1e6(b)):
            continue
        checked += 1
        r = verify_inequality(a, b)
        assert r.correlation is not None
        residual = abs(
            r.lhs_log.log_magnitude - (2.0 * np.log(r.correlation) + r.rhs_log.log_magnitude)
        )
        worst = max(worst, residual)
    ok = worst <= 1e-9
    _verdict("proof identity in log domain, 1000 instances", ok)
    assert ok, f"worst residual {worst!r}"


def test_correlation_and_profile_never_exceed_one():
    # replay the universal-inequality trial set; on every full-rank tall
    # instance the raw (unclamped) correlation and every column norm of
    # Qa*Qb must stay below 1 up to roundoff slack
    worst_raw = 0.0
    worst_profile = 0.0
    checked = 0
    for ensemble in ENSEMBLES:
        for t in range(2500):
            inst = draw_instance(ensemble, trial_rng(7, ensemble, t), 8, 8)
            if inst.m_fac is None:
                a, b = inst.a, inst.b
            else:
                a, b = whitened_pair(inst.a, inst.b, inst.m_fac)
            if a.shape[0] <= a.shape[1]:
                continue
            fa, fb = factor_lanes((a, b))
            if min(fa.rank, fb.rank) < a.shape[1]:
                continue
            qa, qb = fa.basis(), fb.basis()
            checked += 1
            raw = log_det(matmul(conj_transpose(qa), qb)).magnitude()
            worst_raw = max(worst_raw, raw)
            profile = column_norm_profile(SubspaceBasis(qa), SubspaceBasis(qb))
            worst_profile = max(worst_profile, max(profile))
    ok = checked > 2000 and worst_raw <= 1.0 + 1e-10 and worst_profile <= 1.0 + 1e-10
    _verdict(f"correlation and column norms bounded by one, {checked} instances", ok)
    assert ok, f"checked={checked} worst_raw={worst_raw!r} worst_profile={worst_profile!r}"


def test_determinant_and_angle_oracles_agree():
    rng = np.random.default_rng([7, 300])
    worst_det = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        mat = complex_normal(rng, n, n)
        lu = log_det(mat)
        cof = det_cofactor(mat)
        assert not lu.zero
        worst_det = max(worst_det, abs(lu.value() - cof) / abs(cof))

    rng = np.random.default_rng([7, 301])
    worst_corr = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n + 1, 13))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        corr = verify_inequality(a, b).correlation
        qa = SubspaceBasis(factor_columns(a).basis())
        qb = SubspaceBasis(factor_columns(b).basis())
        product = math.prod(principal_angle_cosines(qa, qb))
        worst_corr = max(worst_corr, abs(product - corr))

    ok = worst_det <= 1e-9 and worst_corr <= 1e-9
    _verdict("LU vs cofactor and correlation vs cosine product, 1000 each", ok)
    assert ok, f"worst_det={worst_det!r} worst_corr={worst_corr!r}"


def test_whitening_reduces_weighted_to_unweighted():
    problems = []
    for t in range(1000):
        inst = draw_instance("weighted", trial_rng(7, "weighted", t), 8, 8)
        direct = verify_inequality(inst.a, inst.b, inst.m_fac)
        wa, wb = whitened_pair(inst.a, inst.b, inst.m_fac)
        reduced = verify_inequality(wa, wb)
        if direct.case_tag is not reduced.case_tag or direct.equality != reduced.equality:
            problems.append(f"trial {t}: {direct.case_tag.value} vs {reduced.case_tag.value}")
            continue
        for side, other in ((direct.lhs_log, reduced.lhs_log), (direct.rhs_log, reduced.rhs_log)):
            if side.zero != other.zero:
                problems.append(f"trial {t}: zero flags differ")
            elif not side.zero and (
                abs(side.log_magnitude - other.log_magnitude) > 1e-9
                or abs(side.phase - other.phase) > 1e-9
            ):
                problems.append(f"trial {t}: log determinants differ")
        if abs(direct.relative_gap - reduced.relative_gap) > 1e-9:
            problems.append(f"trial {t}: gaps differ")
        if (direct.correlation is None) != (reduced.correlation is None):
            problems.append(f"trial {t}: correlation presence differs")
        elif direct.correlation is not None:
            if abs(direct.correlation - reduced.correlation) > 1e-9:
                problems.append(f"trial {t}: correlations differ")
    ok = not problems
    _verdict("weighted verdicts match whitened verdicts, 1000 instances", ok)
    assert ok, problems[:5]


def test_determinant_of_sums_is_not_bilinear():
    first = find_bilinearity_counterexample(42)
    second = find_bilinearity_counterexample(42)
    ok = (
        first.discrepancy > 0.1
        and first.discrepancy == second.discrepancy
        and np.array_equal(first.a1, second.a1)
    )
    _verdict("additivity counterexample found and reproducible", ok)
    assert ok, f"discrepancy {first.discrepancy!r}"


def test_cli_fuzz_output_is_byte_identical():
    exe = shutil.which("detcs")
    cmd = [exe] if exe else [sys.executable, "-m", "detcs"]
    cmd += ["fuzz", "--trials", "1000", "--seed", "7"]
    env = {k: v for k, v in os.environ.items() if k != "DETCS_SEED"}
    runs = [subprocess.run(cmd, capture_output=True, env=env) for _ in range(2)]
    ok = (
        all(r.returncode == 0 for r in runs)
        and runs[0].stdout == runs[1].stdout
        and b"total: 4000/4000 passed" in runs[0].stdout
    )
    _verdict("two 1000-trial command-line runs byte-identical", ok)
    assert ok, (runs[0].returncode, runs[1].returncode, runs[0].stderr[:200])
