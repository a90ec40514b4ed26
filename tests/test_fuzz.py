"""Fuzz harness: config validation, ensemble targeting, determinism, and the
violation path under an impossible tolerance."""

import numpy as np
import pytest

from detcs import CaseTag, FuzzConfig, classify_case, conj_transpose, matmul, run_fuzz
from detcs.fuzz import ENSEMBLES, check_instance, draw_instance, trial_rng
from detcs.linalg import factor_columns


def test_config_validation():
    FuzzConfig(trials=1, seed=0)
    with pytest.raises(ValueError):
        FuzzConfig(trials=0, seed=0)
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=-1)
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=2**64)
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=0, m_max=0)
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=0, ensembles=())
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=0, ensembles=("ginibre", "cauchy"))
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=0, ensembles=("ginibre", "ginibre"))
    for tol in (0.0, -1.0, float("nan"), float("inf"), 1.0, 20.0):
        with pytest.raises(ValueError):
            FuzzConfig(trials=1, seed=0, tol=tol)


def test_trial_streams_are_reproducible_and_subset_independent():
    for ensemble in ENSEMBLES:
        one = draw_instance(ensemble, trial_rng(5, ensemble, 3), 8, 8)
        two = draw_instance(ensemble, trial_rng(5, ensemble, 3), 8, 8)
        assert np.array_equal(one.a, two.a)
        assert np.array_equal(one.b, two.b)
        other = draw_instance(ensemble, trial_rng(5, ensemble, 4), 8, 8)
        assert one.a.shape != other.a.shape or not np.array_equal(one.a, other.a)


def test_ginibre_draw_respects_bounds():
    for t in range(30):
        inst = draw_instance("ginibre", trial_rng(6, "ginibre", t), 4, 3)
        m, n = inst.a.shape
        assert 1 <= m <= 4 and 1 <= n <= 3
        assert inst.a.shape == inst.b.shape
        assert inst.m_fac is None


def test_rank_deficient_draw_is_deficient():
    for t in range(30):
        inst = draw_instance("rank_deficient", trial_rng(7, "rank_deficient", t), 8, 8)
        m, n = inst.a.shape
        assert m > n >= 2
        assert min(factor_columns(inst.a).rank, factor_columns(inst.b).rank) < n


def test_shared_span_draw_shares_span():
    for t in range(30):
        inst = draw_instance("shared_span", trial_rng(8, "shared_span", t), 8, 8)
        m, n = inst.a.shape
        assert m >= n
        tag = classify_case(inst.a, inst.b)
        assert tag in (CaseTag.SQUARE_EQUAL, CaseTag.FULL_RANK_SAME_SPAN)


def test_weighted_draw_builds_valid_weight():
    for t in range(20):
        inst = draw_instance("weighted", trial_rng(9, "weighted", t), 6, 6)
        fac = inst.m_fac
        assert fac is not None
        recon = matmul(conj_transpose(fac.w_factor), fac.w_factor)
        assert np.linalg.norm(recon - fac.m_matrix) <= 1e-11 * np.linalg.norm(fac.m_matrix)


def test_tiny_shapes_pigeonhole_to_wide_or_square():
    summary = run_fuzz(FuzzConfig(trials=40, seed=3, m_max=1, n_max=3))
    assert summary.passed
    for st in summary.stats:
        seen = {tag for tag, count in st.tag_counts.items() if count}
        assert seen <= {CaseTag.WIDE_EQUAL_ZERO.value, CaseTag.SQUARE_EQUAL.value}


def test_small_run_passes_and_counts_add_up():
    summary = run_fuzz(FuzzConfig(trials=25, seed=4))
    assert summary.passed
    assert summary.total_trials == 25 * len(ENSEMBLES)
    for st in summary.stats:
        assert st.passes == 25
        assert st.violations == 0
        assert sum(st.tag_counts.values()) == 25


def test_check_instance_accepts_sane_draws():
    for ensemble in ENSEMBLES:
        inst = draw_instance(ensemble, trial_rng(10, ensemble, 0), 6, 6)
        report = check_instance(inst, 1e-9)
        assert report.equality == report.case_tag.implies_equality()


def test_impossible_tolerance_surfaces_violations():
    summary = run_fuzz(FuzzConfig(trials=30, seed=7, ensembles=("shared_span",), tol=1e-17))
    assert not summary.passed
    assert summary.violations
    v = summary.violations[0]
    assert v.ensemble == "shared_span"
    assert "gap" in v.message or "slack" in v.message
    # the recorded instance really is the drawn one
    again = draw_instance("shared_span", trial_rng(7, "shared_span", v.trial), 8, 8)
    assert np.array_equal(v.instance.a, again.a)
    assert np.array_equal(v.instance.b, again.b)
