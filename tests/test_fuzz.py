"""Fuzz harness: config validation, ensemble targeting, determinism, and the
violation path under an impossible tolerance."""

import numpy as np
import pytest

from detcs import CaseTag, conj_transpose, matmul, verify_inequality
from detcs.fuzz import (
    ENSEMBLES,
    FuzzConfig,
    check_instance,
    complex_normal,
    draw_instance,
    run_fuzz,
    trial_rng,
)
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


def test_config_counts_must_be_integers():
    # a fractional count would reach range() and the trial seeds, or print a
    # fractional size bound in the fuzz header
    for field in ("trials", "seed", "m_max", "n_max"):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            FuzzConfig(**{"trials": 1, "seed": 0, field: 2.5})
    with pytest.raises(ValueError, match="trials must be an integer"):
        FuzzConfig(trials="2", seed=0)
    # operator.index(True) is 1, so a bool would run as a count and print
    # as True in the fuzz header
    for field in ("trials", "seed", "m_max", "n_max"):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {flag!r}"):
                FuzzConfig(**{"trials": 1, "seed": 0, field: flag})
    # numpy integers are integers
    config = FuzzConfig(trials=np.int64(2), seed=np.uint64(7), m_max=np.int32(3), n_max=np.int8(2))
    assert run_fuzz(config).total_trials == 2 * len(ENSEMBLES)


def test_trial_streams_are_reproducible_and_subset_independent():
    for ensemble in ENSEMBLES:
        one = draw_instance(ensemble, trial_rng(5, ensemble, 3), 8, 8)
        two = draw_instance(ensemble, trial_rng(5, ensemble, 3), 8, 8)
        assert np.array_equal(one.a, two.a)
        assert np.array_equal(one.b, two.b)
        other = draw_instance(ensemble, trial_rng(5, ensemble, 4), 8, 8)
        assert one.a.shape != other.a.shape or not np.array_equal(one.a, other.a)


def test_config_refuses_a_bare_ensemble_name():
    # a string is a sequence of its characters, which named the unknown
    # ensembles 'g', 'i', 'n', ...; the refusal shows the tuple form
    with pytest.raises(ValueError, match=r"tuple of names, such as \('ginibre',\)$"):
        FuzzConfig(trials=1, seed=0, ensembles="ginibre")
    assert run_fuzz(FuzzConfig(trials=1, seed=0, ensembles=("ginibre",))).total_trials == 1


def test_unknown_ensemble_draws_nothing():
    with pytest.raises(ValueError, match="unknown ensemble 'nope'"):
        draw_instance("nope", trial_rng(0, "ginibre", 0), 8, 8)


def test_ginibre_draw_respects_bounds():
    for t in range(30):
        inst = draw_instance("ginibre", trial_rng(6, "ginibre", t), 4, 3)
        m, n = inst.a.shape
        assert 1 <= m <= 4 and 1 <= n <= 3
        assert inst.a.shape == inst.b.shape
        assert inst.m_fac is None


def test_rank_deficient_draw_is_deficient():
    deficient = set()
    for t in range(30):
        inst = draw_instance("rank_deficient", trial_rng(7, "rank_deficient", t), 8, 8)
        m, n = inst.a.shape
        assert m > n >= 2
        which = (factor_columns(inst.a).rank < n, factor_columns(inst.b).rank < n)
        assert any(which)
        deficient.add(which)
    # A alone (trial 0), B alone (trial 5) and both (trial 1) are drawn
    assert deficient == {(True, False), (False, True), (True, True)}


def test_worst_slack_is_the_largest_slack_between_positive_sides():
    config = FuzzConfig(trials=30, seed=7)
    for st in run_fuzz(config).stats:
        slacks = []
        for t in range(config.trials):
            report = check_instance(draw_instance(st.name, trial_rng(7, st.name, t), 8, 8), config.tol)
            if not report.lhs_log.zero:
                slacks.append(report.lhs_log.log_magnitude - report.rhs_log.log_magnitude)
        assert st.worst_slack == max(slacks, default=float("-inf")), st.name


def test_shared_span_draw_shares_span():
    for t in range(30):
        inst = draw_instance("shared_span", trial_rng(8, "shared_span", t), 8, 8)
        m, n = inst.a.shape
        assert m >= n
        tag = verify_inequality(inst.a, inst.b).case_tag
        assert tag in (CaseTag.SQUARE_EQUAL, CaseTag.FULL_RANK_SAME_SPAN)


def test_weighted_draw_builds_valid_weight():
    for t in range(20):
        inst = draw_instance("weighted", trial_rng(9, "weighted", t), 6, 6)
        fac = inst.m_fac
        assert fac is not None
        recon = matmul(conj_transpose(fac.w_factor), fac.w_factor)
        assert np.linalg.norm(recon - fac.m_matrix) <= 1e-11 * np.linalg.norm(fac.m_matrix)
        # the weight is G*G + 1e-3 I for the G the trial's stream draws
        # after the shape and both operands
        rng = trial_rng(9, "weighted", t)
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        assert np.array_equal(complex_normal(rng, m, n), inst.a)
        assert np.array_equal(complex_normal(rng, m, n), inst.b)
        g = complex_normal(rng, m, m)
        expected = matmul(conj_transpose(g), g) + 1e-3 * np.eye(m)
        assert np.array_equal(fac.m_matrix, expected)


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
        assert sum(st.tag_counts.values()) == 25


def test_check_instance_accepts_sane_draws():
    for ensemble in ENSEMBLES:
        inst = draw_instance(ensemble, trial_rng(10, ensemble, 0), 6, 6)
        report = check_instance(inst, 1e-9)
        assert report.equality == (report.case_tag is not CaseTag.FULL_RANK_STRICT)


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
