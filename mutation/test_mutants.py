"""Mutation gate: tier-1 must notice each deliberate fault in ``src/detcs``.

Run from the root of a checkout:

    python3 -m pytest mutation

Each row of ``MUTANTS`` names a file of ``src/detcs``, an exact snippet of
it, a replacement and a verdict.  The snippet must occur exactly once, or
the row is stale and the gate fails: a change to that code updates its row.
A killed row's verdict is the tier-1 test node that kills it: the tree is
copied to a temporary directory, the snippet is replaced, and
``pytest -x -q <node>`` must fail there.  If the node passes, or no longer
exists, the row is stale too.  Any other verdict is the measured reason why
the mutant is equivalent: no test can tell it apart from the tree, so only
its snippet is checked.

One tier-1 node per killed row: about a minute on a 2-core host.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
from typing import NamedTuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EQUIVALENT = "equivalent: "


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    verdict: str


MUTANTS = (
    # the bounds and contracts of the verdict
    Mutant(
        "inequality.py",
        "if slack > math.log1p(tol):",
        "if slack > math.log1p(2 * tol):",
        "tests/test_inequality.py::test_verify_absurd_tolerance_raises_on_positive_roundoff",
    ),
    Mutant(
        "inequality.py",
        "report.relative_gap > report.tol_used:",
        "report.relative_gap > 2 * report.tol_used:",
        "tests/test_inequality.py::test_equality_contract_rejects_a_zero_side_beside_a_positive_one",
    ),
    Mutant(
        "inequality.py",
        "<= 0.5 * tol",
        "<= tol",
        "tests/test_inequality.py::test_tilt_sweep_keeps_equality_contract",
    ),
    Mutant(
        "inequality.py",
        "return raw if raw < 1.0 else 1.0",
        "return raw",
        "tests/test_inequality.py::test_correlation_is_exactly_one_when_rounding_lands_above",
    ),
    Mutant(
        "inequality.py",
        "is not CaseTag.FULL_RANK_STRICT",
        "is CaseTag.FULL_RANK_STRICT",
        "tests/test_inequality.py::test_equality_contract_passes_sane_reports",
    ),
    Mutant(
        "inequality.py",
        "2.0 * log_det(",
        "log_det(",
        "tests/test_inequality.py::test_verify_square_equality_within_tolerance",
    ),
    Mutant(
        "inequality.py",
        'f"case {v.tag.value}: log slack',
        'f"log slack',
        "tests/test_inequality.py::test_verify_absurd_tolerance_raises_on_positive_roundoff",
    ),
    Mutant(
        "inequality.py",
        'f"case {tag.value}: |det(Qa*Qb)|',
        'f"|det(Qa*Qb)|',
        "tests/test_inequality.py::test_correlation_past_unit_slack_raises",
    ),
    # the thresholds of the kernels and the oracles
    Mutant(
        "linalg.py",
        "HERMITIAN_TOL = 1e-12",
        "HERMITIAN_TOL = 1e-6",
        "tests/test_linalg.py::test_cholesky_rejects_non_hermitian",
    ),
    Mutant(
        "linalg.py",
        "RANK_TOL = 1e-10",
        "RANK_TOL = 1e-8",
        "tests/test_inequality.py::test_ill_conditioned_tall_operand_verifies",
    ),
    Mutant(
        "linalg.py",
        "ORTHO_TOL = 1e-11",
        "ORTHO_TOL = 1e-6",
        "tests/test_linalg.py::test_subspace_basis_validates",
    ),
    Mutant(
        "linalg.py",
        "threshold = SINGULARITY_TOL * scale",
        "threshold = 1e3 * SINGULARITY_TOL * scale",
        "tests/test_linalg.py::test_whole_row_elimination_is_the_block_elimination",
    ),
    Mutant(
        "linalg.py",
        "if pivot <= PD_PIVOT_TOL * diag_scale:",
        "if pivot <= 0:",
        "tests/test_linalg.py::test_cholesky_rejects_indefinite",
    ),
    Mutant(
        "oracles.py",
        "DET_AGREEMENT_RTOL = 1e-9",
        "DET_AGREEMENT_RTOL = 1e-6",
        "tests/test_cli.py::test_check_fails_on_an_lu_determinant_off_by_1e_7",
    ),
    Mutant(
        "oracles.py",
        "ZERO_DET_RTOL = 1e-8",
        "ZERO_DET_RTOL = 1e-4",
        "tests/test_oracles.py::test_gram_check_refuses_a_zero_flag_on_a_small_positive_det",
    ),
    Mutant(
        "oracles.py",
        "COSINE_PRODUCT_ATOL = 1e-9",
        "COSINE_PRODUCT_ATOL = 1e-6",
        "tests/test_cli.py::test_check_fails_on_scaled_cosines",
    ),
    Mutant(
        "oracles.py",
        "JACOBI_OFFDIAG_TOL = 1e-13",
        "JACOBI_OFFDIAG_TOL = 1e-9",
        "tests/test_oracles.py::test_hermitian_eigenvalues_match_numpy",
    ),
    Mutant(
        "oracles.py",
        "max(abs(trace), frobenius_norm(w))",
        "abs(trace)",
        "tests/test_oracles.py::test_hermitian_eigenvalues_of_indefinite_matrices",
    ),
    # fuzz draws and the fuzz summary
    Mutant(
        "fuzz.py",
        "+ 1e-3 * np.eye(m)",
        "+ np.eye(m)",
        "tests/test_fuzz.py::test_weighted_draw_builds_valid_weight",
    ),
    Mutant(
        "fuzz.py",
        "if slack > worst_slack:",
        "if slack < worst_slack:",
        "tests/test_fuzz.py::test_worst_slack_is_the_largest_slack_between_positive_sides",
    ),
    Mutant(
        "fuzz.py",
        "if isinstance(value, bool):",
        "if False:",
        "tests/test_fuzz.py::test_config_counts_must_be_integers",
    ),
    Mutant(
        "fuzz.py",
        "if which != 1:",
        "if True:",
        "tests/test_fuzz.py::test_rank_deficient_draw_is_deficient",
    ),
    Mutant(
        "fuzz.py",
        "if which != 0:",
        "if True:",
        "tests/test_fuzz.py::test_rank_deficient_draw_is_deficient",
    ),
    Mutant(
        "cli.py",
        '"n/a" if st.worst_slack == float("-inf")',
        '"n/a" if True',
        "tests/test_cli.py::test_fuzz_slack_reads_n_a_without_a_positive_pair",
    ),
    Mutant(
        "cli.py",
        '"n/a" if st.worst_slack == float("-inf")',
        '"n/a" if False',
        "tests/test_cli.py::test_fuzz_slack_reads_n_a_without_a_positive_pair",
    ),
    # a closed stdout is not bad input, whether it is found mid-run or at
    # the final flush
    Mutant(
        "cli.py",
        "    except BrokenPipeError:\n"
        "        # not bad input: stdout's reader closed it.  As the SIGPIPE note in\n"
        "        # Python's signal docs does, what is left goes to devnull, so the\n"
        "        # interpreter's final flush stays quiet; 141 is 128 + SIGPIPE\n"
        '        sys.stdout = open(os.devnull, "w")\n'
        "        return 141\n",
        "",
        "tests/test_cli.py::test_closed_stdout_is_not_bad_input",
    ),
    Mutant(
        "cli.py",
        "        sys.stdout.flush()  # a reader that is gone is found here, not at exit\n",
        "",
        "tests/test_cli.py::test_closed_stdout_is_not_bad_input",
    ),
    # the verify record: a zero side is None, printed as zero and as null
    Mutant(
        "cli.py",
        "None if report.lhs_log.zero else ",
        "",
        "tests/test_cli.py::test_verify_json_zero_sides",
    ),
    Mutant(
        "cli.py",
        "None if report.rhs_log.zero else ",
        "",
        "tests/test_cli.py::test_verify_json_zero_sides",
    ),
    Mutant(
        "cli.py",
        '"zero" if x is None else _fmt(x)',
        "_fmt(x)",
        "tests/test_cli.py::test_verify_wide_zero_sides",
    ),
    # input checks
    Mutant(
        "linalg.py",
        'np.array(entries, dtype=np.complex128, order="C")',
        "np.array(entries, dtype=np.complex128)",
        "tests/test_matrixio.py::test_round_trip_is_bit_exact",
    ),
    Mutant(
        "linalg.py",
        "if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:",
        "if False:",
        "tests/test_linalg.py::test_matmul_shape_mismatch",
    ),
    Mutant(
        "linalg.py",
        "    a = np.asarray(a, dtype=np.complex128)\n    b = np.asarray(b, dtype=np.complex128)\n",
        "",
        "tests/test_linalg.py::test_matmul_identity",
    ),
    Mutant(
        "linalg.py",
        "if not math.isfinite(scale):",
        "if False:",
        "tests/test_linalg.py::test_log_det_rejects_nonfinite",
    ),
    Mutant(
        "linalg.py",
        'if n != cols:\n            raise ValueError(f"weight matrix',
        'if False:\n            raise ValueError(f"weight matrix',
        "tests/test_linalg.py::test_cholesky_rejects_non_square",
    ),
    Mutant(
        "linalg.py",
        'if m < n:\n            raise ValueError(f"an orthonormal basis',
        'if False:\n            raise ValueError(f"an orthonormal basis',
        "tests/test_linalg.py::test_subspace_basis_validates",
    ),
    Mutant(
        "inequality.py",
        "if a.shape != b.shape:",
        "if False:",
        "tests/test_inequality.py::test_verify_rejects_bad_tol_and_shape",
    ),
    Mutant(
        "fuzz.py",
        "operator.index(value)",
        "pass",
        "tests/test_fuzz.py::test_config_counts_must_be_integers",
    ),
    Mutant(
        "fuzz.py",
        'raise ValueError(f"ensembles is a tuple of names, such as ({self.ensembles!r},)")',
        "pass",
        "tests/test_fuzz.py::test_config_refuses_a_bare_ensemble_name",
    ),
    Mutant(
        "cli.py",
        "if f.name in given}",
        "if given.get(f.name)}",
        "tests/test_cli.py::test_fuzz_empty_ensembles_exits_2",
    ),
    Mutant(
        "inequality.py",
        "if not isinstance(m_fac, HpdFactor):",
        "if False:",
        "tests/test_inequality.py::test_a_raw_weight_matrix_names_cholesky_hpd",
    ),
    Mutant(
        "inequality.py",
        "if w.shape[1] != len(a):",
        "if False:",
        "tests/test_inequality.py::test_whitened_pair_weight_shape_mismatch",
    ),
    Mutant(
        "oracles.py",
        "if not isinstance(x, SubspaceBasis):",
        "if False:",
        "tests/test_oracles.py::test_a_raw_basis_names_subspace_basis",
    ),
    Mutant(
        "oracles.py",
        "if m <= n:",
        "if False:",
        "tests/test_oracles.py::test_principal_angles_regime_and_shape_errors",
    ),
    Mutant(
        "matrixio.py",
        'if "_" in stripped:  # int()',
        "if False:  # int()",
        "tests/test_matrixio.py::test_parse_refuses_digit_group_underscores",
    ),
    Mutant(
        "matrixio.py",
        'if "_" in stripped:  # float()',
        "if False:  # float()",
        "tests/test_matrixio.py::test_parse_refuses_digit_group_underscores",
    ),
    Mutant(
        "matrixio.py",
        '|[^\\t\\x20-\\x7e]"',
        '|[^\\t\\x0c\\x20-\\x7e]"',
        "tests/test_matrixio.py::test_load_refuses_a_form_feed_inside_a_line",
    ),
    Mutant(
        "matrixio.py",
        "if bad[1] else",
        "if False else",
        "tests/test_matrixio.py::test_load_names_file_and_line_of_non_ascii_byte",
    ),
    Mutant(
        "matrixio.py",
        're.split(r"\\r\\n?|\\n", text)',
        "text.splitlines()",
        "tests/test_matrixio.py::test_parse_ends_lines_at_lf_crlf_and_cr_only",
    ),
    Mutant(
        "matrixio.py",
        'r"\\r\\n?|\\n"',
        'r"\\r|\\n"',
        "tests/test_matrixio.py::test_load_names_file_and_line_of_non_ascii_byte",
    ),
    Mutant(
        "matrixio.py",
        'r"\\r\\n?|\\n"',
        'r"\\n"',
        "tests/test_matrixio.py::test_parse_ends_lines_at_lf_crlf_and_cr_only",
    ),
    Mutant(
        "linalg.py",
        "return type(self), (self.m_matrix,)",
        "return type(self), (self.m_matrix, self.w_factor)",
        "tests/test_linalg.py::test_records_keep_their_fields_read_only",
    ),
    Mutant(
        "linalg.py",
        "np.asarray(a, dtype=np.complex128).conj().T",
        "a.conj().T",
        "tests/test_linalg.py::test_kernels_take_nested_lists",
    ),
    Mutant(
        "linalg.py",
        "SignedLogDet(complex(phase), log_mag)",
        "SignedLogDet(phase, log_mag)",
        "tests/test_linalg.py::test_log_det_identity",
    ),
    Mutant(
        "oracles.py",
        'require_hermitian(w, "H")',
        "pass",
        "tests/test_oracles.py::test_hermitian_eigenvalues_refuse_a_non_hermitian_matrix",
    ),
    # oracle branches
    Mutant(
        "oracles.py",
        "if r <= threshold:",
        "if False:",
        "tests/test_oracles.py::test_hermitian_eigenvalues_match_numpy",
    ),
    Mutant(
        "oracles.py",
        "            rotated += 1\n",
        "",
        "tests/test_oracles.py::test_hermitian_eigenvalues_match_numpy",
    ),
    Mutant(
        "oracles.py",
        "if not jacobi_sweep(w, threshold):",
        "if jacobi_sweep(w, threshold) < 0:",
        "tests/test_oracles.py::test_jacobi_stops_on_the_sweeps_own_test",
    ),
    Mutant(
        "oracles.py",
        "math.sqrt(e) if e > 0.0 else 0.0",
        "math.sqrt(e)",
        "tests/test_oracles.py::test_principal_angles_read_a_negative_squared_cosine_as_zero",
    ),
    Mutant(
        "oracles.py",
        "if over.any():",
        "if False:",
        "tests/test_inequality.py::test_column_norm_past_unit_slack_raises",
    ),
    Mutant(
        "oracles.py",
        "shift = 2 * n * (ea + eb) * math.log(2.0)",
        "shift = 0.0",
        "tests/test_oracles.py::test_gram_check_passes_fuzz_traffic",
    ),
    Mutant(
        "oracles.py",
        "if not rows.size:\n            return 0",
        "if not rows.size:\n            return 1",
        "tests/test_oracles.py::test_gram_check_refuses_a_positive_lhs_on_an_exactly_singular_product",
    ),
    Mutant(
        "oracles.py",
        "// pivot, top[0]",
        "// 1, top[0]",
        "tests/test_oracles.py::test_exact_det_is_the_squared_cofactor_det_on_gaussian_integers",
    ),
    Mutant(
        "linalg.py",
        "e = math.frexp(np.abs(parts).max())[1]",
        "e = 0",
        "tests/test_linalg.py::test_hermitian_rule_holds_far_from_unit_scale",
    ),
    Mutant(
        "oracles.py",
        'raise OracleError(f"verdict basis',
        'raise ValueError(f"verdict basis',
        "tests/test_cli.py::test_a_bent_verdict_basis_is_a_kernel_bug",
    ),
    # speed guards: the same bits either way, at a measured cost
    Mutant(
        "linalg.py",
        "if k + 1 < n:\n            factors",
        "if True:\n            factors",
        "equivalent: log_det's last step updates an empty block, "
        "which costs 2.7 us per call (best of 5x20,000 at 4x4)",
    ),
    Mutant(
        "linalg.py",
        "if k + 1 < n:\n            _reflect(",
        "if True:\n            _reflect(",
        "equivalent: the QR's last step of a square pair reflects an empty block, "
        "which costs 2.8 us per call (best of 5x20,000 at 8x4)",
    ),
    Mutant(
        "linalg.py",
        "if not active:",
        "if False:",
        "equivalent: lanes whose trailing block squares to zero take zero "
        "reflectors to the end; a rank-1 64x32 pair factors in ~120 us with "
        "the break and ~1,000 us without",
    ),
    Mutant(
        "linalg.py",
        "if col:",
        "if True:",
        "equivalent: a pivot column already in place is swapped with itself, "
        "1.2 us per step",
    ),
)


def _source(mutant: Mutant) -> str:
    return (ROOT / "src" / "detcs" / mutant.file).read_text()


def _row_id(mutant: Mutant) -> str:
    source = _source(mutant)
    at = source.find(mutant.snippet)
    line = source.count("\n", 0, at) + 1 if at >= 0 else "stale"
    return f"{mutant.file}:{line}->{mutant.replacement.splitlines()[0] if mutant.replacement else 'deleted'}"


@pytest.mark.parametrize("mutant", MUTANTS, ids=_row_id)
def test_snippet_occurs_once(mutant):
    assert _source(mutant).count(mutant.snippet) == 1, mutant.snippet
    assert mutant.verdict.startswith(("tests/", EQUIVALENT)), mutant.verdict


@pytest.mark.parametrize(
    "mutant", [m for m in MUTANTS if not m.verdict.startswith(EQUIVALENT)], ids=_row_id
)
def test_tier1_kills_the_mutant(mutant, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(
        ROOT,
        tree,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".benchmarks", "out"),
    )
    path = tree / "src" / "detcs" / mutant.file
    source = path.read_text()
    assert source.count(mutant.snippet) == 1, mutant.snippet
    path.write_text(source.replace(mutant.snippet, mutant.replacement))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.verdict],
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True,
        text=True,
    )
    # exit code 1: the node failed, rather than passing (0) or not being
    # found (4), either of which makes the row stale
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
