"""Command-line behavior: output shape, exit codes, determinism, replay."""

import ast
import dataclasses
import errno
import inspect
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import detcs
from detcs import SignedLogDet, cli, conj_transpose, fuzz, inequality, linalg, matmul, oracles
from detcs.cli import run
from detcs.fuzz import complex_normal, draw_instance, trial_rng
from detcs.matrixio import load_matrix, save_matrix


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(80)
    paths = {}

    def put(name, matrix):
        p = tmp_path / f"{name}.mat"
        save_matrix(p, matrix)
        paths[name] = str(p)

    put("i3", np.eye(3, dtype=complex))
    put("wide", complex_normal(rng, 2, 3))
    a = np.eye(3, 2, dtype=complex)
    b = np.zeros((3, 2), dtype=complex)
    b[0, 0] = 1.0
    b[1, 1] = b[2, 1] = 1.0 / np.sqrt(2.0)
    put("plane_a", a)
    put("plane_b", b)
    tall = complex_normal(rng, 4, 2)
    put("tall", tall)
    put("tall_span", tall @ complex_normal(rng, 2, 2))
    put("tall_other", complex_normal(rng, 4, 2))
    deficient = complex_normal(rng, 4, 1) @ complex_normal(rng, 1, 2)
    put("deficient", deficient)
    g = complex_normal(rng, 4, 4)
    put("hpd", g.conj().T @ g + 1e-3 * np.eye(4))
    put("indefinite", np.diag([1.0, -2.0, 1.0]).astype(complex))
    return paths


def test_verify_square_equality(files, capsys):
    code = run(["verify", "--a", files["i3"], "--b", files["i3"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "case: SquareEqual" in out
    assert "equality: yes" in out


def test_verify_wide_zero_sides(files, capsys):
    code = run(["verify", "--a", files["wide"], "--b", files["wide"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "case: WideEqualZero" in out
    assert out.count("zero") == 2


JSON_KEYS = ["case", "correlation", "equality", "lhs_log", "relative_gap", "rhs_log", "tol"]


def test_verify_json_record(files, capsys):
    code = run(["verify", "--a", files["plane_a"], "--b", files["plane_b"], "--json"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["case"] == "FullRankStrict"
    assert record["equality"] is False
    assert abs(record["correlation"] - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(record["relative_gap"] - 0.5) < 1e-12
    # a side is its log: log |det(A*B)|^2 = log 1/2, log det(A*A) det(B*B) = 0
    assert abs(record["lhs_log"] - math.log(0.5)) < 1e-12
    assert abs(record["rhs_log"]) < 1e-12
    assert record["tol"] == 1e-9
    assert sorted(record) == JSON_KEYS


def test_verify_json_square_has_null_correlation(files, capsys):
    run(["verify", "--a", files["i3"], "--b", files["i3"], "--json"])
    record = json.loads(capsys.readouterr().out)
    assert record["correlation"] is None


@pytest.mark.parametrize(
    "operand, case", [("wide", "WideEqualZero"), ("deficient", "RankDeficientZero")]
)
def test_verify_json_zero_sides(files, capsys, operand, case):
    assert run(["verify", "--a", files[operand], "--b", files[operand], "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["case"] == case
    assert record["lhs_log"] is None and record["rhs_log"] is None
    assert record["correlation"] is None
    assert record["relative_gap"] == 0.0
    assert record["equality"] is True


REGIMES = [
    ("wide", "wide", None, "WideEqualZero"),
    ("i3", "i3", None, "SquareEqual"),
    ("deficient", "deficient", None, "RankDeficientZero"),
    ("tall", "tall_span", None, "FullRankSameSpan"),
    ("tall", "tall_other", None, "FullRankStrict"),
    ("tall", "tall_other", "hpd", "FullRankStrict"),
]


@pytest.mark.parametrize("a, b, m, case", REGIMES)
def test_verify_text_and_json_agree(files, capsys, a, b, m, case):
    # both outputs print one record: each JSON value is the text's digits,
    # and a side is null exactly where the text prints zero
    argv = ["verify", "--a", files[a], "--b", files[b], *(["--m", files[m]] if m else [])]
    assert run(argv) == 0
    text = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert run([*argv, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert sorted(record) == JSON_KEYS
    assert text["case"] == record["case"] == case
    sides = ("lhs log |det(A*MB)|^2", "lhs_log"), ("rhs log det(A*MA) det(B*MB)", "rhs_log")
    for label, key in sides:
        assert (text[label] == "zero") == (record[key] is None), key
        assert text[label] == "zero" or text[label] == repr(record[key]), key
    assert text["relative gap"] == repr(record["relative_gap"])
    if record["correlation"] is None:
        assert "correlation" not in text
    else:
        assert text["correlation"] == repr(record["correlation"])
    equality = "yes" if record["equality"] else "no"
    assert text["equality"] == f"{equality} (tol {record['tol']!r})"


def assert_check_adds_the_oracle_lines(argv, capsys, case):
    """--check prints plain verify's bytes, then the Jacobi cosines and their
    product for a pair with a correlation; its JSON record is plain
    verify's plus the same two values, null where correlation is null."""
    out = {}
    for extra in ((), ("--check",), ("--json",), ("--check", "--json")):
        assert run([*argv, *extra]) == 0
        out[extra] = capsys.readouterr().out
    record, checked = json.loads(out[("--json",)]), json.loads(out[("--check", "--json")])
    assert sorted(checked) == sorted([*JSON_KEYS, "oracle_cosines", "oracle_product"])
    cosines, product = checked.pop("oracle_cosines"), checked.pop("oracle_product")
    assert checked == record and record["case"] == case
    if record["correlation"] is None:
        assert cosines is None and product is None
        assert out[("--check",)] == out[()]
    else:
        cosines_line = f"oracle cosines: {' '.join(map(repr, cosines))}\n"
        assert out[("--check",)] == out[()] + cosines_line + f"oracle product: {product!r}\n"
        assert abs(product - record["correlation"]) <= oracles.COSINE_PRODUCT_ATOL


@pytest.mark.parametrize("a, b, m, case", REGIMES)
def test_verify_check_adds_the_oracle_lines(files, capsys, a, b, m, case):
    argv = ["verify", "--a", files[a], "--b", files[b], *(["--m", files[m]] if m else [])]
    assert_check_adds_the_oracle_lines(argv, capsys, case)


@pytest.mark.parametrize(
    "other, weighted, case",
    [
        ("strict", False, "FullRankStrict"),
        ("span", False, "FullRankSameSpan"),
        ("strict", True, "FullRankStrict"),
    ],
)
def test_verify_check_past_desk_size(tmp_path, capsys, other, weighted, case):
    # 64 x 32: the Jacobi oracle rotates a 32 x 32 product, past the exact
    # audit's reach
    rng = np.random.default_rng(82)
    a = complex_normal(rng, 64, 32)
    g = complex_normal(rng, 64, 64)
    matrices = {
        "a": a,
        "strict": complex_normal(rng, 64, 32),
        "span": matmul(a, complex_normal(rng, 32, 32)),
        "m": matmul(conj_transpose(g), g) / 64.0 + 0.5 * np.eye(64),
    }
    for name, x in matrices.items():
        save_matrix(tmp_path / f"{name}.mat", x)
    argv = ["verify", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / f"{other}.mat")]
    if weighted:
        argv += ["--m", str(tmp_path / "m.mat")]
    assert_check_adds_the_oracle_lines(argv, capsys, case)


def test_verify_with_weight_and_check(files, capsys):
    code = run(
        ["verify", "--a", files["tall"], "--b", files["tall_other"], "--m", files["hpd"], "--check"]
    )
    assert code == 0
    assert "case: FullRankStrict" in capsys.readouterr().out


def test_verify_indefinite_weight_exits_2(files, capsys):
    code = run(["verify", "--a", files["i3"], "--b", files["i3"], "--m", files["indefinite"]])
    captured = capsys.readouterr()
    assert code == 2
    assert "not positive" in captured.err


def test_verify_missing_file_exits_2(tmp_path, files, capsys):
    code = run(["verify", "--a", str(tmp_path / "nope.mat"), "--b", files["i3"]])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_parse_error_reports_line(tmp_path, files, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("1 1\n1 x\n")
    code = run(["verify", "--a", str(bad), "--b", files["i3"]])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2" in captured.err


def test_verify_non_ascii_file_names_it(tmp_path, files, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"1 1\n1\xc3\xa9 0\n")
    code = run(["verify", "--a", str(bad), "--b", files["i3"]])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: byte 0xc3 is not ASCII\n"


@pytest.fixture
def tall_files(tmp_path):
    """12 x 6 operands: A, a generic B, a B = AC with A's span, and a weight."""
    rng = np.random.default_rng(81)
    a = complex_normal(rng, 12, 6)
    g = complex_normal(rng, 12, 12)
    matrices = {
        "a": a,
        "strict": complex_normal(rng, 12, 6),
        "span": matmul(a, complex_normal(rng, 6, 6)),
        "m": matmul(conj_transpose(g), g) / 12.0 + 0.5 * np.eye(12),
    }
    for name, x in matrices.items():
        save_matrix(tmp_path / f"{name}.mat", x)
    return {name: str(tmp_path / f"{name}.mat") for name in matrices}


def test_front_ends_agree(tall_files, capsys):
    # the command line and the library read one pass over the instance, so
    # the regime and the correlation are the same bytes
    a = load_matrix(tall_files["a"])
    m_fac = detcs.cholesky_hpd(load_matrix(tall_files["m"]))
    for other, tag in [("strict", "FullRankStrict"), ("span", "FullRankSameSpan")]:
        b = load_matrix(tall_files[other])
        for weight, fac in ([], None), (["--m", tall_files["m"]], m_fac):
            assert run(["verify", "--a", tall_files["a"], "--b", tall_files[other], *weight]) == 0
            out = capsys.readouterr().out.splitlines()
            report = detcs.verify_inequality(a, b, fac)
            assert out[0] == f"case: {report.case_tag.value}" == f"case: {tag}"
            assert f"correlation: {report.correlation!r}" in out


def test_check_whitens_and_factors_once(tall_files, count_calls, capsys):
    # the oracles read the verdict's whitened pair and pivoted bases
    calls = count_calls(inequality, "_whiten", "factor_lanes")
    # any other Householder pass, or a factorization asked of linalg itself
    count_calls(linalg, "factor_lanes", "_householder")
    # B's basis is formed once, for Z, and A's once, for the oracles only
    count_calls(linalg.ColumnFactors, "basis")
    operands = ["--a", tall_files["a"], "--b", tall_files["strict"], "--m", tall_files["m"]]
    for argv, bases in (["verify", "--check"], 2), (["verify", "--check", "--json"], 2), (["verify"], 1):
        calls.clear()
        assert run([*argv, *operands]) == 0
        assert calls == {
            "_whiten": 1,
            "factor_lanes": 1,
            "_householder": 1,
            "basis": bases,
        }, argv
    capsys.readouterr()


def test_plain_verify_reads_the_verdicts_overlap(tall_files, count_calls, capsys):
    # the correlation is read from Z[:n] = Qa*Qb: the products formed are
    # the whitening's, one per 8-row block of the 12-row W, and A*MB for
    # the LU; no basis of A is formed, and each operand is validated once
    calls = count_calls(inequality, "as_matrix", "matmul")
    count_calls(linalg, "matmul")
    count_calls(oracles, "matmul")
    count_calls(linalg.ColumnFactors, "basis")
    operands = ["--a", tall_files["a"], "--b", tall_files["strict"], "--m", tall_files["m"]]
    assert run(["verify", *operands]) == 0
    assert calls == {"as_matrix": 2, "matmul": 3, "basis": 1}
    capsys.readouterr()


def test_check_policy_lives_beside_its_bounds():
    # the --check agreement bounds are read only in detcs.oracles, next to
    # the comparisons that read them; the CLI calls those comparisons and
    # binds no bound, and no determinant or product kernel of its own
    bounds = (
        "COFACTOR_MAX_N",
        "EXACT_MAX_N",
        "DET_AGREEMENT_RTOL",
        "ZERO_DET_RTOL",
        "COSINE_PRODUCT_ATOL",
    )
    for path in pathlib.Path(detcs.__file__).parent.glob("*.py"):
        if path.name != "oracles.py":
            text = path.read_text()
            assert [b for b in bounds[1:] if b in text] == [], path.name
    assert not set(bounds) & set(vars(cli))
    kernels = (
        oracles.det_cofactor,
        oracles.det_bareiss,
        linalg.log_det,
        linalg.matmul,
        linalg.conj_transpose,
    )
    bound = [value for value in vars(cli).values() if any(value is k for k in kernels)]
    assert bound == []
    # the audit reads the sides the verdict printed and runs no LU of its own
    assert not any(value is linalg.log_det for value in vars(oracles).values())


def shift_log_det(monkeypatch, shift):
    """Move every LU determinant of the verdict by ``shift`` in log."""
    original = inequality.log_det

    def shifted(mat):
        d = original(mat)
        return d._replace(log_magnitude=d.log_magnitude + shift)

    monkeypatch.setattr(inequality, "log_det", shifted)


def test_check_fails_on_an_lu_determinant_off_by_1e_7(tall_files, monkeypatch, capsys):
    shift_log_det(monkeypatch, math.log1p(1e-7))
    assert run(["verify", "--check", "--a", tall_files["a"], "--b", tall_files["strict"]]) == 3
    assert "sqrt(lhs)" in capsys.readouterr().err


def test_check_fails_on_an_lu_zero_flag(tall_files, monkeypatch, capsys):
    # every Gram product of a strict pair is nonsingular, so a verdict whose
    # LU flags zero prints lhs: zero, and the audit rejects it
    monkeypatch.setattr(inequality, "log_det", lambda mat: SignedLogDet.of_zero())
    assert run(["verify", "--check", "--a", tall_files["a"], "--b", tall_files["strict"]]) == 3
    assert "lhs is zero but" in capsys.readouterr().err


def test_check_fails_on_scaled_cosines(tall_files, monkeypatch, capsys):
    original = oracles.principal_angle_cosines

    def scaled(qa, qb):
        return tuple(c * (1.0 - 1e-6) for c in original(qa, qb))

    monkeypatch.setattr(oracles, "principal_angle_cosines", scaled)
    argv = ["verify", "--check", "--a", tall_files["a"], "--b", tall_files["strict"]]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert "cosine product" in captured.err
    # the audit runs before anything is printed, so a failed one prints nothing
    assert captured.out == ""


def test_a_bent_verdict_basis_is_a_kernel_bug(tall_files, monkeypatch, capsys):
    # the oracle audits bases the kernel built, so one that fails
    # orthonormality is an invariant violation (exit 3), not bad input
    original = linalg.ColumnFactors.basis
    monkeypatch.setattr(linalg.ColumnFactors, "basis", lambda self: original(self) * (1.0 + 1e-6))
    for json_flag in ([], ["--json"]):
        argv = ["verify", "--check", *json_flag, "--a", tall_files["a"], "--b", tall_files["strict"]]
        assert run(argv) == 3, json_flag
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: verdict basis: columns are not orthonormal"), err


def test_squared_cosine_above_one_is_refused(tall_files, monkeypatch, capsys):
    original = oracles.hermitian_eigenvalues
    monkeypatch.setattr(oracles, "hermitian_eigenvalues", lambda h: [*original(h)[:-1], 1.0 + 1e-9])
    qa, qb = (
        linalg.SubspaceBasis(linalg.factor_columns(load_matrix(tall_files[k])).basis())
        for k in ("a", "strict")
    )
    with pytest.raises(detcs.OracleError, match=r"exceeds 1 \+ 1e-10"):
        oracles.principal_angle_cosines(qa, qb)
    argv = ["verify", "--check", "--a", tall_files["a"], "--b", tall_files["strict"]]
    assert run(argv) == 3
    assert "squared cosine 1.000000001 exceeds 1 + 1e-10" in capsys.readouterr().err


def test_check_skips_determinants_above_the_exact_limit(tmp_path, count_calls):
    # the Gram products of a 12 x 7 pair are past the exact audit's limit,
    # so no exact determinant and no audit product is formed: the two
    # products left are the Jacobi cross-check's.  At 12 x 6 the audit adds
    # its three exact determinants and no floating product
    rng = np.random.default_rng(82)
    calls = count_calls(oracles, "det_bareiss", "det_cofactor", "matmul")
    limit = oracles.EXACT_MAX_N
    for n, expected in (limit + 1, {"matmul": 2}), (limit, {"matmul": 2, "det_bareiss": 3}):
        for name in "ab":
            save_matrix(tmp_path / f"{name}.mat", complex_normal(rng, 12, n))
        argv = ["verify", "--check", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]
        calls.clear()
        assert run(argv) == 0
        assert calls == expected, n


def test_check_audits_the_right_side(tall_files, monkeypatch, capsys):
    original = inequality._gram_log_det
    monkeypatch.setattr(inequality, "_gram_log_det", lambda f: original(f) + 1e-3)
    argv = ["verify", "--check", "--json", "--a", tall_files["a"], "--b", tall_files["strict"]]
    assert run(argv) == 3
    assert "sqrt(rhs)" in capsys.readouterr().err


SCALES = [2.0**50, 2.0**-50, 2.0**80, 2.0**-80, 2.0**130, 2.0**-130, 2.0**300, 2.0**-300, 1e40, 1e-40]


@pytest.mark.parametrize("scale", SCALES)
def test_check_audits_a_pair_at_any_scale(tmp_path, monkeypatch, capsys, scale):
    # the audit takes exact determinants of Gaussian integers and compares
    # in log domain: away from unit scale, floating Gram determinants
    # underflow or overflow, so a valid pair would be blamed (exit 3),
    # crash (exit 1) or pass unaudited
    rng = np.random.default_rng(5)
    a = complex_normal(rng, 12, 6)
    b = complex_normal(rng, 12, 6)
    save_matrix(tmp_path / "a.mat", a * scale)
    save_matrix(tmp_path / "b.mat", b * scale)
    argv = ["verify", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]
    assert run(argv) == 0
    assert run([*argv, "--check"]) == 0
    # a lhs 1 too large in log is still below rhs, so only the audit sees it
    original = cli._report

    def raised(v):
        r = original(v)
        lhs = r.lhs_log._replace(log_magnitude=r.lhs_log.log_magnitude + 1.0)
        return dataclasses.replace(r, lhs_log=lhs)

    monkeypatch.setattr(cli, "_report", raised)
    assert run(argv) == 0
    capsys.readouterr()
    assert run([*argv, "--check"]) == 3
    assert "sqrt(lhs)" in capsys.readouterr().err


def test_check_never_passes_a_scaled_strict_pair_under_another_tag(tmp_path, capsys):
    # at 1e±160 and 2^±600 the verdict's QR reads a strict pair as
    # RankDeficientZero (defect C, ROADMAP item 4).  The audit's exact
    # Gram determinants are both positive, so --check exits 3 there; once
    # the verdict keeps its tag it exits 0 with it
    rng = np.random.default_rng(95)
    a, b = complex_normal(rng, 12, 6), complex_normal(rng, 12, 6)
    for scale in (2.0**600, 2.0**-600, 1e160, 1e-160):
        save_matrix(tmp_path / "a.mat", scale * a)
        save_matrix(tmp_path / "b.mat", scale * b)
        argv = ["verify", "--check", "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]
        with warnings.catch_warnings():
            # the leaked warning is pinned by test_scaled_strict_pair_keeps_its_tag
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run(argv)
        out = capsys.readouterr().out
        assert code == 3 or (code == 0 and "case: FullRankStrict\n" in out), (scale, code, out)


def test_check_runs_no_lu_of_its_own(tall_files, files, count_calls, capsys):
    # --check audits the sides the verdict printed, so it calls log_det
    # wherever detcs binds it as often as plain verify: the LU of A*MB and
    # the correlation for a tall pair, the LU alone for a square one
    modules = (linalg, cli, inequality, oracles, fuzz)
    for module in [m for m in modules if vars(m).get("log_det") is linalg.log_det]:
        calls = count_calls(module, "log_det")
    pairs = [(tall_files["a"], tall_files["strict"], 2), (files["i3"], files["i3"], 1)]
    for (a, b, expected), check in itertools.product(pairs, ([], ["--check"])):
        calls.clear()
        assert run(["verify", *check, "--a", a, "--b", b]) == 0
        assert calls == {"log_det": expected}, (a, check)
    capsys.readouterr()


def test_check_passes_graded_pairs(tmp_path, capsys):
    # fuzz seed 7's weighted trial 1371 (6 x 6, whitened condition about 461),
    # and 12 x 6 pairs whose singular values fall from 1 to 1e-3: verify
    # exits 0 on each, and so must verify --check: an audit whose rounding
    # error is absolute blames such pairs, and the exact audit has none
    weighted = draw_instance("weighted", trial_rng(7, "weighted", 1371), 8, 8)
    sets = [{"a": weighted.a, "b": weighted.b, "m": weighted.m_fac.m_matrix}]
    for seed in (97, 98, 99):
        rng = np.random.default_rng(seed)
        sets.append({"a": graded(rng, 12, 6), "b": graded(rng, 12, 6)})
    codes = []
    for i, matrices in enumerate(sets):
        operands = []
        for name, x in matrices.items():
            save_matrix(tmp_path / f"{i}{name}.mat", x)
            operands += [f"--{name}", str(tmp_path / f"{i}{name}.mat")]
        assert run(["verify", *operands]) == 0
        codes.append(run(["verify", "--check", *operands]))
    capsys.readouterr()
    assert codes == [0] * len(sets)


def graded(rng, m, n):
    """An m x n matrix whose singular values fall from 1 to 1e-3."""
    u = np.linalg.qr(complex_normal(rng, m, m))[0][:, :n]
    return matmul(u * np.logspace(0.0, -3.0, n), np.linalg.qr(complex_normal(rng, n, n))[0])


def test_verify_half_tilted_plane(files, capsys):
    code = run(["verify", "--a", files["plane_a"], "--b", files["plane_b"], "--check"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    # each value is fixed by the two spans, not by the bases chosen for them
    (correlation,) = [ln for ln in lines if ln.startswith("correlation: ")]
    cosines, product = lines[-2:]
    assert correlation.startswith("correlation: 0.70710678118654")
    assert cosines.startswith("oracle cosines: 1.0 0.70710678118654")
    assert product.startswith("oracle product: 0.70710678118654")


def test_verify_prints_tag_and_clause(files, capsys):
    code = run(["verify", "--a", files["tall"], "--b", files["tall_span"]])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "case: FullRankSameSpan"
    assert out[1] == f"clause: {inequality.CLAUSE_TEXT[detcs.CaseTag.FULL_RANK_SAME_SPAN]}"

    run(["verify", "--a", files["deficient"], "--b", files["tall"]])
    assert capsys.readouterr().out.splitlines()[0] == "case: RankDeficientZero"

    code = run(["verify", "--a", files["tall"], "--b", files["tall_other"], "--tol", "1e-6"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "case: FullRankStrict"

    # a tolerance outside (0, 1) is refused whatever the shape, by verify
    # and fuzz alike
    for tol in ("0", "-1", "nan", "inf", "1", "20"):
        for a, b in [("i3", "i3"), ("wide", "wide"), ("tall", "tall_span")]:
            code = run(["verify", "--a", files[a], "--b", files[b], "--tol", tol])
            assert code == 2
            assert capsys.readouterr().out == ""
        assert run(["fuzz", "--trials", "1", "--tol", tol]) == 2
        assert capsys.readouterr().out == ""


def test_verify_is_the_one_verdict_command(files, capsys):
    # classify and correlate printed lines of verify's record and are gone,
    # as is the old --subspace-tol spelling: each exits 2 from the parser
    operands = ["--a", files["i3"], "--b", files["i3"]]
    for argv in (
        ["classify", *operands],
        ["correlate", *operands],
        ["verify", *operands, "--subspace-tol", "1e-6"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""


def test_fuzz_small_run_passes(capsys):
    code = run(["fuzz", "--trials", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("fuzz: trials=5 seed=1")
    assert "total: 20/20 passed" in out


def test_fuzz_slack_reads_n_a_without_a_positive_pair(capsys):
    # every rank_deficient verdict has both sides zero, so no slack is kept
    assert run(["fuzz", "--ensembles", "ginibre,rank_deficient", "--trials", "3", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("ginibre: 3 passed, 0 violation(s), worst log slack -4.05")
    assert lines[2].startswith("rank_deficient: 3 passed, 0 violation(s), worst log slack n/a,")


def test_fuzz_defaults_live_in_the_config(monkeypatch, capsys):
    # the command passes only the options given, so its config is the
    # dataclass's own default, seed included
    configs = []
    original = fuzz.run_fuzz
    monkeypatch.setattr(fuzz, "run_fuzz", lambda config: configs.append(config) or original(config))
    assert run(["fuzz", "--trials", "3"]) == 0
    config = fuzz.FuzzConfig(trials=3)
    assert configs == [config]
    header = capsys.readouterr().out.splitlines()[0]
    assert header == (
        f"fuzz: trials=3 seed={config.seed} m_max={config.m_max} n_max={config.n_max} "
        f"tol={config.tol!r} ensembles={','.join(config.ensembles)}"
    )
    assert header.startswith("fuzz: trials=3 seed=0 m_max=8 n_max=8 ")


def test_fuzz_repeat_runs_identical(capsys):
    run(["fuzz", "--trials", "8", "--seed", "9"])
    first = capsys.readouterr().out
    run(["fuzz", "--trials", "8", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_fuzz_seed_is_the_flag_alone(monkeypatch, capsys):
    # the command line is a function of its arguments: the environment
    # cannot replace --seed
    monkeypatch.delenv("DETCS_SEED", raising=False)
    run(["fuzz", "--trials", "5", "--seed", "123"])
    direct = capsys.readouterr().out
    monkeypatch.setenv("DETCS_SEED", "999")
    run(["fuzz", "--trials", "5", "--seed", "123"])
    assert capsys.readouterr().out == direct


def test_fuzz_bad_ensemble_exits_2(capsys):
    code = run(["fuzz", "--trials", "1", "--seed", "0", "--ensembles", "ginibre,nope"])
    assert code == 2
    assert "ensemble" in capsys.readouterr().err


def test_fuzz_empty_ensembles_exits_2(capsys):
    # an empty list is refused however it is spelled, not read as "all"
    for spelling in ("", ","):
        assert run(["fuzz", "--trials", "1", "--ensembles", spelling]) == 2, spelling
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: at least one ensemble is required\n"


def test_fuzz_violation_writes_replay_that_reproduces(tmp_path, monkeypatch, capsys):
    # a tolerance below roundoff turns honest verdicts into violations; the
    # emitted replay files, a weight's included, must reproduce exit 3 and
    # the same message through cmd_verify
    monkeypatch.chdir(tmp_path)
    for ensemble, trials in ("shared_span", 3), ("weighted", 12):
        fuzz_argv = ["fuzz", "--trials", str(trials), "--seed", "7", "--ensembles", ensemble]
        code = run([*fuzz_argv, "--tol", "1e-17"])
        out = capsys.readouterr().out.splitlines()
        assert code == 3
        violation = next(ln for ln in out if ln.startswith("VIOLATION"))
        replay = out[out.index(violation) + 1]
        assert replay.startswith("replay: detcs verify ")
        argv = replay.removeprefix("replay: detcs ").split()
        assert (tmp_path / argv[2]).exists()
        assert run(argv) == 3
        assert capsys.readouterr().err == f"invariant violation: {violation.split(': ', 1)[1]}\n"
    # the weighted replay names the saved weight, which is the drawn one
    # bit for bit
    assert violation.startswith("VIOLATION ensemble=weighted trial=11: ")
    assert "--m detcs-replay-weighted-11-m.mat" in replay
    drawn = draw_instance("weighted", trial_rng(7, "weighted", 11), 8, 8).m_fac.m_matrix
    saved = load_matrix(tmp_path / "detcs-replay-weighted-11-m.mat")
    assert saved.shape == drawn.shape and saved.tobytes() == drawn.tobytes()


def test_fuzz_summary_counts_add_up_on_a_failing_run(tmp_path, monkeypatch, capsys):
    # each ensemble's passed and violation counts split its trials, its
    # violations are its VIOLATION lines, and the total counts them all.
    # Which trials break a 1e-17 tolerance depends on roundoff, so the
    # counts are read from the output
    monkeypatch.chdir(tmp_path)
    assert run(["fuzz", "--trials", "30", "--seed", "7", "--tol", "1e-17"]) == 3
    lines = capsys.readouterr().out.splitlines()
    violations = [ln for ln in lines if ln.startswith("VIOLATION")]
    assert violations
    for ensemble, line in zip(fuzz.ENSEMBLES, lines[1:5]):
        counts = line.removeprefix(f"{ensemble}: ").split(", ")[:2]
        passed, failed = (int(c.split()[0]) for c in counts)
        assert counts == [f"{passed} passed", f"{failed} violation(s)"], line
        assert passed + failed == 30
        assert failed == sum(v.startswith(f"VIOLATION ensemble={ensemble} ") for v in violations)
    assert lines[5] == f"total: {120 - len(violations)}/120 passed"


def test_fuzz_violation_without_a_replay_file_still_exits_3(tmp_path, monkeypatch, capsys):
    # an unwritable working directory costs the replay line, not the verdict
    def refuse(path, a):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "save_matrix", refuse)
    argv = ["fuzz", "--trials", "12", "--seed", "7", "--tol", "1e-17", "--ensembles", "shared_span"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    violations = [ln for ln in captured.out.splitlines() if ln.startswith("VIOLATION")]
    assert len(violations) == 10
    assert "replay:" not in captured.out
    errors = captured.err.splitlines()
    assert len(errors) == 10
    assert errors[0] == (
        "error: cannot write replay file detcs-replay-shared_span-0-a.mat: "
        "[Errno 13] Permission denied"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "detcs", "fuzz", "--trials", "2", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total: 8/8 passed" in proc.stdout
    # the child is outside pytest's warning filter: nothing may leak to stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_is_not_bad_input(unbuffered):
    # a reader that has closed stdout before the first write: the command
    # exits as SIGPIPE would end it (128 + 13), with nothing on stderr,
    # whether stdout is flushed per line or only at the end
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "detcs", "fuzz", "--trials", "2", "--seed", "0"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), 141, ""),
        (detcs.InequalityViolation("bound"), 3, "invariant violation: bound\n"),
        (detcs.OracleError("oracle"), 3, "invariant violation: oracle\n"),
        (detcs.NotHermitian("weight"), 2, "error: weight\n"),
        (ValueError("shape"), 2, "error: shape\n"),
        (FileNotFoundError(errno.ENOENT, "No such file"), 2, "error: [Errno 2] No such file\n"),
    ],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None,
)
def test_each_caught_class_has_its_exit_code(capsys, monkeypatch, exc, code, err):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify", fail)
    # the closed-stdout clause rebinds sys.stdout: monkeypatch, set up after
    # capsys and so undone before it, restores capsys's stream
    monkeypatch.setattr(sys, "stdout", sys.stdout)
    assert run(["verify", "--a", "a.mat", "--b", "b.mat"]) == code
    assert capsys.readouterr().err == err



def numpy_dispatch():
    """numpy's runtime CPU features and its dispatched SIMD targets."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


@pytest.mark.xfail(
    strict=True,
    reason="numpy's complex multiply and complex abs round differently below its "
    "X86_V3 SIMD dispatch level, so fuzz digits depend on the CPU (ROADMAP item 2)",
)
def test_fuzz_bytes_do_not_depend_on_the_simd_dispatch_level():
    features, dispatch = numpy_dispatch()
    if not features.get("X86_V3"):
        pytest.skip("numpy reports no X86_V3 dispatch level on this CPU")
    disabled = " ".join(f for f in ("AVX512_ICL", "AVX512_SPR", "X86_V4", "X86_V3") if f in dispatch)
    outputs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": disabled}):
        proc = subprocess.run(
            [sys.executable, "-m", "detcs", "fuzz", "--trials", "200", "--seed", "7"],
            capture_output=True,
            text=True,
            env={**os.environ, **extra},
        )
        assert proc.returncode == 0, proc.stderr[-300:]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


PRODUCT_PROBE = """
import hashlib
import numpy as np
from detcs.fuzz import complex_normal
from detcs.inequality import _whiten
from detcs.linalg import conj_transpose, matmul
rng = np.random.default_rng(17)
for m, n in [(1, 1), (3, 2), (8, 4), (12, 6), (17, 9), (64, 32)]:
    a, b = complex_normal(rng, m, n), complex_normal(rng, m, n)
    # upper triangular with a positive diagonal, drawn without BLAS
    w = np.triu(complex_normal(rng, m, m))
    w[np.diag_indices(m)] = rng.uniform(0.5, 2.0, m)
    products = (a, b, w, matmul(conj_transpose(a), b), *_whiten(a, b, w))
    print(m, n, *(hashlib.sha256(x.tobytes()).hexdigest()[:16] for x in products))
"""


def test_products_do_not_depend_on_simd_level_or_blas_kernel():
    # matmul and the whitening built on it print the same bytes at numpy's
    # default SIMD level, below X86_V3, and under two OpenBLAS kernels
    features, dispatch = numpy_dispatch()
    if not features.get("X86_V3"):
        pytest.skip("numpy reports no X86_V3 dispatch level on this CPU")
    disabled = " ".join(f for f in ("AVX512_ICL", "AVX512_SPR", "X86_V4", "X86_V3") if f in dispatch)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    outputs = []
    for extra in (
        {},
        {"NPY_DISABLE_CPU_FEATURES": disabled},
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Prescott"},
    ):
        proc = subprocess.run(
            [sys.executable, "-c", PRODUCT_PROBE],
            capture_output=True,
            text=True,
            env={**env, **extra},
        )
        assert proc.returncode == 0, proc.stderr[-300:]
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 6
    assert outputs[1:] == outputs[:1] * 3

ORACLE_NAMES = (
    "BilinearityWitness",
    "column_norm_profile",
    "det_bareiss",
    "det_cofactor",
    "find_bilinearity_counterexample",
    "hermitian_eigenvalues",
    "matmul_naive",
    "principal_angle_cosines",
)


FOOTPRINT_PROBE = """
import dataclasses, sys
import detcs.cli
loaded = [name for name in ("detcs.fuzz", "json") if name in sys.modules]
records = {
    value
    for key, module in list(sys.modules.items())
    if key == "detcs" or key.startswith("detcs.")
    for value in vars(module).values()
    if isinstance(value, type) and dataclasses.is_dataclass(value)
}
print(loaded, sorted(f"{r.__module__}.{r.__qualname__}" for r in records))
"""


def probe(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-300:]
    return proc.stdout


def test_cli_import_loads_only_the_verdict_path():
    # fuzz and json load only in the commands that use them, and the one
    # record built by the dataclass machinery is the report
    assert probe(FOOTPRINT_PROBE) == "[] ['detcs.inequality.CsReport']\n"


MOVED_NAMES = {
    "FuzzConfig": "detcs.fuzz",
    "FuzzSummary": "detcs.fuzz",
    "run_fuzz": "detcs.fuzz",
    "load_matrix": "detcs.matrixio",
    "parse_matrix": "detcs.matrixio",
    "save_matrix": "detcs.matrixio",
    "serialize_matrix": "detcs.matrixio",
    "column_norm_profile": "detcs.oracles",
    "SubspaceBasis": "detcs.linalg",
}

ROOT_PROBE = """
import importlib, sys
def package():
    return sorted(name for name in sys.modules if name == "detcs" or name.startswith("detcs."))
import detcs
root = package()
import detcs.cli
print(root)
print(sorted(set(package()) - set(root) - {"detcs.cli"}))
for name, module in %r.items():
    print(name, hasattr(detcs, name), callable(getattr(importlib.import_module(module), name)))
"""


def test_root_loads_only_the_verdict_api():
    # matrix files, the oracles and fuzz are reached through their modules:
    # the root neither loads them nor re-exports their names
    lines = probe(ROOT_PROBE % MOVED_NAMES).splitlines()
    assert lines[0] == "['detcs', 'detcs.errors', 'detcs.inequality', 'detcs.linalg']"
    assert lines[1] == "['detcs.matrixio', 'detcs.oracles']"
    assert lines[2:] == [f"{name} False True" for name in MOVED_NAMES]
    assert not hasattr(inequality, "column_norm_profile")
    with pytest.raises(AttributeError):
        detcs.no_such_name


def test_fuzz_help_lists_the_ensembles(capsys):
    with pytest.raises(SystemExit):
        run(["fuzz", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"subset of: {', '.join(fuzz.ENSEMBLES)} (default: all)" in text


def test_every_export_resolves():
    assert len(set(detcs.__all__)) == len(detcs.__all__) == 17
    for name in detcs.__all__:
        assert hasattr(detcs, name), name
    # the reference routes are reached only through detcs.oracles
    defined = {
        name
        for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == oracles.__name__
    }
    assert set(ORACLE_NAMES) <= defined
    assert not defined & set(detcs.__all__)
    for name in ORACLE_NAMES:
        assert callable(getattr(oracles, name)), name


def test_each_error_type_is_raised_by_one_module():
    # an exit code names one layer, so each error type has one home
    homes = {
        "InequalityViolation": {"inequality.py"},
        "OracleError": {"oracles.py"},
        "NotHermitian": {"linalg.py"},
        "NotPositiveDefinite": {"linalg.py"},
        "MatrixParseError": {"matrixio.py"},
    }
    assert {cls.__name__ for cls in detcs.DetcsError.__subclasses__()} == set(homes)
    raised = {name: set() for name in homes}
    for path in pathlib.Path(detcs.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in raised:
                    raised[exc.id].add(path.name)
    assert raised == homes


def test_kernels_take_no_threshold():
    # every threshold is a module constant; no kernel lets a call override one
    kernels = (
        detcs.log_det,
        detcs.cholesky_hpd,
        linalg.factor_lanes,
        linalg.factor_columns,
        oracles.hermitian_eigenvalues,
    )
    for kernel in kernels:
        params = inspect.signature(kernel).parameters
        assert len(params) == 1, (kernel.__name__, list(params))


def test_repeated_runs_print_identical_bytes(tmp_path):
    rng = np.random.default_rng(77)
    save_matrix(tmp_path / "a.mat", complex_normal(rng, 64, 32))
    save_matrix(tmp_path / "b.mat", complex_normal(rng, 64, 32))
    g = complex_normal(rng, 64, 64)
    save_matrix(tmp_path / "m.mat", matmul(conj_transpose(g), g) / 64.0 + 0.5 * np.eye(64))
    commands = [
        ["fuzz", "--trials", "200", "--seed", "7"],
        ["verify", "--json"] + [f"--{x}={tmp_path / x}.mat" for x in "abm"],
    ]
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "detcs", *argv], capture_output=True)
            for _ in range(2)
        ]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr[-300:]
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout
        # a warning in the child process reaches its stderr only
        assert [r.stderr for r in runs] == [b"", b""], argv
