"""Command-line front end.

Exit codes: 0 verified / success, 2 input or validation error, 3 invariant
violation (a kernel bug signal, never a property of valid input).  All
output is deterministic for a fixed command line and input files.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DetcsError, InequalityViolation, OracleError
from .inequality import (
    CLAUSE_TEXT,
    ENSEMBLES,
    EQUALITY_TOL,
    CaseTag,
    _correlated,
    _report,
    _verdict,
    classify_case,
)
from .linalg import cholesky_hpd
from .matrixio import load_matrix, save_matrix
from .oracles import check_correlation, check_gram_dets


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_operands(args):
    """(A, B, factored M or None) from the --a/--b/--m files."""
    a, b = load_matrix(args.a), load_matrix(args.b)
    return a, b, cholesky_hpd(load_matrix(args.m)) if args.m else None


def cmd_verify(args) -> int:
    v = _verdict(*_load_operands(args), args.tol)
    report = _report(v)
    if args.check:
        check_gram_dets(v.a, v.b, report.lhs_log, report.rhs_log)
        if report.correlation is not None:
            check_correlation(v.fa, v.qb, report.correlation)
    record = _record(report)
    if args.json:
        import json

        print(json.dumps(record, sort_keys=True))
        return 0
    lhs, rhs = ("zero" if x is None else _fmt(x) for x in (record["lhs_log"], record["rhs_log"]))
    print(f"case: {record['case']}")
    print(f"clause: {CLAUSE_TEXT[report.case_tag]}")
    print(f"lhs log |det(A*MB)|^2: {lhs}")
    print(f"rhs log det(A*MA) det(B*MB): {rhs}")
    print(f"relative gap: {_fmt(record['relative_gap'])}")
    if record["correlation"] is not None:
        print(f"correlation: {_fmt(record['correlation'])}")
    print(f"equality: {'yes' if record['equality'] else 'no'} (tol {_fmt(record['tol'])})")
    return 0


def _record(report) -> dict:
    """What ``verify`` prints, as plain values.  Both sides are nonnegative
    reals, so a side is its log, or None when the side is zero."""
    return {
        "case": report.case_tag.value,
        "equality": report.equality,
        "relative_gap": float(report.relative_gap),
        "correlation": None if report.correlation is None else float(report.correlation),
        "lhs_log": None if report.lhs_log.zero else float(report.lhs_log.log_magnitude),
        "rhs_log": None if report.rhs_log.zero else float(report.rhs_log.log_magnitude),
        "tol": float(report.tol_used),
    }


def cmd_correlate(args) -> int:
    v, correlation = _correlated(*_load_operands(args))
    print(f"correlation: {_fmt(correlation)}")
    if args.check:
        angles = check_correlation(v.fa, v.qb, correlation)
        print("oracle cosines: " + " ".join(_fmt(c) for c in angles.cosines))
        print(f"oracle product: {_fmt(angles.correlation())}")
    return 0


def cmd_classify(args) -> int:
    a, b, m_fac = _load_operands(args)
    tag = classify_case(a, b, m_fac, tol=args.tol)
    print(tag.value)
    print(f"clause: {CLAUSE_TEXT[tag]}")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, run_fuzz  # loaded only by the command that runs it

    ensembles = tuple(ENSEMBLES)
    if args.ensembles:
        ensembles = tuple(name.strip() for name in args.ensembles.split(",") if name.strip())
    config = FuzzConfig(
        trials=args.trials,
        seed=args.seed,
        m_max=args.m_max,
        n_max=args.n_max,
        ensembles=ensembles,
        tol=args.tol,
    )
    summary = run_fuzz(config)
    _print_summary(summary)
    if summary.passed:
        return 0
    _write_replays(summary)
    return 3


def _print_summary(summary) -> None:
    cfg = summary.config
    print(
        f"fuzz: trials={cfg.trials} seed={cfg.seed} m_max={cfg.m_max} "
        f"n_max={cfg.n_max} tol={_fmt(cfg.tol)} ensembles={','.join(cfg.ensembles)}"
    )
    for st in summary.stats:
        slack = "n/a" if st.worst_slack == float("-inf") else _fmt(st.worst_slack)
        tags = " ".join(f"{tag.value}={st.tag_counts[tag.value]}" for tag in CaseTag)
        print(
            f"{st.name}: {st.passes} passed, {st.violations} violation(s), "
            f"worst log slack {slack}, {tags}"
        )
    total = summary.total_trials
    passed = total - len(summary.violations)
    print(f"total: {passed}/{total} passed")


def _write_replays(summary) -> None:
    """Print each violation, then its replay once its files are written."""
    for v in summary.violations:
        print(f"VIOLATION ensemble={v.ensemble} trial={v.trial}: {v.message}")
        stem = f"detcs-replay-{v.ensemble}-{v.trial}"
        operands = {"a": v.instance.a, "b": v.instance.b}
        if v.instance.m_fac is not None:
            operands["m"] = v.instance.m_fac.m_matrix
        try:
            for name, mat in operands.items():
                save_matrix(f"{stem}-{name}.mat", mat)
        except OSError as exc:
            print(f"error: cannot write replay file {stem}-{name}.mat: {exc}", file=sys.stderr)
            continue
        args = " ".join(f"--{name} {stem}-{name}.mat" for name in operands)
        print(f"replay: detcs verify {args} --tol {_fmt(summary.config.tol)}")


def _add_operands(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", required=True, help="path to the A matrix file")
    parser.add_argument("--b", required=True, help="path to the B matrix file")
    parser.add_argument("--m", help="path to the hermitian positive definite weight M")


def _add_tol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=EQUALITY_TOL,
        help="relative equality tolerance, in (0, 1); spans match when the sum of "
        "squared principal sines is at most half of it",
    )


def _add_check(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check", action="store_true", help="also run oracle cross-checks (size-guarded)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcs",
        description=(
            "Verify the determinantal Cauchy-Schwarz inequality "
            "|det(A*MB)|^2 <= det(A*MA) det(B*MB) and classify its equality cases."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the inequality for one (A, B, M) instance")
    _add_operands(p_verify)
    _add_tol(p_verify)
    p_verify.add_argument("--json", action="store_true", help="emit a single-line JSON record")
    _add_check(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_corr = sub.add_parser("correlate", help="determinantal correlation |det(Qa*Qb)| of the spans")
    _add_operands(p_corr)
    _add_check(p_corr)
    p_corr.set_defaults(func=cmd_correlate)

    p_cls = sub.add_parser("classify", help="name the equality/strictness regime of (A, B, M)")
    _add_operands(p_cls)
    _add_tol(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_fuzz = sub.add_parser("fuzz", help="randomized verification over seeded ensembles")
    p_fuzz.add_argument("--trials", type=int, required=True, help="trials per ensemble")
    p_fuzz.add_argument("--seed", type=int, default=0, help="master seed")
    p_fuzz.add_argument("--m-max", type=int, default=8, help="largest row count")
    p_fuzz.add_argument("--n-max", type=int, default=8, help="largest column count")
    p_fuzz.add_argument(
        "--ensembles",
        help=f"comma-separated subset of: {', '.join(ENSEMBLES)} (default: all)",
    )
    _add_tol(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InequalityViolation, OracleError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (DetcsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
