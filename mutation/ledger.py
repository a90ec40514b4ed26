"""Digit ledger: every digit a verdict gives, on a fixed corpus of instances.

Run from the root of a checkout, with no options:

    PYTHONPATH=src python3 mutation/ledger.py > ledger.txt

It prints one line per instance: the source id, the case tag, the logs of
both sides (``zero`` for a zero side), the relative gap, the correlation
(``none`` when it is undefined) and ``ok``.  An instance whose verdict
raises a ``DetcsError`` prints its pass's case tag, then the exception's
class and message in place of the sides; any other exception, or a
warning under ``-W error``, stops the ledger.  Two trees whose ledgers are
the same bytes give the same verdicts, to the last digit, on every
instance of the corpus:

- trials 0-1,999 of each fuzz ensemble at seed 7, at the default sizes and
  tolerance.  A trial's instance does not depend on the trial count, so
  this covers every shorter ``detcs fuzz --seed 7`` run;
- README's example pairs;
- a dozen seeded 64x32 pairs: strict, same-span and weighted;
- 12x6 ill-conditioned same-span pairs B = AC whose A has singular-value
  ratio 1e-6 (defect A) or 1e-8 (defect D); today they raise
  ``InequalityViolation``.

Then come the command line's own digits, each run in-process through
``cli.run``:

- one ``check:<name>`` line per ``detcs verify --check --json`` record, on
  seeded strict, same-span and weighted pairs at 12x6 (inside the exact
  audit's reach) and 64x32 (the Jacobi oracle alone).  After its prefix
  the line is the record's bytes; a nonzero exit stops the ledger;
- the ``fuzzfail:`` block: each stdout line of
  ``detcs fuzz --trials 30 --seed 7 --tol 1e-17``, whose tolerance below
  roundoff makes violations, as a ``fuzzfail:stdout`` line, then its exit
  code.

Both run with a temporary directory as the working directory, which takes
the pairs' matrix files and the fuzz run's replay files.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import sys
import tempfile

import numpy as np

from detcs import (
    EQUALITY_TOL,
    DetcsError,
    cholesky_hpd,
    cli,
    conj_transpose,
    matmul,
    verify_inequality,
)
from detcs.fuzz import complex_normal, draw_instance, trial_rng
from detcs.inequality import ENSEMBLES, _verdict
from detcs.matrixio import save_matrix

FUZZ_SEED = 7
FUZZ_TRIALS = 2000


def readme_pairs():
    """The pairs README runs: a.mat against b.mat, i3.mat against itself,
    and the "Library" example; and a b.mat with swapped columns, from an
    earlier example, kept so that ledgers stay comparable."""
    s = 0.7071067811865475
    a = np.eye(3, 2, dtype=complex)
    yield "readme:verify", a, np.array([[1.0, 0.0], [0.0, s], [0.0, s]], dtype=complex), None
    yield "readme:square", np.eye(3, dtype=complex), np.eye(3, dtype=complex), None
    yield "readme:swapped", a, np.array([[0.0, 3.0], [s, 0.0], [s, 0.0]], dtype=complex), None
    rng = np.random.default_rng(0)
    lib_a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    lib_b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    yield "readme:library", lib_a, lib_b, None


def tall_pairs():
    """Four each of strict, same-span and weighted 64x32 pairs."""
    m, n = 64, 32
    for i in range(4):
        rng = np.random.default_rng([64, 0, i])
        yield f"tall:strict:{i}", complex_normal(rng, m, n), complex_normal(rng, m, n), None
        rng = np.random.default_rng([64, 1, i])
        a = complex_normal(rng, m, n)
        yield f"tall:same_span:{i}", a, matmul(a, complex_normal(rng, n, n)), None
        rng = np.random.default_rng([64, 2, i])
        a, b, g = complex_normal(rng, m, n), complex_normal(rng, m, n), complex_normal(rng, m, m)
        weight = cholesky_hpd(matmul(conj_transpose(g), g) + np.eye(m))
        yield f"tall:weighted:{i}", a, b, weight


def defect_pairs():
    """The 12x6 same-span pairs of defects A and D, built as their tests
    build them (the tests' seeds are 94 for A and 95 for D)."""
    for defect, low in ("A", -6.0), ("D", -8.0):
        for seed in (94, 95, 96, 97):
            rng = np.random.default_rng(seed)
            u = np.linalg.qr(complex_normal(rng, 12, 12))[0][:, :6]
            v = np.linalg.qr(complex_normal(rng, 6, 6))[0]
            a = (u * np.logspace(0.0, low, 6)) @ v
            yield f"defect{defect}:{seed}", a, a @ complex_normal(rng, 6, 6), None


def fuzz_instances(trials):
    for ensemble in ENSEMBLES:
        for trial in range(trials):
            inst = draw_instance(ensemble, trial_rng(FUZZ_SEED, ensemble, trial), 8, 8)
            yield f"fuzz:{ensemble}:{trial}", inst.a, inst.b, inst.m_fac


def _log(d) -> str:
    return "zero" if d.zero else repr(d.log_magnitude)


def entry(source, a, b, m_fac) -> str:
    try:
        r = verify_inequality(a, b, m_fac)
    except DetcsError as exc:
        return f"{source} {_verdict(a, b, m_fac, EQUALITY_TOL).tag.value} {type(exc).__name__}: {exc}"
    corr = "none" if r.correlation is None else repr(r.correlation)
    return (
        f"{source} {r.case_tag.value} lhs={_log(r.lhs_log)} rhs={_log(r.rhs_log)} "
        f"gap={r.relative_gap!r} corr={corr} ok"
    )


def check_pairs():
    """Write the seeded ``verify --check`` pairs into the working directory,
    and yield each pair's name and its ``verify`` options."""
    for m, n in (12, 6), (64, 32):
        rng = np.random.default_rng(m)
        a = complex_normal(rng, m, n)
        g = complex_normal(rng, m, m)
        mats = {
            "a": a,
            "b": complex_normal(rng, m, n),
            "s": matmul(a, complex_normal(rng, n, n)),
            "m": matmul(conj_transpose(g), g) / m + 0.5 * np.eye(m),
        }
        for key, mat in mats.items():
            save_matrix(f"{key}{m}.mat", mat)
        yield f"strict-{m}", ["--a", f"a{m}.mat", "--b", f"b{m}.mat"]
        yield f"same-span-{m}", ["--a", f"a{m}.mat", "--b", f"s{m}.mat"]
        yield f"weighted-{m}", ["--a", f"a{m}.mat", "--b", f"b{m}.mat", "--m", f"m{m}.mat"]


def _cli(argv):
    """``detcs argv`` in-process: its exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_lines():
    """The ``check:`` lines and the ``fuzzfail:`` block."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            lines = []
            for name, options in check_pairs():
                code, out = _cli(["verify", *options, "--check", "--json"])
                if code != 0:
                    raise SystemExit(f"check:{name}: verify --check exited {code}")
                record = out.removesuffix("\n")
                lines.append(f"check:{name} {record}")
            code, out = _cli(["fuzz", "--trials", "30", "--seed", str(FUZZ_SEED), "--tol", "1e-17"])
        finally:
            os.chdir(cwd)
    return lines + [f"fuzzfail:stdout {line}" for line in out.splitlines()] + [f"fuzzfail:exit {code}"]


def ledger(trials: int = FUZZ_TRIALS) -> str:
    """The ledger text, with ``trials`` trials of each fuzz ensemble."""
    sources = (fuzz_instances(trials), readme_pairs(), tall_pairs(), defect_pairs())
    verdicts = (entry(*inst) for source in sources for inst in source)
    lines = itertools.chain(verdicts, cli_lines())
    return "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    sys.stdout.write(ledger())
