"""Digit ledger: every digit a verdict gives, on a fixed corpus of instances.

Run from the root of a checkout, with no options:

    PYTHONPATH=src python3 mutation/ledger.py > ledger.txt

It prints one line per instance: the source id, the case tag, the logs of
both sides (``zero`` for a zero side), the relative gap, the correlation
(``none`` when it is undefined) and ``ok``.  An instance whose verdict
raises prints the exception's class and message in place of the sides.
Two trees whose ledgers are the same bytes give the same verdicts, to the
last digit, on every instance of the corpus:

- trials 0-1,999 of each fuzz ensemble at seed 7, at the default sizes and
  tolerance.  A trial's instance does not depend on the trial count, so
  this covers every shorter ``detcs fuzz --seed 7`` run;
- README's example pairs;
- a dozen seeded 64x32 pairs: strict, same-span and weighted;
- 12x6 ill-conditioned same-span pairs B = AC whose A has singular-value
  ratio 1e-6 (defect A) or 1e-8 (defect D); today they raise
  ``InequalityViolation``.
"""

from __future__ import annotations

import sys

import numpy as np

from detcs import classify_case, cholesky_hpd, conj_transpose, matmul, verify_inequality
from detcs.fuzz import complex_normal, draw_instance, trial_rng
from detcs.inequality import ENSEMBLES

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
    except Exception as exc:
        return f"{source} {classify_case(a, b, m_fac).value} {type(exc).__name__}: {exc}"
    corr = "none" if r.correlation is None else repr(r.correlation)
    return (
        f"{source} {r.case_tag.value} lhs={_log(r.lhs_log)} rhs={_log(r.rhs_log)} "
        f"gap={r.relative_gap!r} corr={corr} ok"
    )


def ledger(trials: int = FUZZ_TRIALS) -> str:
    """The ledger text, with ``trials`` trials of each fuzz ensemble."""
    sources = (fuzz_instances(trials), readme_pairs(), tall_pairs(), defect_pairs())
    return "".join(entry(*inst) + "\n" for source in sources for inst in source)


if __name__ == "__main__":
    sys.stdout.write(ledger())
