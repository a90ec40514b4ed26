"""Mutation gate: tier-1 must notice each deliberate fault in ``src/detcs``.

Run from the root of a checkout:

    python3 -m pytest mutation

Each row of ``MUTANTS`` names a file of ``src/detcs``, an exact snippet of
it, a replacement and a verdict.  The snippet must occur exactly once, or
the row is stale and the gate fails: a change to that code updates its row.
For a ``KILLED`` row the tree is copied to a temporary directory, the
snippet is replaced, and ``pytest -x -q tests`` must fail there.  Any other
verdict is the measured reason why the mutant is equivalent: no test can
tell it apart from the tree, so only its snippet is checked.

One tier-1 run per killed row: about 8 minutes on a 2-core host.
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
KILLED = "killed"


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    verdict: str


MUTANTS = (
    # the bounds and contracts of the verdict
    Mutant("inequality.py", "if slack > math.log1p(tol):", "if slack > math.log1p(2 * tol):", KILLED),
    Mutant(
        "inequality.py",
        "report.relative_gap > report.tol_used:",
        "report.relative_gap > 2 * report.tol_used:",
        KILLED,
    ),
    Mutant("inequality.py", "<= 0.5 * tol", "<= tol", KILLED),
    Mutant("inequality.py", "return raw if raw < 1.0 else 1.0", "return raw", KILLED),
    # the thresholds of the kernels and the oracles
    Mutant("linalg.py", "HERMITIAN_TOL = 1e-12", "HERMITIAN_TOL = 1e-6", KILLED),
    Mutant("linalg.py", "RANK_TOL = 1e-10", "RANK_TOL = 1e-8", KILLED),
    Mutant("linalg.py", "ORTHO_TOL = 1e-11", "ORTHO_TOL = 1e-6", KILLED),
    Mutant(
        "linalg.py",
        "threshold = SINGULARITY_TOL * scale",
        "threshold = 1e3 * SINGULARITY_TOL * scale",
        KILLED,
    ),
    Mutant("linalg.py", "if pivot <= PD_PIVOT_TOL * diag_scale:", "if pivot <= 0:", KILLED),
    Mutant("oracles.py", "DET_AGREEMENT_RTOL = 1e-9", "DET_AGREEMENT_RTOL = 1e-6", KILLED),
    Mutant("oracles.py", "ZERO_DET_RTOL = 1e-8", "ZERO_DET_RTOL = 1e-4", KILLED),
    Mutant("oracles.py", "COSINE_PRODUCT_ATOL = 1e-9", "COSINE_PRODUCT_ATOL = 1e-6", KILLED),
    Mutant("oracles.py", "JACOBI_OFFDIAG_TOL = 1e-13", "JACOBI_OFFDIAG_TOL = 1e-9", KILLED),
    # fuzz draws and the fuzz summary
    Mutant("fuzz.py", "+ 1e-3 * np.eye(m)", "+ np.eye(m)", KILLED),
    Mutant("fuzz.py", "if slack > st.worst_slack:", "if slack < st.worst_slack:", KILLED),
    Mutant("fuzz.py", "if which != 1:", "if True:", KILLED),
    Mutant("fuzz.py", "if which != 0:", "if True:", KILLED),
    Mutant("cli.py", '"n/a" if st.worst_slack == float("-inf")', '"n/a" if True', KILLED),
    Mutant("cli.py", '"n/a" if st.worst_slack == float("-inf")', '"n/a" if False', KILLED),
    # input checks
    Mutant(
        "linalg.py",
        'np.array(entries, dtype=np.complex128, order="C")',
        "np.array(entries, dtype=np.complex128)",
        KILLED,
    ),
    Mutant("linalg.py", "if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:", "if False:", KILLED),
    Mutant(
        "linalg.py",
        "    a = np.asarray(a, dtype=np.complex128)\n    b = np.asarray(b, dtype=np.complex128)\n",
        "",
        KILLED,
    ),
    Mutant(
        "linalg.py",
        'if n != cols:\n        raise ValueError(f"weight matrix',
        'if False:\n        raise ValueError(f"weight matrix',
        KILLED,
    ),
    Mutant(
        "linalg.py",
        'if m < n:\n            raise ValueError(f"an orthonormal basis',
        'if False:\n            raise ValueError(f"an orthonormal basis',
        KILLED,
    ),
    Mutant("inequality.py", "if a.shape != b.shape:", "if False:", KILLED),
    Mutant("fuzz.py", "operator.index(value)", "pass", KILLED),
    Mutant("inequality.py", "if w.shape[1] != len(a):", "if False:", KILLED),
    # oracle branches
    Mutant("oracles.py", "if r <= threshold:", "if False:", KILLED),
    Mutant("oracles.py", "math.sqrt(e) if e > 0.0 else 0.0", "math.sqrt(e)", KILLED),
    Mutant("oracles.py", "math.log(abs(z)) if z else -math.inf", "math.log(abs(z))", KILLED),
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


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if m.verdict == KILLED], ids=_row_id)
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
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True,
        text=True,
    )
    # exit code 1: a test failed, rather than the run breaking down
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
