"""The three benchmark workloads: inputs made from the seed, one timed
operation, and the checks on its output.

Every workload is a closed loop from one process with concurrency 1.  The
program sees only the generated inputs, and it is reached through module
attributes looked up at call time (``fuzz.check_instance``, not a name imported
once), so the tracer's rebinding applies to every call.

* ``fuzz_desk``: one operation is one desk batch: 50 trials of each of the
  four ``fuzz`` ensembles at the default sizes (m, n <= 8), drawn with
  ``fuzz.draw_instance`` and checked with ``fuzz.check_instance`` as
  ``fuzz.run_fuzz`` does, each batch with a fresh seed.  Desk-scale traffic:
  the per-call overhead of the small kernels dominates.  Draws whose
  operands are conditioned worse than 1e-2 are skipped; the package fails
  at random on that tail, and a boundary slice reproduces it instead.
* ``tall_verify``: one operation is one distinct 64x32 pair through
  ``verify_inequality`` and ``enforce_equality_contract`` (plus
  ``cholesky_hpd`` of the weight for the weighted half).  Three in four
  pairs are strict (about 8 Jacobi sweeps, ~120 ms) and one in four is a
  same-span pair B = A C (no sweep, ~18 ms), so the median stays inside the
  strict mode.  A boundary slice reproducing the known defects A, B and C is
  kept on purpose.
* ``cli_check``: one operation is a fresh ``detcs verify --check --json``
  process on 12x6 matrix files; each file is run several times.  This
  reaches the interpreter and numpy import, ``matrixio`` parsing and the
  oracle cross-checks (cofactor at n = 6, Jacobi on explicit bases).

Boundary slices run untimed, and their failures are counted apart from the
timed operations, so that a fix shows as a drop in ``boundary.failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from detcs import cli, errors, fuzz, inequality, linalg, matrixio

STRICT = inequality.CaseTag.FULL_RANK_STRICT.value
SAME_SPAN = inequality.CaseTag.FULL_RANK_SAME_SPAN.value
SQUARE = inequality.CaseTag.SQUARE_EQUAL.value

# Failure kinds, in the order they are printed.  The first three are failures
# the program reports itself (an exception, a non-zero exit); the last three
# are wrong outputs it returned as if they were right.
KINDS = ("violation", "error", "exit_code", "wrong_regime", "reference_mismatch", "stdout_changed")
SILENT = frozenset(KINDS[3:])

# Tolerances of the numpy.linalg reference comparison in tall_verify.
LOG_RTOL = 1e-8   # on lhs/rhs log-magnitudes, relative to max(1, |reference|)
CORR_RTOL = 1e-8  # on the correlation |det(Qa*Qb)|, relative to the reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Stream tags: every input of a run comes from rng([seed, tag, index]).
WARMUP, TIMED, BOUNDARY = 0, 1, 2


def complex_normal(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(2.0)


def unitary(rng, n):
    q, r = np.linalg.qr(complex_normal(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def weight(rng, m):
    """A well-conditioned hermitian positive definite M: its eigenvalues lie
    near [0.5, 4.5]."""
    g = complex_normal(rng, m, m)
    return g.conj().T @ g / m + 0.5 * np.eye(m)


def same_span_pair(rng, m, n, a=None):
    """(A, A C) with C a unitary times a diagonal in [0.5, 2]; A is drawn
    unless given."""
    if a is None:
        a = complex_normal(rng, m, n)
    return a, a @ (unitary(rng, n) * rng.uniform(0.5, 2.0, n))


def conditioned(rng, m, n, low):
    """An m x n matrix (m >= n) whose singular values fall from 1 to 10**low."""
    return (unitary(rng, m)[:, :n] * np.logspace(0.0, low, n)) @ unitary(rng, n)


def child_env():
    """The environment of a child interpreter that imports detcs from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def violation_kind(exc):
    if isinstance(exc, (errors.InequalityViolation, errors.OracleError)):
        return "violation"
    return "error"


def failure_kinds(run, check):
    """Failure kinds of one untimed call: the exception it raised, or what
    ``check`` finds wrong with its result."""
    try:
        result = run()
    except errors.DetcsError as exc:
        return [violation_kind(exc)]
    return check(result)


@dataclass
class Instance:
    a: np.ndarray
    b: np.ndarray
    m: np.ndarray | None
    case: str
    label: str = ""


def spread(x):
    """Largest over smallest nonzero singular value: the condition number,
    taken over the rank a deliberately rank-deficient draw has."""
    sv = np.linalg.svd(x, compute_uv=False)
    return sv[0] / sv[sv > 1e-10 * sv[0]].min()


def expected_tag(ensemble, shape):
    """What a desk ensemble builds: shape decides m < n and m = n, the
    ensemble decides the tall regime."""
    m, n = shape
    if m < n:
        return inequality.CaseTag.WIDE_EQUAL_ZERO.value
    if m == n:
        return SQUARE
    if ensemble == "rank_deficient":
        return inequality.CaseTag.RANK_DEFICIENT_ZERO.value
    return SAME_SPAN if ensemble == "shared_span" else STRICT


@dataclass
class Batch:
    seed: int
    trials: list  # (ensemble, trial, expected tag)


class FuzzDesk:
    name = "fuzz_desk"
    trials = 50  # kept per ensemble: 200 instances per batch
    trace_ops = 10
    boundary_per_defect = 4
    # Draws whose (whitened) operands spread wider than this are skipped, so
    # every equality gap stays near 1e-12, far inside the 1e-9 tolerance.
    # Past a spread of a few thousand the package fails at random (the
    # square form of defect A); the boundary slice reproduces that instead.
    spread_max = 100.0

    def __init__(self, seed, workdir):
        self.seed = seed

    def boundary_instance(self, i):
        """The ill-conditioned tail the batches skip, made certain: a square
        same-span pair B = A C with A conditioned near 1e-5 to 1e-6, or a
        generic square pair under a weight conditioned near 1e-9 to 1e-11.
        Either way SquareEqual is the right verdict."""
        rng = np.random.default_rng([self.seed, BOUNDARY, i])
        n = int(rng.integers(6, 9))
        if i % 2 == 0:
            a, b = same_span_pair(rng, n, n, conditioned(rng, n, n, rng.uniform(-6.0, -5.0)))
            return Instance(a, b, None, SQUARE, label="A-square-span")
        u = unitary(rng, n)
        m = (u * np.logspace(0.0, -rng.uniform(9.0, 11.0), n)) @ u.conj().T
        m = (m + m.conj().T) / 2.0
        return Instance(complex_normal(rng, n, n), complex_normal(rng, n, n), m, SQUARE, label="A-square-weight")

    def prepare(self):
        self.boundary = [self.boundary_instance(i) for i in range(2 * self.boundary_per_defect)]

    def boundary_kinds(self, inst):
        def run():
            m_fac = None if inst.m is None else linalg.cholesky_hpd(inst.m)
            return fuzz.check_instance(fuzz.FuzzInstance(inst.a, inst.b, m_fac), fuzz.FuzzConfig.tol)

        return failure_kinds(run, lambda report: [] if report.case_tag.value == inst.case else ["wrong_regime"])

    @staticmethod
    def draw(seed, ensemble, trial):
        cfg = fuzz.FuzzConfig
        return fuzz.draw_instance(ensemble, fuzz.trial_rng(seed, ensemble, trial), cfg.m_max, cfg.n_max)

    def batch(self, tag, i):
        """The first ``trials`` draws of each ensemble, at the default
        sizes, that pass the spread screen."""
        seed = int(np.random.default_rng([self.seed, tag, i]).integers(2**63))
        kept = []
        for ensemble in fuzz.ENSEMBLES:
            trial = count = 0
            while count < self.trials:
                inst = self.draw(seed, ensemble, trial)
                w = None if inst.m_fac is None else inst.m_fac.w_factor
                operands = (inst.a, inst.b) if w is None else (w @ inst.a, w @ inst.b)
                if max(spread(x) for x in operands) <= self.spread_max:
                    kept.append((ensemble, trial, expected_tag(ensemble, inst.a.shape)))
                    count += 1
                trial += 1
        return Batch(seed, kept)

    def warmup_input(self):
        return self.batch(WARMUP, 0)

    def op_input(self, i):
        return self.batch(TIMED, i)

    def run(self, batch, in_process=True):
        """Draw and check each kept trial as ``fuzz.run_fuzz`` does; a
        violation raises and fails the whole batch."""
        tol = fuzz.FuzzConfig.tol
        return [fuzz.check_instance(self.draw(batch.seed, ens, trial), tol) for ens, trial, _ in batch.trials]

    def check(self, batch, reports):
        tags = [report.case_tag.value for report in reports]
        return [] if tags == [tag for _, _, tag in batch.trials] else ["wrong_regime"]

    def passed_instances(self, reports):
        return len(reports)


class TallVerify:
    name = "tall_verify"
    m, n = 64, 32
    trace_ops = 48
    boundary_per_defect = 4

    def __init__(self, seed, workdir):
        self.seed = seed

    def instance(self, tag, i):
        rng = np.random.default_rng([self.seed, tag, i])
        if i % 4 == 3:
            a, b = same_span_pair(rng, self.m, self.n)
            case = SAME_SPAN
        else:
            a, b = complex_normal(rng, self.m, self.n), complex_normal(rng, self.m, self.n)
            case = STRICT
        m = weight(rng, self.m) if (i // 4) % 2 == 1 else None
        return Instance(a, b, m, case)

    def boundary_instance(self, i):
        """ROADMAP defects: A, conditioning near 1e-9; B, span(A) tilted by
        one principal angle near 1e-4; C, a strict pair scaled by 2^+-530.
        Each pair is strict, so FullRankStrict is the right verdict."""
        rng = np.random.default_rng([self.seed, BOUNDARY, i])
        m, n = self.m, self.n
        defect = "ABC"[i % 3]
        if defect == "A":
            a = conditioned(rng, m, n, rng.uniform(-9.5, -8.5))
            b = complex_normal(rng, m, n)
        elif defect == "B":
            u = unitary(rng, m)
            theta = 1e-4 * rng.uniform(0.8, 1.2)
            tilted = u[:, :n].copy()
            tilted[:, 0] = math.cos(theta) * u[:, 0] + math.sin(theta) * u[:, n]
            a = u[:, :n] @ complex_normal(rng, n, n)
            b = tilted @ complex_normal(rng, n, n)
        else:
            scale = 2.0 ** (530 if i % 2 == 0 else -530)
            a = complex_normal(rng, m, n) * scale
            b = complex_normal(rng, m, n) * scale
        return Instance(a, b, None, STRICT, label=defect)

    def prepare(self):
        self.boundary = [
            self.boundary_instance(i) for i in range(3 * self.boundary_per_defect)
        ]

    def warmup_input(self):
        return self.instance(WARMUP, 0)

    def op_input(self, i):
        return self.instance(TIMED, i)

    def run(self, inst, in_process=True):
        m_fac = None if inst.m is None else linalg.cholesky_hpd(inst.m)
        report = inequality.verify_inequality(inst.a, inst.b, m_fac)
        inequality.enforce_equality_contract(report)
        return report

    def boundary_kinds(self, inst):
        return failure_kinds(lambda: self.run(inst), lambda report: self.check(inst, report))

    def passed_instances(self, report):
        return 1

    def check(self, inst, report):
        kinds = []
        if report.case_tag.value != inst.case:
            kinds.append("wrong_regime")
        if not matches_reference(inst, report):
            kinds.append("reference_mismatch")
        return kinds


def matches_reference(inst, report):
    """Compare lhs, rhs and correlation with numpy.linalg (slogdet, qr, svd).

    Each operand is first scaled by an exact power of two so the reference
    itself cannot overflow; the scale comes back exactly in log form.
    """
    if report.lhs_log.zero or report.rhs_log.zero or report.correlation is None:
        return False
    a, b = inst.a, inst.b
    if inst.m is not None:
        w = np.linalg.cholesky(inst.m).conj().T
        a, b = w @ a, w @ b
    n = a.shape[1]
    ka = int(np.frexp(np.abs(a).max())[1])
    kb = int(np.frexp(np.abs(b).max())[1])
    a, b = a * 2.0**-ka, b * 2.0**-kb
    log2 = math.log(2.0)
    ab = np.linalg.slogdet(a.conj().T @ b)[1] + n * (ka + kb) * log2
    aa = np.linalg.slogdet(a.conj().T @ a)[1] + 2 * n * ka * log2
    bb = np.linalg.slogdet(b.conj().T @ b)[1] + 2 * n * kb * log2
    corr = float(np.prod(np.linalg.svd(np.linalg.qr(a)[0].conj().T @ np.linalg.qr(b)[0], compute_uv=False)))
    lhs_ok = abs(report.lhs_log.log_magnitude - 2.0 * ab) <= LOG_RTOL * max(1.0, abs(2.0 * ab))
    rhs_ok = abs(report.rhs_log.log_magnitude - (aa + bb)) <= LOG_RTOL * max(1.0, abs(aa + bb))
    return lhs_ok and rhs_ok and abs(report.correlation - min(corr, 1.0)) <= CORR_RTOL * corr


class CliCheck:
    name = "cli_check"
    m, n = 12, 6
    files = 8  # each is run several times, so stdout can be compared across runs
    trace_ops = 48
    # the body of the ``detcs`` console script (entry point detcs.cli:run)
    entry = "import sys; from detcs.cli import run; sys.exit(run())"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.stdout = {}

    def prepare(self):
        """Write one warm-up set and ``files`` timed sets: strict and
        same-span alternate, and every other pair of sets carries --m."""
        self.sets = [self.write_set(WARMUP, 0)]
        self.sets += [self.write_set(TIMED, i) for i in range(self.files)]

    def write_set(self, tag, i):
        rng = np.random.default_rng([self.seed, tag, i])
        if i % 2 == 1:
            a, b = same_span_pair(rng, self.m, self.n)
            case = SAME_SPAN
        else:
            a, b = complex_normal(rng, self.m, self.n), complex_normal(rng, self.m, self.n)
            case = STRICT
        stem = os.path.join(self.workdir, f"set{tag}-{i}")
        argv = ["verify", "--a", stem + "-a.mat", "--b", stem + "-b.mat", "--check", "--json"]
        matrixio.save_matrix(stem + "-a.mat", a)
        matrixio.save_matrix(stem + "-b.mat", b)
        if (i // 2) % 2 == 1:
            matrixio.save_matrix(stem + "-m.mat", weight(rng, self.m))
            argv += ["--m", stem + "-m.mat"]
        return (tag, i), argv, case

    def warmup_input(self):
        return self.sets[0]

    def op_input(self, i):
        return self.sets[1 + i % self.files]

    def run(self, file_set, in_process=False):
        _, argv, _ = file_set
        if in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", self.entry, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    def passed_instances(self, result):
        return int(result[0] == 0)

    def check(self, file_set, result):
        key, _, case = file_set
        code, stdout = result
        if code != 0:
            return ["exit_code"]
        try:
            printed = json.loads(stdout).get("case")
        except (ValueError, AttributeError):
            printed = None
        kinds = [] if printed == case else ["wrong_regime"]
        if self.stdout.setdefault(key, stdout) != stdout:
            kinds.append("stdout_changed")
        return kinds


WORKLOADS = {w.name: w for w in (FuzzDesk, TallVerify, CliCheck)}
