"""Self-checks of the benchmark's tracer and output checks.

    python3 -m pytest perfbench

The tracer check runs one fixed full-rank strict 8x4 instance and requires
the kernel counts the ROADMAP lists for such an instance, so a binding the
tracer missed fails here instead of reading as a faster layer.
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from detcs import inequality, linalg  # noqa: E402
from run import MIN_OPS, tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SQUARE, STRICT, CliCheck, FuzzDesk, Instance, TallVerify, complex_normal, spread  # noqa: E402


def traced_calls(fn):
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unbound() == []
        tracer.on = True
        result = fn()
        tracer.on = False
    finally:
        tracer.uninstall()
    return result, {name: rec["calls"] for name, rec in tracer.totals().items()}


def test_strict_8x4_kernel_counts():
    rng = np.random.default_rng(8)
    a, b = complex_normal(rng, 8, 4), complex_normal(rng, 8, 4)
    report, calls = traced_calls(lambda: inequality.verify_inequality(a, b))
    assert report.case_tag is inequality.CaseTag.FULL_RANK_STRICT
    assert calls["linalg.estimate_rank"] == 2
    assert calls["linalg.qr_thin"] == 4
    assert calls["linalg.matmul"] == 6
    assert calls["linalg.log_det"] == 4
    assert calls["oracles.hermitian_eigenvalues"] == 1
    assert calls["oracles.jacobi_sweep"] >= 1


def test_rebinding_reaches_every_namespace_and_is_undone():
    original = linalg.qr_thin
    tracer = Tracer()
    tracer.install()
    try:
        assert inequality.qr_thin is linalg.qr_thin is not original
        assert linalg.qr_thin.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert inequality.qr_thin is linalg.qr_thin is original
    assert tracer.unbound() != []


def test_absent_function_is_reported_not_raised():
    tracer = Tracer()
    tracer.names.append("linalg.no_such_kernel")
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["linalg.no_such_kernel"]
    assert tracer.totals()["linalg.no_such_kernel"]["calls"] == 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.present = ["linalg.qr_thin", "linalg.matmul"]
    tracer.spans.extend([(0, 0, 100, -1, 0, 0.0), (1, 10, 40, 0, 0, 5.0), (1, 50, 70, 0, 0, 5.0)])
    totals = tracer.totals()
    assert totals["linalg.qr_thin"] == {"calls": 1, "self_ns": 50, "flops": 0.0}
    assert totals["linalg.matmul"] == {"calls": 2, "self_ns": 50, "flops": 10.0}


def test_tall_verify_check_catches_wrong_outputs():
    workload = TallVerify(seed=3, workdir=None)
    for i in (0, 3):  # one strict pair, one same-span pair
        inst = workload.op_input(i)
        report = workload.run(inst)
        assert workload.check(inst, report) == []
        bent = dataclasses.replace(report, correlation=report.correlation * (1 - 1e-6))
        assert workload.check(inst, bent) == ["reference_mismatch"]
        other = next(tag for tag in inequality.CaseTag if tag is not report.case_tag)
        assert "wrong_regime" in workload.check(inst, dataclasses.replace(report, case_tag=other))


def test_fuzz_desk_check_catches_wrong_tags():
    workload = FuzzDesk(seed=3, workdir=None)
    batch = workload.op_input(0)
    reports = workload.run(batch)
    assert workload.check(batch, reports) == []
    k = next(k for k, (ens, _, _) in enumerate(batch.trials) if ens == "rank_deficient")
    reports[k] = dataclasses.replace(reports[k], case_tag=inequality.CaseTag.FULL_RANK_STRICT)
    assert workload.check(batch, reports) == ["wrong_regime"]


def test_spread_ignores_deliberate_rank_deficiency():
    rng = np.random.default_rng(1)
    rank2 = complex_normal(rng, 6, 2) @ complex_normal(rng, 2, 4)
    sv = np.linalg.svd(rank2, compute_uv=False)
    assert spread(rank2) == sv[0] / sv[1]


def test_fuzz_desk_boundary_check_passes_a_sound_square_pair():
    workload = FuzzDesk(seed=3, workdir=None)
    rng = np.random.default_rng(5)
    a, b = complex_normal(rng, 6, 6), complex_normal(rng, 6, 6)
    assert workload.boundary_kinds(Instance(a, b, None, SQUARE)) == []
    assert workload.boundary_kinds(Instance(a, b, None, STRICT)) == ["wrong_regime"]
    workload.prepare()
    assert {inst.a.shape[0] == inst.a.shape[1] for inst in workload.boundary} == {True}


def test_cli_check_catches_exit_code_case_and_changed_stdout(tmp_path):
    workload = CliCheck(seed=3, workdir=str(tmp_path))
    workload.prepare()
    strict = workload.op_input(0)
    code, stdout = workload.run(strict, in_process=True)
    assert workload.check(strict, (code, stdout)) == []
    assert workload.check(strict, (code, stdout)) == []
    assert workload.check(strict, (3, "")) == ["exit_code"]
    assert workload.check(strict, (0, stdout.replace("}", ', "x": 1}'))) == ["stdout_changed"]
    same_span = workload.op_input(1)
    assert workload.check(same_span, (code, stdout)) == ["wrong_regime"]


def test_tail_keeps_ten_samples_beyond_it_from_min_ops_on():
    for n in (MIN_OPS, MIN_OPS + 1, MIN_OPS + 9, 3 * MIN_OPS + 7):
        value, beyond = tail([float(i) for i in range(n, 0, -1)])
        assert beyond >= 10
        assert sum(x > value for x in range(1, n + 1)) == beyond
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 10)
