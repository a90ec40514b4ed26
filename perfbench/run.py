"""detcs benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload fuzz_desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing else.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``metrics`` holds
exactly the metrics ``BENCHMARK.json`` lists for the mode, and the lines
before it print the rest.

``--trace 0`` measures the end-to-end metrics with tracing off: operations
run until their summed wall time reaches ``--seconds`` and at least
``MIN_OPS`` ran, and each output is checked outside the timed region.  ``--trace 1`` gives the per-layer
metrics instead: a fixed number of operations per workload (so call counts
repeat exactly for a seed) each run twice, once untraced and once traced in
alternating order, and the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread: the loop has concurrency 1, and idle BLAS workers spinning
# on a second core would tie the timings to whatever else shares the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
if __name__ == "__main__" and not os.path.isfile(os.path.join(SRC, "detcs", "__init__.py")):
    sys.exit(f"error: no detcs package under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import detcs  # noqa: E402
from detcs.errors import DetcsError  # noqa: E402
from tracer import FLOPS, Tracer, function_names  # noqa: E402
from workloads import KINDS, SILENT, WORKLOADS, child_env, violation_kind  # noqa: E402

SETUPS = 9  # set-up is repeated, before and after the timed loop, and its median reported
# The tail is a fixed percentile, and a run times at least MIN_OPS operations
# so that ten samples lie beyond it.  The highest percentile with ten samples
# beyond it moved with every short stall of the shared machine.
TAIL_PCT = 90
MIN_OPS = 100

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import detcs.cli; "
    "print(time.perf_counter() - t, detcs.cli.__file__)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def import_seconds():
    """Import time of detcs.cli in a fresh interpreter, as the child measures it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"the child imported detcs from {path}, not from {SRC}")
    return float(seconds)


def call(workload, inp, in_process):
    """Run one operation: (seconds, result or None, exception or None)."""
    start = time.perf_counter()
    try:
        result = workload.run(inp, in_process=in_process)
    except DetcsError as exc:
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


class Tally:
    """Outcomes of checked operations.

    An operation fails when it raises, exits non-zero or fails a check.  A
    wrong output returned as if it were right (a ``SILENT`` kind) also makes
    the run incorrect.  Instances count when they completed and passed.
    """

    def __init__(self):
        self.kinds = collections.Counter()
        self.attempted = self.failed = self.instances = 0

    def add(self, kinds, instances=0):
        self.attempted += 1
        self.failed += bool(kinds)
        self.kinds.update(kinds)
        if not SILENT.intersection(kinds):
            self.instances += instances

    def add_call(self, workload, inp, result, exc):
        if exc is not None:
            self.add([violation_kind(exc)])
        else:
            self.add(workload.check(inp, result), workload.passed_instances(result))

    @property
    def correct(self):
        return not any(self.kinds[k] for k in SILENT)

    def report(self, label):
        frac = self.failed / self.attempted if self.attempted else 0.0
        kinds = " ".join(f"{k}={self.kinds[k]}" for k in KINDS)
        print(f"{label}: failed_frac {frac!r} ratio (failed {self.failed} of {self.attempted} attempted; {kinds})")

    def result(self, metrics):
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def setup(workload, count):
    """Import, input generation, file writing and one warm-up operation.

    The in-process import already happened, so each set-up counts the
    import of a fresh interpreter instead.  Returns the per-set-up seconds
    and the import seconds.
    """
    totals, imports = [], []
    for _ in range(count):
        imp = import_seconds()
        start = time.perf_counter()
        workload.prepare()
        call(workload, workload.warmup_input(), in_process=False)
        totals.append(imp + time.perf_counter() - start)
        imports.append(imp)
    return totals, imports


def tail(samples):
    """(value, samples beyond it): the TAIL_PCT percentile by nearest rank."""
    ordered = sorted(samples)
    k = math.ceil(TAIL_PCT / 100.0 * len(ordered)) - 1
    return ordered[k], len(ordered) - k - 1


def timed_loop(workload, seconds):
    """Closed loop until the summed operation time reaches ``seconds`` and
    at least MIN_OPS operations ran; input generation and checks stay
    outside the timed region."""
    durations, tally = [], Tally()
    wall_cap = time.perf_counter() + 2 * seconds + 30
    while (sum(durations) < seconds or len(durations) < MIN_OPS) and time.perf_counter() < wall_cap:
        inp = workload.op_input(len(durations))
        dt, result, exc = call(workload, inp, in_process=False)
        durations.append(dt)
        tally.add_call(workload, inp, result, exc)
    return durations, tally


def boundary_slice(workload):
    """Run the known-defect slice untimed and report it by defect."""
    by_defect = collections.defaultdict(Tally)
    for inst in getattr(workload, "boundary", []):
        by_defect[inst.label].add(workload.boundary_kinds(inst))
    for defect, tally in sorted(by_defect.items()):
        tally.report(f"boundary slice, defect {defect} (known, kept on purpose, untimed)")
    return sum(t.attempted for t in by_defect.values()), sum(t.failed for t in by_defect.values())


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")


def end_to_end(workload, args):
    # half the set-ups after the timed loop, so a slow spell of the machine
    # at the start of a run does not decide the median
    setups, _ = setup(workload, SETUPS - SETUPS // 2)
    durations, tally = timed_loop(workload, args.seconds)
    setups += setup(workload, SETUPS // 2)[0]
    boundary_slice(workload)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_check" else resource.RUSAGE_SELF
    tail_s, beyond = tail(durations)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "instances_per_s": metric(tally.instances / sum(durations), "1/s"),
        "latency_p50_ms": metric(1000.0 * statistics.median(durations), "ms"),
        "latency_tail_ms": metric(1000.0 * tail_s, "ms"),
        "peak_rss_mib": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }
    print_metrics(metrics)
    print(f"  setup_s: median of {len(setups)} set-ups, {SETUPS - SETUPS // 2} before and {SETUPS // 2} after the timed operations")
    print("  instances_per_s and latency_p50_ms are printed, not gated (see perfbench/README.md)")
    print(f"  latency: {len(durations)} operations; latency_tail_ms is p{TAIL_PCT} ({beyond} samples beyond it)")
    print(f"  instances_per_s: {tally.instances} instances passed in {sum(durations)!r} s timed")
    tally.report("timed operations")
    return tally.result(metrics)


def per_layer(workload, args):
    _, imports = setup(workload, SETUPS)
    tracer = Tracer()
    tracer.install()
    missed = tracer.unbound()
    if missed:
        raise RuntimeError(f"tracer left untraced bindings: {missed}")
    call(workload, workload.warmup_input(), in_process=True)
    seconds = {False: 0.0, True: 0.0}
    tally = Tally()
    for i in range(workload.trace_ops):
        inp = workload.op_input(i)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.instance = i
            tracer.on = traced
            dt, result, exc = call(workload, inp, in_process=True)
            tracer.on = False
            seconds[traced] += dt
            tally.add_call(workload, inp, result, exc)
    b_attempted, b_failed = boundary_slice(workload)
    tracer.uninstall()
    spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
    tracer.write(spans_path)

    ops = workload.trace_ops
    totals = tracer.totals()
    metrics = {}
    for name in function_names():
        rec = totals[name]
        metrics[f"{name}.calls"] = metric(rec["calls"] / ops, "calls/op")
        metrics[f"{name}.self_ms"] = metric(rec["self_ns"] / 1e6 / ops, "ms/op")
        metrics[f"{name}.share"] = metric(rec["self_ns"] / 1e9 / seconds[True], "ratio")
    for name in FLOPS:
        metrics[f"{name}.flops"] = metric(totals[name]["flops"] / ops, "computed_flop/op")
    metrics["cli.import_ms"] = metric(1000.0 * statistics.median(imports), "ms")
    metrics["trace.overhead_frac"] = metric(seconds[True] / seconds[False] - 1.0, "ratio")
    metrics["boundary.attempted"] = metric(b_attempted, "count")
    metrics["boundary.failed"] = metric(b_failed, "count")
    print_metrics(metrics)
    print(f"  traced {ops} operations, each run once untraced and once traced")
    if tracer.absent:
        print(f"  absent (reported as 0): {', '.join(tracer.absent)}")
    print("  flops are computed from argument shapes, not measured")
    print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    tally.report("traced operations")
    return tally.result(metrics)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.abspath(detcs.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: detcs was imported from {detcs.__file__}, not from {SRC}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = (per_layer if args.trace else end_to_end)(workload, args)
    # the result carries exactly the metrics BENCHMARK.json lists for this mode;
    # the others are printed above for reading only
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    result["metrics"] = {name: result["metrics"][name] for name in listed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
