"""Outside-in layer tracer for the detcs benchmark.

The package's modules import each other's functions by name
(``from .linalg import qr_thin``), so a function lives in several module
namespaces at once.  ``Tracer.install`` rebinds every listed function in
every loaded ``detcs`` namespace that holds it, found by object identity,
and ``Tracer.unbound`` lists any namespace still holding an original, so a
missed binding is visible instead of silently dropping calls.  Callers must
look functions up through module attributes after ``install``.

Spans (name, start, end, parent, instance id, computed flops) stay in
memory while tracing and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

PACKAGE = "detcs"

# The functions traced, by module.  A name a later version removes is
# reported as absent rather than failing the run.
LAYERS = {
    "linalg": ("as_matrix", "matmul", "qr_thin", "estimate_rank", "log_det", "cholesky_hpd"),
    "oracles": (
        "hermitian_eigenvalues",
        "jacobi_sweep",
        "det_cofactor",
        "principal_angle_cosines",
    ),
    "inequality": (
        "verify_inequality",
        "classify_case",
        "subspace_equal",
        "det_correlation",
        "whitened_pair",
        "enforce_equality_contract",
    ),
    "fuzz": ("run_fuzz", "draw_instance", "check_instance"),
    "matrixio": ("load_matrix",),
    "cli": ("run",),
}


def _shape(x):
    return getattr(x, "shape", None) or (0, 0)


def _qr_flops(m, n):
    # complex Householder: 4x the real 2mn^2 - 2n^3/3, once for R and once
    # more to accumulate the thin Q
    return 8.0 * (2.0 * m * n * n - 2.0 * n**3 / 3.0)


# Floating-point operations computed from argument shapes (complex arithmetic,
# 8 real flops per multiply-add); these are not measured counters.
FLOPS = {
    "linalg.matmul": lambda a, b, *_, **__: 8.0 * _shape(a)[0] * _shape(a)[1] * _shape(b)[1],
    "linalg.qr_thin": lambda a, *_, **__: _qr_flops(*_shape(a)),
    "linalg.estimate_rank": lambda a, *_, **__: _qr_flops(*_shape(a)) / 2.0,
    "linalg.log_det": lambda a, *_, **__: 8.0 * _shape(a)[0] ** 3 / 3.0,
}


def function_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records one span per call of each traced function while ``on``."""

    def __init__(self):
        self.names = function_names()
        self.present = []
        self.absent = []
        self.on = False
        self.instance = -1
        self.spans = []
        self._stack = []
        self._restore = []
        self._originals = {}  # id -> function; holding them keeps the ids unique

    def install(self):
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module the layers live in
        wrappers = {}
        for name in self.names:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            self._originals[id(original)] = original
            wrappers[id(original)] = self._wrap(len(self.present), name, original)
            self.present.append(name)
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []

    def unbound(self):
        """(module, attribute) pairs that still hold an untraced original."""
        return [
            (module.__name__, attr)
            for module in self._package_modules()
            for attr, value in vars(module).items()
            if id(value) in self._originals
        ]

    @staticmethod
    def _package_modules():
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _wrap(self, fid, name, fn):
        flops = FLOPS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            work = flops(*args, **kwargs) if flops is not None else 0.0
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.instance, work)

        return traced

    def totals(self):
        """Per traced function: calls, self ns and computed flops.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for fid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "self_ns": 0, "flops": 0.0} for name in self.names}
        for idx, (fid, start, end, _, _, work) in enumerate(self.spans):
            rec = out[self.present[fid]]
            rec["calls"] += 1
            rec["self_ns"] += end - start - child_ns[idx]
            rec["flops"] += work
        return out

    def write(self, path):
        """Write every span as one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "instance", "flops"]}) + "\n")
            for fid, start, end, parent, instance, work in self.spans:
                fh.write(json.dumps([self.present[fid], start, end, parent, instance, work]) + "\n")
