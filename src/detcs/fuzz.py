"""Seeded randomized verification over four instance ensembles.

Each ensemble targets one regime: ``ginibre`` draws independent complex
normal pairs, ``rank_deficient`` builds tall factors with a deliberate rank
gap, ``shared_span`` sets B = A C for nonsingular C, and ``weighted`` adds a
random positive definite weight M = G*G + 1e-3 I.

The stream for trial t of an ensemble is seeded by (seed, ensemble index,
t), with the index taken in the canonical ensemble order, so an instance is
reproducible no matter which subset of ensembles a run selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InequalityViolation
from .inequality import (
    ENSEMBLES,
    EQUALITY_TOL,
    CaseTag,
    CsReport,
    _check_tol,
    verify_inequality,
)
from .linalg import HpdFactor, cholesky_hpd, conj_transpose, matmul


@dataclass(frozen=True)
class FuzzConfig:
    trials: int
    seed: int
    m_max: int = 8
    n_max: int = 8
    ensembles: tuple[str, ...] = ENSEMBLES
    tol: float = EQUALITY_TOL

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.m_max < 1 or self.n_max < 1:
            raise ValueError("m_max and n_max must be at least 1")
        if not self.ensembles:
            raise ValueError("at least one ensemble is required")
        unknown = [e for e in self.ensembles if e not in ENSEMBLES]
        if unknown:
            raise ValueError(
                f"unknown ensemble(s) {unknown}; choose from {', '.join(ENSEMBLES)}"
            )
        if len(set(self.ensembles)) < len(self.ensembles):
            raise ValueError(f"each ensemble may be named once, got {', '.join(self.ensembles)}")
        _check_tol(self.tol)


@dataclass(frozen=True)
class FuzzInstance:
    a: np.ndarray
    b: np.ndarray
    m_fac: HpdFactor | None


@dataclass
class Violation:
    ensemble: str
    trial: int
    instance: FuzzInstance
    message: str


@dataclass
class EnsembleStats:
    name: str
    passes: int = 0
    violations: int = 0
    worst_slack: float = float("-inf")
    tag_counts: dict = field(default_factory=dict)


@dataclass
class FuzzSummary:
    config: FuzzConfig
    stats: list[EnsembleStats]
    violations: list[Violation]

    @property
    def total_trials(self) -> int:
        return sum(s.passes + s.violations for s in self.stats)

    @property
    def passed(self) -> bool:
        return not self.violations


def complex_normal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Independent standard complex normal entries."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(2.0)


def trial_rng(seed: int, ensemble: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, ENSEMBLES.index(ensemble), trial])


def draw_instance(ensemble: str, rng: np.random.Generator, m_max: int, n_max: int) -> FuzzInstance:
    if ensemble == "ginibre":
        m = int(rng.integers(1, m_max + 1))
        n = int(rng.integers(1, n_max + 1))
        return FuzzInstance(complex_normal(rng, m, n), complex_normal(rng, m, n), None)
    if ensemble == "rank_deficient":
        if m_max < 3 or n_max < 2:
            # no room for m > n >= 2 with a rank gap; fall back to plain draws
            return draw_instance("ginibre", rng, m_max, n_max)
        m = int(rng.integers(3, m_max + 1))
        n = int(rng.integers(2, min(n_max, m - 1) + 1))
        r = int(rng.integers(1, n))
        which = int(rng.integers(0, 3))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        if which != 1:
            a = matmul(complex_normal(rng, m, r), complex_normal(rng, r, n))
        if which != 0:
            b = matmul(complex_normal(rng, m, r), complex_normal(rng, r, n))
        return FuzzInstance(a, b, None)
    if ensemble == "shared_span":
        m = int(rng.integers(1, m_max + 1))
        n = int(rng.integers(1, min(n_max, m) + 1))
        a = complex_normal(rng, m, n)
        c = complex_normal(rng, n, n)
        return FuzzInstance(a, matmul(a, c), None)
    if ensemble == "weighted":
        m = int(rng.integers(1, m_max + 1))
        n = int(rng.integers(1, n_max + 1))
        a = complex_normal(rng, m, n)
        b = complex_normal(rng, m, n)
        g = complex_normal(rng, m, m)
        weight = matmul(conj_transpose(g), g) + 1e-3 * np.eye(m)
        return FuzzInstance(a, b, cholesky_hpd(weight))
    raise ValueError(f"unknown ensemble {ensemble!r}")


def check_instance(instance: FuzzInstance, tol: float) -> CsReport:
    """verify_inequality on the instance: a breach of the bound or of the
    equality contract raises InequalityViolation."""
    return verify_inequality(instance.a, instance.b, instance.m_fac, tol=tol)


def run_fuzz(config: FuzzConfig) -> FuzzSummary:
    stats = []
    violations = []
    for ensemble in config.ensembles:
        st = EnsembleStats(name=ensemble, tag_counts={tag.value: 0 for tag in CaseTag})
        for trial in range(config.trials):
            rng = trial_rng(config.seed, ensemble, trial)
            instance = draw_instance(ensemble, rng, config.m_max, config.n_max)
            try:
                report = check_instance(instance, config.tol)
            except InequalityViolation as exc:
                st.violations += 1
                violations.append(Violation(ensemble, trial, instance, str(exc)))
                continue
            st.passes += 1
            st.tag_counts[report.case_tag.value] += 1
            if not report.lhs_log.zero and not report.rhs_log.zero:
                slack = report.lhs_log.log_magnitude - report.rhs_log.log_magnitude
                if slack > st.worst_slack:
                    st.worst_slack = slack
        stats.append(st)
    return FuzzSummary(config=config, stats=stats, violations=violations)
