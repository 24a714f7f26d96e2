"""Throughput and accuracy harness for the closed-form exp/log routes.

Measures wall time per call and worst relative error against the
series/eigenphase reference routes, over input regimes chosen to probe
the numerically delicate corners: generic elements, tiny angles,
nearly coincident part eigenvalues, and part angles close to the
half-turn where the factor direction degenerates.

Accuracy is always judged against the reference implementations in
``oracle`` (or, for factorization, by the residual of the reassembled
product), never against the code under test itself.  Timings exclude
input generation and at least ten warmup calls; failed samples are
counted and excluded from both timing and accuracy aggregates.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .errors import InputError, NumericalError
from .expmap import GroupElement, exp_su3
from .factorlog import factorize, principal_log
from .invdec import AlgebraElement
from .oracle import _haar_unitary, compare, exp_reference, log_reference, random_algebra
from .smallmat import ComplexMat
from .tolerances import DEFAULT_TOL, Tolerances

TASKS = ("exp", "log", "factorize")
REGIMES = ("generic", "small-angle", "near-degenerate", "boundary")

_WARMUP = 10


@dataclasses.dataclass(frozen=True)
class BenchReport:
    """One (task, regime) measurement at a fixed seed.

    Timing fields are nanoseconds per call and vary run to run; the
    remaining fields are deterministic for a fixed seed.
    ``oracle_median_ns`` is None for the factorize task, which has no
    reference implementation to race against.
    """

    method: str
    task: str
    regime: str
    n_samples: int
    median_ns: float
    p10_ns: float
    p90_ns: float
    max_rel_err: float
    failures: int
    oracle_median_ns: float | None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _skew_from_phases(phases, rng) -> ComplexMat:
    p = _haar_unitary(rng)
    arr = p @ np.diag(1j * np.asarray(phases, dtype=np.float64)) @ p.conj().T
    # conjugation leaves ~1e-16 Hermitian dirt; strip it so the
    # algebra-element validation never trips on an engineered input
    return ComplexMat((arr - arr.conj().T) / 2.0)


def _near_degenerate_phases(rng) -> tuple[float, float, float]:
    # part eigenvalues are -phase^2/4, so a phase split eps at scale a
    # gives a lambda gap of about a*eps/2; aim that at ~1e-7
    a = rng.uniform(0.4, 1.2)
    eps = rng.uniform(1.0, 4.0) * 2e-7 / a
    s = rng.choice((-1.0, 1.0))
    return (s * a, s * (a + eps), s * (-2.0 * a - eps))


def _boundary_phases(rng) -> tuple[float, float, float]:
    # one part angle within 1e-3 of pi, i.e. one phase just short of a
    # full turn; the second phase opposes it so the closing third part
    # stays clear of the boundary itself
    delta = rng.uniform(1e-6, 1e-3)
    s = rng.choice((-1.0, 1.0))
    p1 = s * (2.0 * np.pi - 2.0 * delta)
    p2 = -s * rng.uniform(0.3, 1.5)
    return (p1, p2, -p1 - p2)


def _regime_inputs(regime: str, n: int, seed: int, tol: Tolerances) -> list[AlgebraElement]:
    if regime == "generic":
        return [random_algebra(seed + i, 1.0, tol) for i in range(n)]
    if regime == "small-angle":
        return [random_algebra(seed + i, 1e-6, tol) for i in range(n)]
    rng = np.random.default_rng(seed)
    make = _near_degenerate_phases if regime == "near-degenerate" else _boundary_phases
    return [AlgebraElement(_skew_from_phases(make(rng), rng), tol) for _ in range(n)]


def _timed_loop(fn, inputs):
    """Run fn over inputs, returning (times_ns, results, failures).

    Failed calls count toward failures only; their time is discarded.
    """
    times = []
    results = []
    failures = 0
    for x in inputs:
        t0 = time.perf_counter_ns()
        try:
            r = fn(x)
        except NumericalError:
            failures += 1
            continue
        times.append(time.perf_counter_ns() - t0)
        results.append((x, r))
    return times, results, failures


def run_bench(task: str, regime: str, n: int, seed: int,
              tol: Tolerances = DEFAULT_TOL) -> BenchReport:
    """Measure one task in one regime over n seeded samples.

    Tasks:
      exp        closed-form exponential vs the series reference
      log        principal log, judged by the reference-exponential
                 round trip exp_reference(Ln U) vs U
      factorize  three-factor split, judged by the product residual

    The log and factorize tasks act on exp_reference of the sampled
    algebra elements, so every input is genuinely special unitary.
    """
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}; expected one of {TASKS}")
    if regime not in REGIMES:
        raise InputError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    n = int(n)
    if n < 100:
        raise InputError(f"n must be at least 100, got {n}")
    s = int(seed)
    if not 0 <= s < 2**63:
        raise InputError(f"seed must be a non-negative 63-bit integer, got {seed}")

    algebra = _regime_inputs(regime, n, s, tol)

    if task == "exp":
        inputs = algebra
        fn = lambda b: exp_su3(b, tol)
        oracle_fn = exp_reference
        err_of = lambda b, u: compare(u, exp_reference(b))
    else:
        inputs = [GroupElement(exp_reference(b), tol) for b in algebra]
        if task == "log":
            fn = lambda u: principal_log(u, tol)
            oracle_fn = lambda u: log_reference(u, tol)
            err_of = lambda u, l: compare(exp_reference(l), u)
        else:
            fn = lambda u: factorize(u, tol)
            oracle_fn = None
            err_of = lambda u, f: compare(
                f.factors[0].array @ f.factors[1].array @ f.factors[2].array, u)

    _timed_loop(fn, inputs[:_WARMUP])  # warm-up; n >= 100 > _WARMUP
    times, results, failures = _timed_loop(fn, inputs)
    if not times:
        raise NumericalError(
            f"every sample failed for task={task} regime={regime}")

    oracle_median = None
    if oracle_fn is not None:
        _timed_loop(oracle_fn, inputs[:_WARMUP])
        otimes, _, _ = _timed_loop(oracle_fn, inputs)
        if otimes:
            oracle_median = float(np.percentile(otimes, 50))

    p10, p50, p90 = np.percentile(times, (10, 50, 90))
    return BenchReport(
        method="invariant",
        task=task,
        regime=regime,
        n_samples=n,
        median_ns=float(p50),
        p10_ns=float(p10),
        p90_ns=float(p90),
        max_rel_err=max(err_of(x, r) for x, r in results),
        failures=failures,
        oracle_median_ns=oracle_median,
    )


def render_table(report: BenchReport) -> str:
    """Aligned two-column plain-text rendering of a report."""
    rows = []
    for key, val in report.as_dict().items():
        if val is None:
            shown = "n/a"
        elif isinstance(val, float):
            shown = f"{val:.6g}"
        else:
            shown = str(val)
        rows.append((key, shown))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
