"""The benchmark's own reference ops: a plain numpy route plus small-call work.

Each route op is followed, on the same input, by one reference op, and
latency is reported as the ratio of the two.  The machine this was
built on drifts by about 2x within seconds, and the drift does not slow
all code alike: LAPACK calls slowed about 2.4x, small numpy calls and
the interpreter less, and the route (which is mostly small numpy calls
on 3x3 arrays) about 1.85x.  With an eig-only reference the ratio still
moved 9-17% between 400-op windows; adding SMALL_CALL_ROUNDS rounds of
3x3 product, norm, finiteness test and trace on the input brought that
to 1-2% at the median.

None of this calls su3kit: su3kit.oracle.log_reference runs
smallmat.eigen_normal3, which is on the route under test.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

SMALL_CALL_ROUNDS = 16

# speed_probe's median on the build machine in its fast state (2-vCPU
# Intel Xeon VM, numpy 2.4.6, one BLAS thread)
SPEED_NOMINAL_US = 200.0
_PROBE_INPUT = 1j * np.array([[0.3, 0.2 - 0.1j, 0.5j], [0.2 + 0.1j, -0.1, 0.4], [-0.5j, 0.4, -0.2]])


def eig_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) by np.linalg.eig -> exp -> V diag V^-1."""
    w, v = np.linalg.eig(a)
    return v @ np.diag(np.exp(w)) @ np.linalg.inv(v)


def eig_log(a: np.ndarray) -> np.ndarray:
    """Principal log of a unitary by np.linalg.eig -> angle -> V diag V^-1."""
    w, v = np.linalg.eig(a)
    return v @ np.diag(1j * np.angle(w)) @ np.linalg.inv(v)


def small_calls(a: np.ndarray, rounds: int = SMALL_CALL_ROUNDS) -> complex:
    """Fixed small-array work on the input, the kind of call su3kit makes most."""
    t = 0j
    for _ in range(rounds):
        b = a @ a
        t += float(np.linalg.norm(b)) + bool(np.all(np.isfinite(b))) + complex(np.trace(b))
    return t


def exp_ref(a: np.ndarray):
    return eig_exp(a), small_calls(a)


def log_ref(a: np.ndarray):
    return eig_log(a), small_calls(a)


def cli_ref(text: str, eig):
    """json.loads + eig route + json.dumps, the CLI-shaped reference."""
    d = json.loads(text)
    a = np.array([[complex(re, im) for re, im in row] for row in d["entries"]])
    r = eig(a)
    out = json.dumps({"entries": [[[z.real, z.imag] for z in row] for row in r.tolist()]})
    return out, small_calls(a)


def speed_probe(calls: int = 30) -> float:
    """Median microseconds of exp_ref on a fixed su(3) input: the current machine speed."""
    for _ in range(5):
        exp_ref(_PROBE_INPUT)
    times = []
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        exp_ref(_PROBE_INPUT)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3
