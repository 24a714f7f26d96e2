"""Seeded input generators for the benchmark, numpy only.

Nothing here imports su3kit: the inputs a seed produces must not move
when the library changes.  Every generator yields raw complex128 arrays
(or JSON text built from them); the program under test receives nothing
else.
"""

from __future__ import annotations

import json
import math

import numpy as np

_S3 = 1.0 / math.sqrt(3.0)

# Gell-Mann matrices, written out so the inputs do not depend on
# su3kit.gellmann.
GELL_MANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[_S3, 0, 0], [0, _S3, 0], [0, 0, -2.0 * _S3]],
    ],
    dtype=np.complex128,
)

WORKLOAD_STREAMS = {"exp-stream": 1, "log-haar": 2, "hard-regimes": 3, "cli-docs": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """One PCG64 stream per (workload, seed) pair."""
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_STREAMS[workload]]))


def fixed_rng(workload: str) -> np.random.Generator:
    """A seed-independent PCG64 stream for the workload's FIXED_FAMILIES.

    The spawn key keeps it apart from every rng_for stream.
    """
    return np.random.default_rng(np.random.SeedSequence(WORKLOAD_STREAMS[workload], spawn_key=(0,)))


def _skew(a: np.ndarray) -> np.ndarray:
    return (a - a.conj().T) / 2.0


def algebra(rng, scale: float = 1.0) -> np.ndarray:
    """i * scale * sum_a c_a lambda_a with c_a ~ N(0, 1)."""
    c = rng.standard_normal(8)
    return 1j * scale * np.tensordot(c, GELL_MANN, axes=1)


def small_algebra(rng) -> np.ndarray:
    """Step-size-like element: the generic one scaled log-uniformly in 1e-6..1e-2."""
    return algebra(rng, 10.0 ** rng.uniform(-6.0, -2.0))


def haar_unitary(rng, n: int = 3) -> np.ndarray:
    """Haar U(n): complex Gaussian, QR, R-diagonal phases moved into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_su3(rng) -> np.ndarray:
    q = haar_unitary(rng)
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / 3.0)


def from_phases(phases, rng) -> tuple[np.ndarray, np.ndarray]:
    """(B, U) with B = P diag(i phases) P^H in su(3) and U = exp(B) = P diag(e^{i phases}) P^H.

    The part angles of B are |phase_k| / 2.  U is built from the same
    basis, so the log-side input does not come from the route under test.
    """
    ph = np.asarray(phases, dtype=np.float64)
    p = haar_unitary(rng)
    b = _skew((p * (1j * ph)) @ p.conj().T)
    u = (p * np.exp(1j * ph)) @ p.conj().T
    return b, u


# -- hard-regime families --------------------------------------------------------
# Each returns three phases summing to zero.  A phase of magnitude 2 beta
# gives a part angle beta.

def near_degenerate_phases(rng):
    # part eigenvalues -phase^2/4 split by about a*eps/2: a gap near 1e-7
    a = rng.uniform(0.4, 1.2)
    eps = rng.uniform(1.0, 4.0) * 2e-7 / a
    s = rng.choice((-1.0, 1.0))
    return (s * a, s * (a + eps), -s * (2.0 * a + eps))


def boundary_phases(rng):
    # one part angle within 1e-3 of pi; the second phase opposes it so
    # the third part stays clear of the boundary
    delta = rng.uniform(1e-6, 1e-3)
    s = rng.choice((-1.0, 1.0))
    p1 = s * (2.0 * math.pi - 2.0 * delta)
    p2 = -s * rng.uniform(0.3, 1.5)
    return (p1, p2, -p1 - p2)


def cos_zero_phases(rng, offset: float = 0.0):
    # one part angle pi/2 + offset, so cos(beta_1) and with it g0 vanish
    # (offset 0) or nearly vanish; the others stay within (0.8, 1.45)
    s = rng.choice((-1.0, 1.0))
    p1 = s * (math.pi + 2.0 * offset)
    p2 = -s * rng.uniform(0.3, 1.5)
    return (p1, p2, -p1 - p2)


def near_cos_zero_phases(rng):
    # part angle within 5e-8..5e-6 of pi/2, either side: the band where
    # factorize reports "closing factor is not simple" today
    off = 10.0 ** rng.uniform(math.log10(5e-8), math.log10(5e-6))
    return cos_zero_phases(rng, off * rng.choice((-1.0, 1.0)))


HARD_FAMILIES = (
    ("near_degenerate", near_degenerate_phases),
    ("boundary", boundary_phases),
    ("cos_zero", cos_zero_phases),
    ("near_cos_zero", near_cos_zero_phases),
)

# Families drawn from fixed_rng rather than the seeded stream: the same
# inputs at every seed, so the count of their known failures is a
# property of the code under test rather than of the seed.
FIXED_FAMILIES = ("near_cos_zero",)


# -- CLI documents ---------------------------------------------------------------

def diagonalizable(rng, n: int) -> np.ndarray:
    """V diag(w) V^-1 with a well-conditioned V and a separated spectrum."""
    v = haar_unitary(rng, n) + 0.2 * haar_unitary(rng, n)
    w = (np.arange(1, n + 1) + rng.uniform(-0.3, 0.3, n)) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    return (v * w) @ np.linalg.inv(v)


def matrix_document(a: np.ndarray) -> str:
    entries = [[[z.real, z.imag] for z in row] for row in a.tolist()]
    return json.dumps({"n": a.shape[0], "entries": entries})
