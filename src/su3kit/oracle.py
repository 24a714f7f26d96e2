"""Independent reference routes and random sampling.

Everything here exists to check the closed-form machinery against
textbook algorithms that share none of its code: the exponential by
scaling-and-squaring of a truncated Taylor series, the logarithm by
direct eigenphase extraction, and seeded Haar/Gaussian sampling.  The
generator is numpy's PCG64 (published constants), so fixed seeds give
identical streams wherever the package runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NotUnitary
from .expmap import GroupElement
from .invdec import AlgebraElement
from .gellmann import LAMBDAS
from .smallmat import ComplexMat, _as_mat, eigen_general, eigen_normal3
from .tolerances import DEFAULT_TOL, Tolerances

_TAYLOR_ORDER = 18


def _check_seed(seed: int) -> int:
    s = int(seed)
    if not 0 <= s < 2**64:
        raise InputError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return s


def exp_reference(b) -> ComplexMat:
    """Matrix exponential by scaling and squaring.

    The argument is halved until its Frobenius norm is at most 0.5,
    a degree-18 Taylor polynomial is evaluated by Horner's scheme
    (remainder below 1e-22 at that norm), and the result is squared
    back up.
    """
    arr = _as_mat(b).array
    n = arr.shape[0]
    nrm = float(np.linalg.norm(arr))
    squarings = max(0, math.ceil(math.log2(nrm / 0.5))) if nrm > 0.5 else 0
    t = arr / (2.0**squarings)
    out = np.eye(n, dtype=np.complex128)
    for k in range(_TAYLOR_ORDER, 0, -1):
        out = np.eye(n) + (t / k) @ out
    for _ in range(squarings):
        out = out @ out
    return ComplexMat(out)


def log_reference(u, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Skew-Hermitian logarithm of a unitary by eigenphase extraction.

    Eigenvalues are unit-modulus; their phases are taken in (-pi, pi]
    and reassembled as P diag(i theta) P^{-1}, with a final projection
    onto the skew-Hermitian subspace to strip round-off.
    """
    arr = _as_mat(u).array
    n = arr.shape[0]
    dev = float(np.linalg.norm(arr.conj().T @ arr - np.eye(n)))
    if dev > tol.grp_tol:
        raise NotUnitary(f"unitarity residual {dev:.3e} exceeds grp_tol")
    es = eigen_normal3(arr, tol) if n == 3 else eigen_general(arr, tol)
    phases = np.array([math.atan2(v.imag, v.real) for v in es.values])
    log = es.vectors.array @ np.diag(1j * phases) @ es.inverse_vectors.array
    return ComplexMat((log - log.conj().T) / 2.0)


def random_algebra(seed: int, scale: float = 1.0, tol: Tolerances = DEFAULT_TOL) -> AlgebraElement:
    """Random su(3) element i * scale * sum_a c_a lambda_a, c_a ~ N(0, 1)."""
    if scale <= 0.0:
        raise InputError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(_check_seed(seed))
    coeffs = rng.standard_normal(8)
    total = np.zeros((3, 3), dtype=np.complex128)
    for c, g in zip(coeffs, LAMBDAS):
        total += c * g.array
    return AlgebraElement(ComplexMat(1j * scale * total), tol)


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar U(3): complex Gaussian -> QR -> R-diagonal phases moved onto the Q factor."""
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def random_group(seed: int, tol: Tolerances = DEFAULT_TOL) -> GroupElement:
    """Haar-distributed SU(3) element: _haar_unitary over the cube root of its determinant."""
    q = _haar_unitary(np.random.default_rng(_check_seed(seed)))
    det = complex(np.linalg.det(q))
    q = q * np.exp(-1j * np.angle(det) / 3.0)
    return GroupElement(ComplexMat(q), tol)


def compare(a, b) -> float:
    """Relative Frobenius distance ||a - b||_F / max(1, ||b||_F)."""
    am, bm = _as_mat(a).array, _as_mat(b).array
    if am.shape != bm.shape:
        raise InputError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am - bm) / max(1.0, np.linalg.norm(bm)))
