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

from .errors import InputError, NotUnitary, Overflow
from .expmap import GroupElement
from .invdec import AlgebraElement
from .gellmann import LAMBDAS
from .smallmat import ComplexMat, _as_mat, _finite_value, eigen_general
from .tolerances import DEFAULT_TOL, Tolerances

_TAYLOR_ORDER = 18
# Squaring s times multiplies the series' rounding by about 2^s, which
# is about the norm: an su(3) argument comes back off by up to about
# 3 ||b|| eps, by order one near norm 1e16, and from about 1e17 the
# squarings run to inf or to zero.  At 2^26 = eps^(-1/2) about half the
# digits hold.
EXP_NORM_MAX = 2.0**26


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
    back up.  Above a Frobenius norm of ``EXP_NORM_MAX`` the squarings
    cannot give an accurate result, and the argument is refused as
    Overflow before the series runs.  An exponential that overflows a
    double is refused as Overflow after them.
    """
    arr = _as_mat(b).array
    n = arr.shape[0]
    # the squared norm of entries near 1e154 and above overflows
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(arr))
    if not nrm <= EXP_NORM_MAX:
        raise Overflow(f"norm {nrm:.3e} exceeds the reference exponential's limit "
                       f"{EXP_NORM_MAX:.3e}: its squarings would not be accurate")
    squarings = max(0, math.ceil(math.log2(nrm / 0.5))) if nrm > 0.5 else 0
    t = arr / (2.0**squarings)
    eye = np.eye(n)
    out = np.eye(n, dtype=np.complex128)
    for k in range(_TAYLOR_ORDER, 0, -1):
        out = eye + (t / k) @ out
    # e^||b|| bounds every entry, so below a norm of ln(max float) nothing
    # overflows; above it an overflow runs to inf or NaN, and is refused
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            out = out @ out
    if not np.isfinite(out).all():
        raise Overflow(f"the exponential of a matrix of norm {nrm:.3e} overflows a double")
    return ComplexMat._wrap(out)


def log_reference(u, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Skew-Hermitian logarithm of a unitary by eigenphase extraction.

    Eigenvalues are unit-modulus; their phases are taken in (-pi, pi]
    and reassembled as P diag(i theta) P^{-1}, with a final projection
    onto the skew-Hermitian subspace to strip round-off.  The
    eigensystem comes from ``eigen_general`` (LAPACK's general solver)
    at every size, so the log it checks, which runs on the normal 3x3
    kernel and its Hermitian seed, shares no kernel with it.
    """
    arr = _as_mat(u).array
    n = arr.shape[0]
    # "not <=" so that a residual that overflowed to NaN is refused too
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(np.linalg.norm(arr.conj().T @ arr - np.eye(n)))
    if not dev <= tol.grp_tol:
        raise NotUnitary(f"unitarity residual {dev:.3e} exceeds grp_tol")
    es = eigen_general(arr, tol)
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


@np.errstate(over="ignore", invalid="ignore")
def compare(a, b) -> float:
    """Relative Frobenius distance ||a - b||_F / max(1, ||b||_F).

    Overflow where either norm overflows: the quotient would be NaN, or
    0 for a distance that is not.
    """
    am, bm = _as_mat(a).array, _as_mat(b).array
    if am.shape != bm.shape:
        raise InputError(f"shape mismatch: {am.shape} vs {bm.shape}")
    dist = _finite_value(np.linalg.norm(am - bm), "the distance ||a - b||")
    return float(dist / max(1.0, _finite_value(np.linalg.norm(bm), "the norm ||b||")))
