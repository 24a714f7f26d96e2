"""Exponentials of su(3) elements through their commuting parts.

Each part b with b^2 = -beta^2 * identity exponentiates by the Euler
formula exp(b) = cos(beta) 1 + sin(beta) b/beta, and the full group
element is the product of the three factors, in any order since the
parts commute.  Scaling the parts independently sweeps out the family
U(t1, t2, t3) of group elements that all fix the same three parts
under conjugation.

Multiplied out, the product of the three factors is a polynomial of
degree 2 in B, exp(B) = f0 1 - i f1 B - f2 B^2, whose coefficients
depend only on the invariants ||B||^2/2 and -Im det B.  ``exp_su3``
evaluates it directly, with the coefficient formulas of Morningstar
and Peardon (Phys. Rev. D 69, 054501 (2004), hep-lat/0311018, section
III), which stay stable where two parts have the same angle.  It
copies a raw input once and validates it once as an su(3) element,
whose norm also proves it finite (``invdec._algebra_norm``), solves
the characteristic cubic with ``invdec._cubic_roots``, computes the
coefficients on Python scalars, forms B^2 once, runs the
``GroupElement`` check once on the result, under no ``np.errstate``
since the result's entries are bounded (``_check_bounded_group``),
and wraps it with the unitarity residual that check measured.  No
eigensolver runs.  ``decompose_via_eigen`` followed by ``exp_simple``
on each part is the same identity through the public types; the two
agree to a few eps max(1, ||B||), not bit for bit.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import sys

import numpy as np

from .errors import DimensionMismatch, InputError, NonFiniteEntries, NotUnitary, _is_real, _shown
from .invdec import (
    AlgebraElement,
    SimplePart,
    _algebra_norm,
    _commutator_sq,
    _cubic_roots,
)
from .smallmat import (
    _EYE3,
    ComplexMat,
    Validated,
    _det3,
    _finite_mat,
    _finite_norm,
    _finite_value,
    _fro,
    _require_finite,
    _scaled,
    _unchecked_mat,
)
from .tolerances import DEFAULT_TOL, Tolerances


class GroupElement(Validated):
    """A validated special-unitary 3x3 matrix.

    It keeps the unitarity residual ||U^H U - 1||_F that its check
    measured.  The logs and ``factorize`` read U's normality from it
    (``smallmat._normal_norm``) instead of testing the commutator again.
    """

    __slots__ = ("_dev",)

    def __init__(self, mat, tol: Tolerances = DEFAULT_TOL) -> None:
        m = _unchecked_mat(mat)
        dev = _check_group(m.array, tol)
        object.__setattr__(self, "_mat", m)
        object.__setattr__(self, "_dev", dev)


def _unitarity_residual(arr: np.ndarray) -> float:
    """||arr^dag arr - 1||_F of a 3x3 array.

    Runs under no np.errstate: callers either hold one or pass an array
    whose entries are bounded, such as a normalized factor candidate.
    """
    return _fro(arr.conj().T @ arr - _EYE3)


@np.errstate(over="ignore", invalid="ignore")
def _group_residuals(arr: np.ndarray) -> tuple[float, float]:
    """||arr^dag arr - 1||_F and |det arr - 1| of a 3x3 array; NaN where they overflow."""
    return _unitarity_residual(arr), abs(_det3(arr) - 1.0)


def _check_bounded_group(arr: np.ndarray, tol: Tolerances, special: bool = True) -> float:
    """NotUnitary unless arr is a finite 3x3 unitary, with det 1 when special.

    Returns the unitarity residual ||arr^H arr - 1||_F it measured.
    A residual that passes proves arr finite; a refusal scans arr first.
    Runs under no np.errstate, for an array whose entries are bounded;
    ``_check_group`` is the same check for raw input, under one.
    """
    if arr.shape != (3, 3):
        _require_finite(arr)
        raise NotUnitary(f"expected a 3x3 matrix, got {arr.shape[0]}x{arr.shape[1]}")
    # "not <=" so that a residual that overflowed to NaN is refused too; a
    # finite residual within grp_tol bounds every entry, so only a refused
    # matrix can have entries that are not finite
    dev = _unitarity_residual(arr)
    if not dev <= tol.grp_tol:
        _require_finite(arr)
        raise NotUnitary(f"unitarity residual {dev:.3e} exceeds grp_tol")
    if special:
        det_dev = abs(_det3(arr) - 1.0)
        if not det_dev <= tol.grp_tol:
            raise NotUnitary(f"determinant is off 1 by {det_dev:.3e}, matrix is not special")
    return dev


_check_group = np.errstate(over="ignore", invalid="ignore")(_check_bounded_group)


@dataclasses.dataclass(frozen=True)
class EulerFactor:
    """One factor cos(beta) 1 + sin(beta) unit; unitary but only U(3)."""

    part: SimplePart
    mat: ComplexMat


def _factor_array(unit: np.ndarray | None, angle: float) -> np.ndarray:
    """cos(angle) 1 + sin(angle) unit; a part with no direction gives cos(angle) 1."""
    # scalars enter as complex, as ComplexMat's own scaling does: a real
    # factor would give some zero entries the other sign
    scalar = _EYE3 * complex(math.cos(angle))
    return scalar if unit is None else scalar + unit * complex(math.sin(angle))


def _finite_angle(theta) -> float:
    """theta as a float: InputError unless it is real, NonFiniteEntries where it is not finite.

    Real is ``errors._is_real``: any real number but a bool.  NaN, +-inf
    and an integer past a double's range are not finite.
    """
    if not _is_real(theta):
        raise InputError(f"the angle must be a real number, got {_shown(theta)}")
    if not abs(theta) <= sys.float_info.max:
        raise NonFiniteEntries(f"the angle must be finite, got {_shown(theta)}")
    return float(theta)


def _factor_mat(part: SimplePart, scale: float = 1.0) -> ComplexMat:
    if part.beta is None:
        raise InputError(
            "part has no angle: only the parts of an su(3) element have an Euler factor")
    unit = part.unit.array if part.unit is not None else None
    return ComplexMat._wrap(_factor_array(unit, _finite_value(scale * part.beta, "the angle")))


def exp_simple(part: SimplePart) -> EulerFactor:
    """Exponentiate one commuting part of an su(3) element by the Euler formula."""
    return EulerFactor(part=part, mat=_factor_mat(part))


def _exp_coefficients(u: float, w: float, scale: float) -> tuple[complex, complex, complex]:
    """The coefficients of exp(iQ) = f0 + f1 Q + f2 Q^2 as f0, f1 scale and f2 scale^2.

    Q = scale * Qs is traceless Hermitian, and Qs has the eigenvalues
    2u, w - u and -u - w of ``invdec._cubic_roots`` (its c0 >= 0).
    Returning f1 scale and f2 scale^2 lets the caller weigh the powers
    of Qs, which neither overflow nor underflow.  The formulas are
    those of Morningstar and Peardon (hep-lat/0311018, section III),
    f_j = h_j / (9u^2 - w^2), with a series for sin(w)/w below 0.05.
    For c0 >= 0, 9u^2 - w^2 >= 2 c1 stays away from zero.
    """
    up, wp = scale * u, scale * w
    if abs(wp) < 0.05:
        x = wp * wp
        sinc = 1.0 - x / 6.0 * (1.0 - x / 20.0 * (1.0 - x / 42.0))
    else:
        sinc = math.sin(wp) / wp
    cos_w = math.cos(wp)
    e2 = cmath.exp(2j * up)
    e1 = cmath.exp(-1j * up)
    uu, ww = u * u, w * w
    den = 9.0 * uu - ww
    h0 = (uu - ww) * e2 + e1 * (8.0 * uu * cos_w + 2j * up * (3.0 * uu + ww) * sinc)
    h1 = 2.0 * u * e2 - e1 * (2.0 * u * cos_w - 1j * scale * (3.0 * uu - ww) * sinc)
    h2 = e2 - e1 * (cos_w + 3j * up * sinc)
    return h0 / den, h1 / den, h2 / den


def exp_su3(b, tol: Tolerances = DEFAULT_TOL) -> GroupElement:
    """exp(B) for B in su(3), in closed form as f0 1 - i f1 B - f2 B^2.

    Multiplied out, the product of the three commuting Euler factors
    is this degree-2 polynomial in B, whose coefficients depend only on
    c1 = ||B||^2/2 and c0 = -Im det B, the invariants of Q = -iB
    (Morningstar and Peardon, hep-lat/0311018, section III).  The roots
    of Q's characteristic cubic come from ``invdec._cubic_roots`` for
    |c0|; for c0 < 0 the coefficients follow from
    f_j(-c0) = (-1)^j conj(f_j(c0)).  The invariants are those of
    B * 2^k (``smallmat._scaled``, exact), so no norm overflows or
    underflows them.  No eigensolver runs and no angle is cut off.

    A raw input is validated once as an su(3) element; an
    AlgebraElement is taken as it is.  The result is validated as a
    special unitary matrix on the way out.
    """
    if isinstance(b, AlgebraElement):
        arr = b.mat.array
        nrm = _finite_norm(arr)
    else:
        arr = _unchecked_mat(b).array
        nrm = _algebra_norm(arr, tol)
    # the squares behind nrm may underflow to 0; the rescaled norm is 0 only for B = 0
    arr, nrm, k = _scaled(arr, nrm)
    if nrm == 0.0:
        out = np.eye(3, dtype=np.complex128)
    else:
        c0 = -_det3(arr).imag
        q1, q2, q3 = _cubic_roots(0.5 * nrm * nrm, abs(c0))
        f0, f1, f2 = _exp_coefficients(0.5 * q1, 0.5 * (q2 - q3), math.ldexp(1.0, -k))
        if c0 < 0.0:
            f0, f1, f2 = f0.conjugate(), -f1.conjugate(), f2.conjugate()
        out = (arr @ arr) * -f2 + arr * (-1j * f1) + _EYE3 * f0
    # _scaled leaves arr's norm at most 2^100, and f1 and f2 fall as 1/||arr||
    # and 1/||arr||^2 for a large one, so each term of out is at most of order
    # 1 and no product in its unitarity residual can overflow
    dev = _check_bounded_group(out, tol)
    group = object.__new__(GroupElement)
    object.__setattr__(group, "_mat", ComplexMat._wrap(out))
    object.__setattr__(group, "_dev", dev)
    return group


@np.errstate(over="ignore", invalid="ignore")
def family_element(parts, thetas, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Product of scaled Euler factors exp(t_i b_i) over the given parts.

    Every matrix in this family commutes with each part and fixes it
    under conjugation.  The parts must be parts of an su(3) element
    (each has an angle), of one size, and commute pairwise: each pair
    within decomp_tol max(1, ||b_i|| ||b_j||), judged by
    ``invdec._commutator_sq``, which names the first pair i < j that
    fails.  The factors are unitary but their determinants need not
    be 1.  The angles must be finite, and an angle whose product with
    its part's beta overflows is refused as Overflow.
    """
    parts = list(parts)
    thetas = [_finite_angle(t) for t in thetas]
    if len(parts) != len(thetas):
        raise InputError(f"{len(parts)} parts but {len(thetas)} angles")
    mats = [part.mat.array for part in parts]
    for a in mats[1:]:
        if len(a) != len(mats[0]):
            raise DimensionMismatch(f"dimension mismatch: {len(mats[0])} vs {len(a)}")
    if len(mats) > 1:
        nrm = [_fro(a) for a in mats]
        _commutator_sq(mats, (tol.decomp_tol * np.maximum(1.0, np.outer(nrm, nrm))).ravel())
    out = np.eye(3, dtype=np.complex128)
    for part, theta in zip(parts, thetas):
        out = out @ _factor_mat(part, theta).array
        _require_finite(out)
    return ComplexMat._wrap(out)


@np.errstate(over="ignore", invalid="ignore")
def invariant_combination(parts, coeffs) -> ComplexMat:
    """Linear combination sum_i c_i b_i of the commuting parts, of one size.

    A non-finite coefficient is refused as NonFiniteEntries, a
    combination of finite coefficients that overflows as Overflow.
    """
    parts = list(parts)
    coeffs = [complex(c) for c in coeffs]
    if len(parts) != len(coeffs):
        raise InputError(f"{len(parts)} parts but {len(coeffs)} coefficients")
    if not parts:
        raise InputError("no parts given")
    out = np.zeros_like(parts[0].mat.array)
    for part, c in zip(parts, coeffs):
        if part.mat.n != len(out):
            raise DimensionMismatch(f"dimension mismatch: {len(out)} vs {part.mat.n}")
        out = out + part.mat.array * c
    return _finite_mat(out, "linear combination" if all(map(cmath.isfinite, coeffs)) else None)
