"""Exponentials of su(3) elements through their commuting parts.

Each part b with b^2 = -beta^2 * identity exponentiates by the Euler
formula exp(b) = cos(beta) 1 + sin(beta) b/beta, and the full group
element is the product of the three factors, in any order since the
parts commute.  Scaling the parts independently sweeps out the family
U(t1, t2, t3) of group elements that all fix the same three parts
under conjugation.

``exp_su3`` runs on plain arrays from end to end: it validates a raw
input once as an ``AlgebraElement``, takes the part coefficients and
eigenbasis from ``invdec._eigen_parts``, multiplies the Euler factors
as arrays, runs the ``GroupElement`` check (``_check_group``) once on
the product and wraps it.  ``decompose_via_eigen`` followed by
``exp_simple`` on each part is the same computation through the public
types, and gives the same bits.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InputError, NonCommutingParts, NotUnitary
from .invdec import AlgebraElement, SimplePart, _eigen_parts, _part_array, _su3_scalars
from .smallmat import ComplexMat, Validated, _as_mat, _det3, _require_finite, commutator
from .tolerances import DEFAULT_TOL, Tolerances


class GroupElement(Validated):
    """A validated special-unitary 3x3 matrix."""

    __slots__ = ()

    def __init__(self, mat, tol: Tolerances = DEFAULT_TOL) -> None:
        m = _as_mat(mat)
        _check_group(m.array, tol)
        object.__setattr__(self, "_mat", m)


_EYE3 = np.eye(3, dtype=np.complex128)


@np.errstate(over="ignore", invalid="ignore")
def _group_residuals(arr: np.ndarray) -> tuple[float, float]:
    """||arr^dag arr - 1||_F and |det arr - 1| of a 3x3 array; NaN where they overflow."""
    return float(np.linalg.norm(arr.conj().T @ arr - _EYE3)), abs(_det3(arr) - 1.0)


def _check_group(arr: np.ndarray, tol: Tolerances, special: bool = True) -> None:
    """NotUnitary unless arr is a finite 3x3 unitary, with det 1 when special."""
    if arr.shape != (3, 3):
        raise NotUnitary(f"expected a 3x3 matrix, got {arr.shape[0]}x{arr.shape[1]}")
    _require_finite(arr)
    # "not <=" so that a residual that overflowed to NaN is refused too
    dev, det_dev = _group_residuals(arr)
    if not dev <= tol.grp_tol:
        raise NotUnitary(f"unitarity residual {dev:.3e} exceeds grp_tol")
    if special and not det_dev <= tol.grp_tol:
        raise NotUnitary(f"determinant is off 1 by {det_dev:.3e}, matrix is not special")


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


def _factor_mat(part: SimplePart, scale: float = 1.0) -> ComplexMat:
    if part.beta is None:
        raise InputError(
            "part has no angle: only the parts of an su(3) element have an Euler factor")
    unit = part.unit.array if part.unit is not None else None
    return ComplexMat._wrap(_factor_array(unit, scale * part.beta))


def exp_simple(part: SimplePart) -> EulerFactor:
    """Exponentiate one commuting part of an su(3) element by the Euler formula."""
    return EulerFactor(part=part, mat=_factor_mat(part))


def exp_su3(b, tol: Tolerances = DEFAULT_TOL) -> GroupElement:
    """exp(B) for B in su(3), as the product of three Euler factors.

    The parts are those of decompose_via_eigen; zero parts (beta below
    beta_zero_tol) contribute the identity and are skipped.  The product
    is validated as a special unitary matrix on the way out.  A raw
    input is validated once; an AlgebraElement is taken as it is.
    """
    element = b if isinstance(b, AlgebraElement) else AlgebraElement(b, tol)
    coefs, v, vinv = _eigen_parts(element.mat.array, tol)
    out = np.eye(3, dtype=np.complex128)
    for i, coef in enumerate(coefs):
        _, beta = _su3_scalars(coef)
        if beta < tol.beta_zero_tol:
            continue
        unit = _part_array(coef, v, vinv, i) * complex(1.0 / beta)
        out = out @ _factor_array(unit, beta)
    _check_group(out, tol)
    group = object.__new__(GroupElement)
    object.__setattr__(group, "_mat", ComplexMat._wrap(out))
    return group


def family_element(parts, thetas, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Product of scaled Euler factors exp(t_i b_i) over the given parts.

    Every matrix in this family commutes with each part and fixes it
    under conjugation.  The parts must be parts of an su(3) element
    (each has an angle) and commute pairwise; the factors are unitary
    but their determinants need not be 1.
    """
    parts = list(parts)
    thetas = [float(t) for t in thetas]
    if len(parts) != len(thetas):
        raise InputError(f"{len(parts)} parts but {len(thetas)} angles")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            bound = tol.decomp_tol * max(
                1.0, parts[i].mat.frobenius_norm() * parts[j].mat.frobenius_norm()
            )
            if commutator(parts[i].mat, parts[j].mat).frobenius_norm() > bound:
                raise NonCommutingParts(f"parts {i} and {j} do not commute")
    out = ComplexMat.identity(3)
    for part, theta in zip(parts, thetas):
        out = out @ _factor_mat(part, theta)
    return out


def invariant_combination(parts, coeffs) -> ComplexMat:
    """Linear combination sum_i c_i b_i of the commuting parts."""
    parts = list(parts)
    coeffs = [complex(c) for c in coeffs]
    if len(parts) != len(coeffs):
        raise InputError(f"{len(parts)} parts but {len(coeffs)} coefficients")
    if not parts:
        raise InputError("no parts given")
    out = ComplexMat.zeros(parts[0].mat.n)
    for part, c in zip(parts, coeffs):
        out = out + part.mat * c
    return out
