"""Gell-Mann generators and their involution pairs.

Each off-diagonal generator lambda_a completes to a pair of Hermitian
involutions rho_{+a} = lambda_a + e and rho_{-a} = lambda_a - e, where
e is the diagonal unit the generator leaves untouched; together with
rho_0 = diag(1, 1, -1) that gives 15 matrices squaring exactly to the
identity, from which every generator is rebuilt by a short linear
combination.  The one-parameter subgroups exp(i theta lambda_a) then
have closed forms: the cubic identity lambda_a^3 = lambda_a yields

    exp(i theta lambda_a) = (1 - lambda_a^2) + lambda_a^2 cos(theta)
                            + i lambda_a sin(theta)      (a = 1..7)

while lambda_8 is diagonal and exponentiates entrywise.  All constants
are stored with exact integer (or 1/sqrt(3)) entries.
"""

from __future__ import annotations

import dataclasses
import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import _integer
from .expmap import GroupElement, _finite_angle
from .smallmat import _EYE3, ComplexMat, _finite_value
from .tolerances import DEFAULT_TOL, Tolerances

_SQRT3 = math.sqrt(3.0)

LAMBDA1 = ComplexMat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # lambda_1
LAMBDA2 = ComplexMat([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])  # lambda_2
LAMBDA3 = ComplexMat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])  # lambda_3
LAMBDA4 = ComplexMat([[0, 0, 1], [0, 0, 0], [1, 0, 0]])  # lambda_4
LAMBDA5 = ComplexMat([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])  # lambda_5
LAMBDA6 = ComplexMat([[0, 0, 0], [0, 0, 1], [0, 1, 0]])  # lambda_6
LAMBDA7 = ComplexMat([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])  # lambda_7
LAMBDA8 = ComplexMat(np.diag([1, 1, -2]) / _SQRT3)  # lambda_8

LAMBDAS = (LAMBDA1, LAMBDA2, LAMBDA3, LAMBDA4, LAMBDA5, LAMBDA6, LAMBDA7, LAMBDA8)

RHO0 = ComplexMat(np.diag([1, 1, -1]))  # rho_0


def equilibrium_point(a: int) -> ComplexMat:
    """The projector 1 - lambda_a^2 fixed by the subgroup of lambda_a.

    Equals (1 - rho_{+a} rho_{-a}) / 2, the axis both involutions of
    the pair leave in place.
    """
    a = _integer(a, 1, 7, "equilibrium_point covers a = 1..7")
    return ComplexMat._wrap(_EYE3 - LAMBDAS[a - 1].array @ LAMBDAS[a - 1].array)


def _build_rhos() -> Mapping[int, ComplexMat]:
    rhos: dict[int, ComplexMat] = {0: RHO0}
    for a in range(1, 8):
        # the diagonal unit 1 - lambda_a^2 completes lambda_a to an involution
        g, e = LAMBDAS[a - 1].array, equilibrium_point(a).array
        rhos[a] = ComplexMat._wrap(g + e)
        rhos[-a] = ComplexMat._wrap(g - e)
    return MappingProxyType(rhos)


@dataclasses.dataclass(frozen=True)
class GellMannBasis:
    """The 8 generators and their 15 involutions, indexed -7..7."""

    lambdas: tuple[ComplexMat, ...]
    rhos: Mapping[int, ComplexMat]


BASIS = GellMannBasis(lambdas=LAMBDAS, rhos=_build_rhos())


def lam(a: int) -> ComplexMat:
    return LAMBDAS[_integer(a, 1, 8, "generator index must be 1..8") - 1]


def rho(a: int) -> ComplexMat:
    """Involution rho_a for a in -7..7; rho(0) is diag(1, 1, -1)."""
    return BASIS.rhos[_integer(a, -7, 7, "involution index must be -7..7")]


def reconstruct_lambda(a: int) -> ComplexMat:
    """Rebuild lambda_a from the involution table.

    lambda_a = (rho_{+a} + rho_{-a}) / 2 for a <= 7; lambda_8 needs the
    three-term combination of rho_{-3}, rho_{+3} and rho_0.
    """
    a = _integer(a, 1, 8, "generator index must be 1..8")
    if a <= 7:
        return ComplexMat._wrap((rho(a).array + rho(-a).array) * complex(0.5))
    s = complex(1.0 / (2.0 * _SQRT3))
    return ComplexMat._wrap(
        rho(-3).array * s - rho(3).array * s + RHO0.array * complex(1.0 / _SQRT3))


def exp_gellmann(a: int, theta: float, tol: Tolerances = DEFAULT_TOL) -> GroupElement:
    """exp(i theta lambda_a) for a = 1..7 by the cubic closed form; theta must be finite."""
    a = _integer(a, 1, 7, "exp_gellmann covers a = 1..7")
    theta = _finite_angle(theta)
    g = LAMBDAS[a - 1].array
    gsq = g @ g
    mat = (_EYE3 - gsq) + gsq * complex(math.cos(theta)) + g * complex(1j * math.sin(theta))
    return GroupElement(mat, tol)


def exp_gellmann8(theta: float, tol: Tolerances = DEFAULT_TOL) -> GroupElement:
    """exp(i theta lambda_8), diagonal with phases (1, 1, -2) theta / sqrt(3).

    theta must be finite, and Overflow where the phase 2 theta / sqrt(3) overflows.
    """
    phase = _finite_angle(theta) / _SQRT3
    _finite_value(2.0 * phase, "the phase 2 theta / sqrt(3)")
    return GroupElement(np.diag(np.exp([1j * phase, 1j * phase, -2j * phase])), tol)
