"""Decomposition of a matrix into commuting parts with scalar squares.

A traceless skew-Hermitian B splits as B = b1 + b2 + b3 where the parts
commute pairwise and each satisfies b_i^2 = lambda_i * identity with
lambda_i real and nonpositive.  The same construction applies to any
diagonalizable n x n matrix (the scalars then may be complex): with
eigenvalues alpha_i and eigenprojections built from the eigenbasis P,

    b_i = (alpha_i - tr B / (n - 2)) / 2 * (2 P e_i e_i^T P^{-1} - 1)

so each part is a scaled sign-pattern involution conjugated into the
eigenbasis.  For su(3) a closed form avoids the eigenproblem entirely:
the lambda_i are roots of a real cubic in the two invariants tr(B^2)
and det(B), and each part is recovered by a resolvent-style product
(see ``decompose_closed_form``).  The closed form requires distinct
nonzero lambdas; the eigen route works in every case and is the
arbiter the closed form is cross-checked against.

The eigen route's numeric core is ``_eigen_parts``: on a plain 3x3
array it runs the one normality test, picks the normal or general
eigen kernel from it, and returns the part coefficients with the
eigenvectors and their inverse.  ``decompose_via_eigen`` builds
``SimplePart`` objects from it, and ``expmap.exp_su3`` consumes it
directly.  ``AlgebraElement`` is the validated boundary type; its check
(``_su3_problem``) is the same one ``decompose_via_eigen`` uses to
decide whether the parts carry an angle and a direction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateLambdas, DimensionMismatch, InvalidAlgebraElement
from .smallmat import (
    ComplexMat,
    Validated,
    _as_mat,
    _eigen_general,
    _eigen_normal3,
    _finite_norm,
    _norm_and_commutator,
    commutator,
    eigen_general,
)
from .tolerances import DEFAULT_TOL, Tolerances


class AlgebraElement(Validated):
    """A validated traceless skew-Hermitian 3x3 matrix."""

    __slots__ = ()

    def __init__(self, mat, tol: Tolerances = DEFAULT_TOL) -> None:
        m = _as_mat(mat)
        problem = _su3_problem(m.array, tol)
        if problem is not None:
            raise InvalidAlgebraElement(problem)
        object.__setattr__(self, "_mat", m)


@dataclasses.dataclass(frozen=True)
class SimplePart:
    """One commuting part b with b^2 = lam * identity.

    For su(3) sources lam is real nonpositive, beta = sqrt(-lam), and
    unit = b / beta squares to minus the identity; unit is absent for a
    vanishing part (beta below beta_zero_tol) where the direction is
    0/0.  Parts of general n x n sources carry a complex lam and no
    beta/unit.
    """

    mat: ComplexMat
    lam: complex
    beta: float | None
    unit: ComplexMat | None


@dataclasses.dataclass(frozen=True)
class InvariantDecomposition:
    parts: tuple[SimplePart, ...]
    source: ComplexMat

    def sum_residual(self) -> float:
        total = self.parts[0].mat
        for p in self.parts[1:]:
            total = total + p.mat
        return (total - self.source).frobenius_norm()

    def max_commutator_residual(self) -> float:
        worst = 0.0
        ps = self.parts
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                worst = max(worst, commutator(ps[i].mat, ps[j].mat).frobenius_norm())
        return worst


def _su3_problem(arr: np.ndarray, tol: Tolerances) -> str | None:
    """Why arr is not a traceless skew-Hermitian 3x3 matrix within alg_tol, or None.

    Overflow when the squared norm is not finite (the skew bound would be inf).
    """
    if arr.shape != (3, 3):
        return f"expected a 3x3 matrix, got {arr.shape[0]}x{arr.shape[1]}"
    nrm = _finite_norm(arr)
    trace = complex(np.trace(arr))
    if abs(trace) > tol.alg_tol:
        return f"trace {trace:.3e} is not zero within alg_tol"
    skew = float(np.linalg.norm(arr + arr.conj().T))
    if skew > tol.alg_tol * max(1.0, nrm):
        return f"Hermitian residual {skew:.3e} exceeds alg_tol, matrix is not skew-Hermitian"
    return None


def _nonneg_sqrt(x: float) -> float:
    return math.sqrt(x) if x > 0.0 else 0.0


_EYE3 = np.eye(3)


def _eigen_parts(arr: np.ndarray, tol: Tolerances) -> tuple[list[complex], np.ndarray, np.ndarray]:
    """Part coefficients, eigenvectors (columns) and their inverse for a 3x3 array.

    Part i is ``_part_array(coefs[i], vectors, inverse, i)``.  Normal
    inputs go through the closed-form normal kernel, everything else
    through the general one; NotDiagonalizable propagates from the
    latter.
    """
    nrm, comm = _norm_and_commutator(arr)
    if comm <= tol.normal_tol * nrm * nrm:
        values, v, vinv = _eigen_normal3(arr, nrm, tol)
    else:
        values, v, vinv = _eigen_general(arr, tol)
    t = complex(np.trace(arr))
    return [(complex(x) - t) / 2.0 for x in values], v, vinv


def _part_array(coef: complex, v: np.ndarray, vinv: np.ndarray, i: int) -> np.ndarray:
    """coef times the involution that is +1 on eigendirection i, -1 on the others."""
    return coef * (2.0 * np.outer(v[:, i], vinv[i, :]) - _EYE3)


def _su3_scalars(coef: complex) -> tuple[complex, float]:
    """lambda = coef^2 (real for su(3)) and the angle beta = sqrt(-lambda)."""
    lam = complex((coef * coef).real, 0.0)
    return lam, _nonneg_sqrt(-lam.real)


def decompose_via_eigen(b, tol: Tolerances = DEFAULT_TOL) -> InvariantDecomposition:
    """Split a diagonalizable 3x3 matrix into three commuting parts.

    Each part is (alpha_i - tr b)/2 times the involution that is +1 on
    the i-th eigendirection and -1 on the others.  Normal inputs go
    through the closed-form normal solver, everything else through the
    general one; NotDiagonalizable propagates from the latter.
    """
    m = _as_mat(b)
    if m.n != 3:
        raise DimensionMismatch(f"decompose_via_eigen needs a 3x3 matrix, got {m.n}x{m.n}")
    su3 = _su3_problem(m.array, tol) is None
    coefs, v, vinv = _eigen_parts(m.array, tol)
    parts = []
    for i, coef in enumerate(coefs):
        mat = ComplexMat._wrap(_part_array(coef, v, vinv, i))
        if su3:
            lam, beta = _su3_scalars(coef)
            unit = mat * (1.0 / beta) if beta >= tol.beta_zero_tol else None
            parts.append(SimplePart(mat=mat, lam=lam, beta=beta, unit=unit))
        else:
            parts.append(SimplePart(mat=mat, lam=complex(coef * coef), beta=None, unit=None))
    return InvariantDecomposition(parts=tuple(parts), source=m)


def decompose_nxn(b, tol: Tolerances = DEFAULT_TOL) -> list[SimplePart]:
    """Commuting-part split of a diagonalizable n x n matrix, 3 <= n <= 8.

    The scalar in front of each involution is (alpha_i - tr b/(n-2))/2;
    at n = 3 this is the 3x3 construction exactly, so that case defers
    to decompose_via_eigen.
    """
    m = _as_mat(b)
    n = m.n
    if n < 3:
        raise InvalidAlgebraElement(f"decompose_nxn needs n >= 3, got {n}")
    if n == 3:
        return list(decompose_via_eigen(m, tol).parts)
    es = eigen_general(m, tol)
    t = m.trace()
    eye = np.eye(n)
    parts = []
    for i in range(n):
        coef = (es.values[i] - t / (n - 2)) / 2.0
        proj = np.outer(es.vectors.array[:, i], es.inverse_vectors.array[i, :])
        mat = ComplexMat(coef * (2.0 * proj - eye))
        parts.append(SimplePart(mat=mat, lam=complex(coef * coef), beta=None, unit=None))
    return parts


def lambda_roots(b, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float, float]:
    """The three scalars lambda_i of an su(3) element, sorted descending.

    They are the roots of the real cubic

        x^3 + a x^2 + (a^2/4) x + c = 0,
        a = -tr(b^2)/4 >= 0,   c = -(det b / 8)^2 >= 0,

    solved trigonometrically.  Both coefficients are real for a
    traceless skew-Hermitian input, all roots are real and nonpositive,
    and tiny imaginary residue is clamped rather than surfaced.
    """
    m = b.mat if isinstance(b, AlgebraElement) else AlgebraElement(b, tol).mat
    arr = m.array
    a = -0.25 * np.trace(arr @ arr).real
    if a <= 0.0:
        return (0.0, 0.0, 0.0)
    c = -((m.det() / 8.0) ** 2).real
    chi = 1.0 - 108.0 * c / (a * a * a)
    chi = min(1.0, max(-1.0, chi))
    theta = math.acos(chi)
    roots = sorted(
        (float((a / 3.0) * math.cos((theta - 2.0 * math.pi * k) / 3.0) - a / 3.0) for k in range(3)),
        reverse=True,
    )
    return (roots[0], roots[1], roots[2])


def decompose_closed_form(b, lambdas, tol: Tolerances = DEFAULT_TOL) -> InvariantDecomposition:
    """Recover the commuting parts of an su(3) element from its lambdas.

    For each lambda_i,

        b_i = [B + det(B)/(8 lambda_i)] . [1 + (B^2 - tr(B^2)/4)/(2 lambda_i)]^{-1}

    followed by an exact skew-Hermitian projection to strip inversion
    round-off.  Valid only when the lambdas are pairwise separated and
    away from zero (relative to the largest magnitude); otherwise the
    bracketed matrix is ill-conditioned and DegenerateLambdas is raised
    so the caller falls back to the eigen route.
    """
    m = b.mat if isinstance(b, AlgebraElement) else AlgebraElement(b, tol).mat
    lams = [float(x) for x in lambdas]
    if len(lams) != 3:
        raise DegenerateLambdas(f"expected 3 lambdas, got {len(lams)}")
    top = max(abs(x) for x in lams)
    if top == 0.0:
        raise DegenerateLambdas("all lambdas vanish")
    sep = tol.lambda_sep_tol * top
    for i in range(3):
        if abs(lams[i]) <= sep:
            raise DegenerateLambdas(f"lambda {lams[i]:.3e} is too close to zero")
        for j in range(i + 1, 3):
            if abs(lams[i] - lams[j]) <= sep:
                raise DegenerateLambdas(
                    f"lambdas {lams[i]:.6e} and {lams[j]:.6e} are not separated"
                )
    arr = m.array
    det = m.det()
    sq = arr @ arr
    dev = ComplexMat(sq - (0.25 * np.trace(sq)) * np.eye(3))
    eye = ComplexMat.identity(3)
    parts = []
    for lam in lams:
        num = ComplexMat(arr + (det / (8.0 * lam)) * np.eye(3))
        den = eye + dev * (1.0 / (2.0 * lam))
        raw = num @ den.inverse(tol)
        mat = (raw - raw.adjoint()) * 0.5
        beta = _nonneg_sqrt(-lam)
        unit = mat * (1.0 / beta) if beta >= tol.beta_zero_tol else None
        parts.append(SimplePart(mat=mat, lam=complex(lam), beta=beta, unit=unit))
    return InvariantDecomposition(parts=tuple(parts), source=m)
