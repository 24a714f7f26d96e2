"""Grade projections of a special unitary matrix.

With U = exp(b1) exp(b2) exp(b3) and the shorthand c_i = cos(beta_i),
s_i = sin(beta_i), expanding the product sorts the terms by how many
sine factors they carry: a scalar (grade 0), the single-sine terms
(grade 2), the double-sine terms (grade 4), and the triple-sine term,
which is an imaginary scalar (grade 6, the pseudoscalar).  All four
are recoverable from U alone:

    ccos = (U + U^dag)/2          ssin = (U - U^dag)/2
    g0 = (1 + tr ccos)/4 * 1      g6 = tr(ssin)/4 * 1
    g4 = ccos - g0                g2 = ssin - g6

The per-part constituents H_i = ccos(b_i) prod_{j!=i} ssin(b_j) and
S_i = ssin(b_i) prod_{j!=i} ccos(b_j) follow from one more invariant
decomposition: A = g2 + g4 has complex eigenvalues gamma_i + i delta_i
on U's eigenbasis, and feeding the real and imaginary parts separately
through the part ansatz yields exactly Hermitian H_i and exactly
skew-Hermitian S_i with sum g4 and g2 respectively.

The arithmetic runs on complex128 arrays.  ``_eigenbasis`` diagonalizes
U once and returns what ``factorlog``'s eigen path runs on: the
eigenbasis, the eigenvalues, the scalars of g0 and g6, and gamma, delta.
It builds no grade matrix.  ``_decomposition`` builds the grade matrices
and the H_i/S_i from U, gamma, delta and the three involutions
2 P_i - 1, wherever those come from: ``split_HS`` takes them from the
eigenbasis, and ``factorlog``'s closed form from U's characteristic
polynomial.  Public functions take a ``GroupElement``, ``ComplexMat``
or raw entries and wrap each result.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatch
from .smallmat import _EYE3, ComplexMat, _as_mat, _eigen_normal3, _finite_mat, _normal_norm
from .tolerances import DEFAULT_TOL, Tolerances


@dataclasses.dataclass(frozen=True)
class GradeDecomposition:
    g0: ComplexMat
    g2: ComplexMat
    g4: ComplexMat
    g6: ComplexMat
    ccosU: ComplexMat
    ssinU: ComplexMat
    H: tuple[ComplexMat, ComplexMat, ComplexMat]
    S: tuple[ComplexMat, ComplexMat, ComplexMat]


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    adj = a.conj().T
    return (a + adj) * complex(0.5), (a - adj) * complex(0.5)


def _scalar_grades(t: complex) -> tuple[complex, complex]:
    """The scalars of g0 and g6 of a matrix of trace t."""
    return (1.0 + ((t + t.conjugate()) / 2.0)) / 4.0, ((t - t.conjugate()) / 2.0) / 4.0


# an overflowing grade is refused by its caller, so numpy's warnings are noise
@np.errstate(over="ignore", invalid="ignore")
def _grades(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g0, g2, g4, g6, ccos, ssin) of a square array."""
    ccos, ssin = _halves(a)
    c0, c6 = _scalar_grades(complex(np.trace(a)))
    eye = np.eye(a.shape[0], dtype=np.complex128)
    g0 = eye * c0
    g6 = eye * c6
    return g0, ssin - g6, ccos - g0, g6, ccos, ssin


@np.errstate(over="ignore", invalid="ignore")
def ccos_ssin(u) -> tuple[ComplexMat, ComplexMat]:
    """Hermitian and skew-Hermitian halves of u; they sum back to u.  Overflow where they overflow."""
    ccos, ssin = _halves(_as_mat(u).array)
    return _finite_mat(ccos, "Hermitian half"), _finite_mat(ssin, "skew-Hermitian half")


def grade0(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[0], "grade 0")


def grade2(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[1], "grade 2")


def grade4(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[2], "grade 4")


def grade6(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[3], "grade 6")


@np.errstate(over="ignore", invalid="ignore")
def traceless_projection(m) -> ComplexMat:
    """M - tr(M)/3, the projection used in lattice gauge fixing.

    Differs from grade2 of a group element by (1/12) tr(ssin) times the
    identity; kept for comparison, not used by the grade machinery.
    Overflow where the trace or the result overflows.
    """
    a = _as_mat(m).array
    t = complex(np.trace(a)) / 3.0
    return _finite_mat(a - np.eye(len(a), dtype=np.complex128) * t, "traceless projection")


def _hermitian_outer(v: np.ndarray) -> np.ndarray:
    # v v^dag assembled from real/imag blocks.  A direct complex
    # np.outer(v, v.conj()) can pick up ~1e-20 imaginary dirt on the
    # diagonal when the compiler contracts the multiply into FMAs;
    # this form is exactly Hermitian in IEEE arithmetic.
    re = np.outer(v.real, v.real) + np.outer(v.imag, v.imag)
    im = np.outer(v.imag, v.real) - np.outer(v.real, v.imag)
    return re + 1j * im


def _eigenbasis(a: np.ndarray, tol: Tolerances, dev: float | None = None) -> tuple:
    """(P, P^H, e, g0, g6, gamma, delta) of a 3x3 unitary array.

    P, P^H and e are U's eigenbasis, its adjoint and U's eigenvalues as
    the normal kernel returns them, g0 and g6 the scalars of the grades
    of that name, and gamma + i delta the diagonal of A = g2 + g4 on P,
    A formed as ``_grades`` forms it.  dev is a's measured unitarity
    residual, if a was checked (``_normal_norm``).
    """
    if a.shape != (3, 3):
        raise DimensionMismatch(f"expected a 3x3 matrix, got {a.shape[0]}x{a.shape[1]}")
    e, p, ph = _eigen_normal3(a, _normal_norm(a, tol, dev), tol)
    ccos, ssin = _halves(a)
    g0, g6 = _scalar_grades(complex(np.trace(a)))
    d = np.diag(ph @ ((ssin - _EYE3 * g6) + (ccos - _EYE3 * g0)) @ p)
    return p, ph, e, g0, g6, d.real, d.imag


def _decomposition(a: np.ndarray, gam, delt, involutions) -> GradeDecomposition:
    """The grade decomposition of a, with H_i and S_i along the involutions 2 P_i - 1.

    gam + i delt is the diagonal of g2 + g4 on P.  Every array is finite
    without a check: the grades are sums of a's entries, whose squared
    norm is finite, and the involutions, gamma and delta passed a
    residual gate (the normal kernel's, or the closed form's product).
    """
    hs = []
    ss = []
    for g, dl, invol in zip(gam, delt, involutions):
        hs.append(ComplexMat._wrap(0.5 * (g - gam.sum()) * invol))
        ss.append(ComplexMat._wrap(0.5j * (dl - delt.sum()) * invol))
    return GradeDecomposition(*map(ComplexMat._wrap, _grades(a)), tuple(hs), tuple(ss))


def _eigen_decomposition(a: np.ndarray, p: np.ndarray, gam, delt) -> GradeDecomposition:
    """``_decomposition`` along the eigen kernel's involutions 2 p_i p_i^H - 1."""
    return _decomposition(a, gam, delt, [2.0 * _hermitian_outer(p[:, i]) - _EYE3 for i in range(3)])


def split_HS(u, tol: Tolerances = DEFAULT_TOL) -> GradeDecomposition:
    """Full grade decomposition of u, including the H_i/S_i constituents.

    A = g2 + g4 is a polynomial in the normal matrix u and u^dag, so it
    shares u's unitary eigenbasis; diagonalizing u (stable) rather than
    A itself associates each complex eigenvalue gamma + i delta with an
    eigencolumn, and the part ansatz applied to the gammas alone gives
    H_i, to the i deltas alone S_i.  Built this way the H_i are exactly
    Hermitian and the S_i exactly skew.
    """
    a = _as_mat(u).array
    p, _, _, _, _, gam, delt = _eigenbasis(a, tol)
    return _eigen_decomposition(a, p, gam, delt)
