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
decomposition: A = g2 + g4 = U - g0 - g6 has the complex eigenvalues
gamma_i + i delta_i = e_i - g0 - g6 on U's eigenbasis, e U's
eigenvalues, and feeding the real and imaginary parts separately
through the part ansatz yields exactly Hermitian H_i and exactly
skew-Hermitian S_i with sum g4 and g2 respectively.

The arithmetic runs on complex128 arrays.  ``_diagonal`` gives g0, g6
and the real scalars h_i, s_i of H_i and S_i from tr U and e alone,
once for ``factorlog``'s cascade and for the grades.
``_eigen_spectrum`` runs the normal kernel once and returns tr U, e
and the kernel's involutions 2 p_i p_i^H - 1, what
``split_HS`` and ``factorlog``'s eigen path run on.  ``_decomposition``
builds the grade matrices and the H_i/S_i from U, tr U, e and the
three involutions 2 P_i - 1, wherever those come from: ``split_HS``
takes the kernel's, and ``factorlog`` those of its units, on the eigen
path the kernel's and on the closed form Lagrange's polynomials in U.
Public functions take a ``GroupElement``, ``ComplexMat`` or raw
entries and wrap each result.
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
def _grades(a: np.ndarray, t: complex) -> tuple[np.ndarray, ...]:
    """(g0, g2, g4, g6, ccos, ssin) of a square array of trace t."""
    ccos, ssin = _halves(a)
    c0, c6 = _scalar_grades(t)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    g0 = eye * c0
    g6 = eye * c6
    return g0, ssin - g6, ccos - g0, g6, ccos, ssin


@np.errstate(over="ignore", invalid="ignore")
def _own_grades(u) -> tuple[np.ndarray, ...]:
    """``_grades`` of a public argument, its trace taken here."""
    a = _as_mat(u).array
    return _grades(a, complex(np.trace(a)))


@np.errstate(over="ignore", invalid="ignore")
def ccos_ssin(u) -> tuple[ComplexMat, ComplexMat]:
    """Hermitian and skew-Hermitian halves of u; they sum back to u.  Overflow where they overflow."""
    ccos, ssin = _halves(_as_mat(u).array)
    return _finite_mat(ccos, "Hermitian half"), _finite_mat(ssin, "skew-Hermitian half")


def grade0(u) -> ComplexMat:
    return _finite_mat(_own_grades(u)[0], "grade 0")


def grade2(u) -> ComplexMat:
    return _finite_mat(_own_grades(u)[1], "grade 2")


def grade4(u) -> ComplexMat:
    return _finite_mat(_own_grades(u)[2], "grade 4")


def grade6(u) -> ComplexMat:
    return _finite_mat(_own_grades(u)[3], "grade 6")


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


def _diagonal(t: complex, e) -> tuple:
    """(g0, g6, h, s) of a normal matrix of trace t and eigenvalues e.

    g0 and g6 are the scalars of the grades of that name; on the
    eigenbasis g2 + g4 = U - g0 - g6 is diagonal, with entries
    gamma_i + i delta_i = e_i - g0 - g6, and H_i = h_i (2 P_i - 1),
    S_i = i s_i (2 P_i - 1) with the real scalars

        h_i = (gamma_i - sum gamma) / 2,   s_i = (delta_i - sum delta) / 2.

    The one derivation of h and s, for ``factorlog``'s cascade and for
    the grades (``_decomposition``).
    """
    g0, g6 = _scalar_grades(t)
    d = [x - g0 - g6 for x in e]
    # sum gamma + i sum delta: a complex sum adds the two parts apart
    z = sum(d)
    return g0, g6, [0.5 * (x.real - z.real) for x in d], [0.5 * (x.imag - z.imag) for x in d]


def _eigen_spectrum(a: np.ndarray, tol: Tolerances, dev: float | None = None) -> tuple:
    """(tr a, a's eigenvalues, the involutions 2 p_i p_i^H - 1) of a 3x3 normal array.

    The eigenvalues and the columns p_i are the normal kernel's.  The
    involutions are assembled from real and imaginary blocks: a direct
    complex outer product can pick up ~1e-20 imaginary dirt on the
    diagonal when the compiler contracts the multiply into FMAs, and
    this form is exactly Hermitian in IEEE arithmetic.  dev is a's
    measured unitarity residual, if a was checked (``_normal_norm``).
    """
    if a.shape != (3, 3):
        raise DimensionMismatch(f"expected a 3x3 matrix, got {a.shape[0]}x{a.shape[1]}")
    e, p, _ = _eigen_normal3(a, _normal_norm(a, tol, dev), tol)
    # row i of vr, vi is column p_i; the stack of the p_i p_i^H
    vr, vi = p.real.T, p.imag.T
    re = vr[:, :, None] * vr[:, None, :] + vi[:, :, None] * vi[:, None, :]
    im = vi[:, :, None] * vr[:, None, :] - vr[:, :, None] * vi[:, None, :]
    return complex(np.trace(a)), e.tolist(), 2.0 * (re + 1j * im) - _EYE3


def _decomposition(a: np.ndarray, t: complex, e, involutions) -> GradeDecomposition:
    """The grade decomposition of a, with H_i and S_i along the involutions 2 P_i - 1.

    t and e are a's trace and eigenvalues, in the involutions' order
    (``_diagonal``).  Every array is finite without a check: the grades
    are sums of a's entries, whose squared norm is finite, and the
    involutions and e passed a residual gate (the normal kernel's, or
    the closed form's product).
    """
    _, _, h, s = _diagonal(t, e)
    hs = tuple(ComplexMat._wrap(hi * x) for hi, x in zip(h, involutions))
    ss = tuple(ComplexMat._wrap(1j * si * x) for si, x in zip(s, involutions))
    return GradeDecomposition(*map(ComplexMat._wrap, _grades(a, t)), hs, ss)


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
    return _decomposition(a, *_eigen_spectrum(a, tol))
