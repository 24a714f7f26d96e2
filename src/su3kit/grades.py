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

The arithmetic runs on complex128 arrays (``_split_HS`` and helpers,
which ``factorlog`` calls directly); public functions take a
``GroupElement``, ``ComplexMat`` or raw entries and wrap each result.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatch
from .smallmat import ComplexMat, _as_mat, _eigen_normal3, _finite_mat, _normal_norm
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


def _grades(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g0, g2, g4, g6, ccos, ssin) of a square array."""
    ccos, ssin = _halves(a)
    t = complex(np.trace(a))
    eye = np.eye(a.shape[0], dtype=np.complex128)
    g0 = eye * ((1.0 + ((t + t.conjugate()) / 2.0)) / 4.0)
    g6 = eye * (((t - t.conjugate()) / 2.0) / 4.0)
    return g0, ssin - g6, ccos - g0, g6, ccos, ssin


def ccos_ssin(u) -> tuple[ComplexMat, ComplexMat]:
    """Hermitian and skew-Hermitian halves of u; they sum back to u."""
    return tuple(map(_finite_mat, _halves(_as_mat(u).array)))


def grade0(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[0])


def grade2(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[1])


def grade4(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[2])


def grade6(u) -> ComplexMat:
    return _finite_mat(_grades(_as_mat(u).array)[3])


def traceless_projection(m) -> ComplexMat:
    """M - tr(M)/3, the projection used in lattice gauge fixing.

    Differs from grade2 of a group element by (1/12) tr(ssin) times the
    identity; kept for comparison, not used by the grade machinery.
    """
    m = _as_mat(m)
    return m - ComplexMat.identity(m.n) * (m.trace() / 3.0)


def _hermitian_outer(v: np.ndarray) -> np.ndarray:
    # v v^dag assembled from real/imag blocks.  A direct complex
    # np.outer(v, v.conj()) can pick up ~1e-20 imaginary dirt on the
    # diagonal when the compiler contracts the multiply into FMAs;
    # this form is exactly Hermitian in IEEE arithmetic.
    re = np.outer(v.real, v.real) + np.outer(v.imag, v.imag)
    im = np.outer(v.imag, v.real) - np.outer(v.real, v.imag)
    return re + 1j * im


def _split_HS(a: np.ndarray, tol: Tolerances) -> tuple:
    """split_HS on a 3x3 array: (g0, g2, g4, g6, ccos, ssin, H, S) as arrays."""
    if a.shape != (3, 3):
        raise DimensionMismatch(f"expected a 3x3 matrix, got {a.shape[0]}x{a.shape[1]}")
    _, p, _ = _eigen_normal3(a, _normal_norm(a, tol), tol)
    grades = _grades(a)
    d = np.diag(p.conj().T @ (grades[1] + grades[2]) @ p)  # A = g2 + g4 on u's eigenbasis
    gam = d.real
    delt = d.imag
    eye = np.eye(3)
    hs = []
    ss = []
    for i in range(3):
        invol = 2.0 * _hermitian_outer(p[:, i]) - eye
        hs.append(0.5 * (gam[i] - gam.sum()) * invol)
        ss.append(0.5j * (delt[i] - delt.sum()) * invol)
    return (*grades, tuple(hs), tuple(ss))


def _decomposition(arrays: tuple) -> GradeDecomposition:
    """Wrap the arrays of _split_HS, each after one finiteness check."""
    *grades, hs, ss = arrays
    return GradeDecomposition(*map(_finite_mat, grades), tuple(map(_finite_mat, hs)),
                              tuple(map(_finite_mat, ss)))


def split_HS(u, tol: Tolerances = DEFAULT_TOL) -> GradeDecomposition:
    """Full grade decomposition of u, including the H_i/S_i constituents.

    A = g2 + g4 is a polynomial in the normal matrix u and u^dag, so it
    shares u's unitary eigenbasis; diagonalizing u (stable) rather than
    A itself associates each complex eigenvalue gamma + i delta with an
    eigencolumn, and the part ansatz applied to the gammas alone gives
    H_i, to the i deltas alone S_i.  Built this way the H_i are exactly
    Hermitian and the S_i exactly skew.
    """
    return _decomposition(_split_HS(_as_mat(u).array, tol))
