"""Small dense complex matrices (2 <= n <= 8) and their eigensolvers.

Two layers.  The numeric core works on plain ``complex128`` arrays and
trusts its caller: the private kernels ``_eigen_normal3`` and
``_eigen_general`` return (values, vectors, inverse vectors) as arrays,
and ``_normal_problem`` is the one normality test.  The test runs on
every raw input of ``eigen_normal3``, ``grades.split_HS`` and the
decompositions.  For a matrix whose unitarity residual a check has
already measured (``expmap.GroupElement``, and the entry check of the
logs and ``factorize``), ``_normal_norm`` takes normality from that
residual and forms no commutator wherever the residual implies it.
``ComplexMat`` is the boundary type: an immutable wrapper whose
constructor copies its input and checks its shape (``_entries``) and
finiteness.  It carries no arithmetic: every computation runs on
``.array``, and ``ComplexMat._wrap`` adopts an array the package has
just built and already checked, without copying or checking it again.
``ComplexMat.identity`` and ``@`` remain only for perfbench's traced
recomposition of an exponential from its Euler factors; no module of
the package uses them.
Public functions take their argument through ``_as_mat`` (a
``Validated`` type's matrix, or raw entries validated once).  The checks
of ``exp_su3``, ``AlgebraElement`` and ``GroupElement`` take raw entries
through ``_unchecked_mat``, copied and shape-checked only: the norm or
unitarity residual each check measures is finite only for finite
entries, and each refusal scans the entries first, so NonFiniteEntries
keeps its precedence.  Every norm is ``_fro``, numpy's Frobenius norm
without its wrapper.  The public eigensolvers check their input once,
run a kernel, and wrap the result:

``eigen_normal3``
    3x3 normal matrices.  A normal matrix shares its eigenvectors with
    its Hermitian halves H = (a + a^H)/2 and K = (a - a^H)/2i; the seed
    basis is LAPACK's Hermitian eigensolver (``numpy.linalg.eigh``) on
    the half whose spectrum is more spread out, brought to unitary by
    one Newton-Schulz step.  Where that half has a (near-)double
    eigenvalue the seed is arbitrary inside the cluster, so a short
    deterministic sweep of 2x2 rotations on the matrix itself then
    pushes the off-diagonal of v^H a v to the rounding floor.  The
    sweep runs only when that off-diagonal is above its stop, which a
    seed almost never is outside such a cluster.  One first-order
    Rayleigh-Ritz step removes what is left under the stop.  Final
    eigenvalues are Rayleigh quotients in that basis.
    The normality test and this kernel square quantities of the size of
    the input norm, so for a norm outside [2^-100, 2^100] both run on
    the input scaled by a power of two (``_scaled``) and the eigenvalues
    are scaled back; inside that range nothing is scaled.

``eigen_general``
    LAPACK QR iteration on the Hessenberg form (via numpy) for any
    diagonalizable matrix up to 8x8, with the same deterministic
    ordering, in-cluster re-orthonormalization and phase convention.

Both report eigenvalues sorted by imaginary part descending, ties broken
by real part descending, then by modulus descending, and scale each
eigenvector column so its largest-modulus entry is real positive.  Both
raise Overflow when the squared norm of the input is not finite.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    NonFiniteEntries,
    NotDiagonalizable,
    NotNormal,
    Overflow,
)
from .tolerances import DEFAULT_TOL, Tolerances

_EPS = float(np.finfo(np.float64).eps)

_EYE3 = np.eye(3, dtype=np.complex128)
_EYE3.setflags(write=False)


class ComplexMat:
    """Immutable square complex matrix, dimension 2 through 8."""

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = _entries(entries)
        _require_finite(a)
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "ComplexMat":
        """Adopt a square complex128 array the package built and checked.

        No copy and no validation: the caller hands over ownership and
        must not write to the array afterwards.
        """
        m = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(m, "_a", a)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMat is immutable")

    # -- basic access ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The backing array.  Read-only; copy before mutating."""
        return self._a

    def __getitem__(self, idx) -> complex:
        return complex(self._a[idx])

    def __repr__(self) -> str:
        return f"ComplexMat({self._a.tolist()!r})"

    # -- kept for perfbench ----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ComplexMat":
        """The n x n identity.  With ``@``, kept only for perfbench's traced recomposition.

        ``perfbench/tracing._product`` multiplies Euler factors with
        them; no module of the package uses either.
        """
        return cls(np.eye(n, dtype=np.complex128))

    def __matmul__(self, other: "ComplexMat") -> "ComplexMat":
        """The matrix product; Overflow where it overflows.  See ``identity``."""
        if not isinstance(other, ComplexMat):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")
        # the factors are finite, so a non-finite entry is the product's Overflow
        with np.errstate(over="ignore", invalid="ignore"):
            prod = self._a @ other._a
        return _finite_mat(prod, "matrix product")


class Validated:
    """Base of the validated boundary types: a ComplexMat that passed a check."""

    __slots__ = ("_mat",)

    @property
    def mat(self) -> ComplexMat:
        return self._mat

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._mat.array.tolist()!r})"


def _entries(x) -> np.ndarray:
    """x copied into a square complex128 array, n = 2..8; entries not checked finite."""
    a = np.array(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not 2 <= n <= 8:
        raise DimensionMismatch(f"dimension must be in [2, 8], got {n}")
    return a


def _as_mat(x) -> ComplexMat:
    """The matrix of a public argument: a validated type's own, or x validated once."""
    if isinstance(x, Validated):
        return x._mat
    return x if isinstance(x, ComplexMat) else ComplexMat(x)


def _unchecked_mat(x) -> ComplexMat:
    """``_as_mat``, but raw entries are only copied: the caller's check proves them finite."""
    if isinstance(x, Validated):
        return x._mat
    return x if isinstance(x, ComplexMat) else ComplexMat._wrap(_entries(x))


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteEntries("matrix entries must be finite")


def _fro(a: np.ndarray) -> float:
    """``numpy.linalg.norm(a)`` bit for bit: its sums in its order, without its wrapper.

    A real array adds an exact 0.  An overflow warns as numpy's does.
    """
    x = a.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _finite_mat(a: np.ndarray, overflow: str | None = None) -> ComplexMat:
    """Wrap an array the package built, after its one finiteness check.

    ``overflow`` names what a is when it was computed from finite
    inputs: a non-finite entry is then that result's Overflow, not an
    input error.
    """
    if overflow is not None and not np.isfinite(a).all():
        raise Overflow(f"{overflow} overflows: its inputs are finite but too large")
    _require_finite(a)
    return ComplexMat._wrap(a)


def _finite_value(x: float, what: str) -> float:
    """x, computed from finite inputs; Overflow, naming what x is, where it is not finite."""
    if not math.isfinite(x):
        raise Overflow(f"{what} overflows: its inputs are finite but too large")
    return x


def _det3(a: np.ndarray) -> complex:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    return complex(a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20)
                   + a02 * (a10 * a21 - a11 * a20))


@np.errstate(over="ignore", invalid="ignore")
def scalar_residual(m) -> float:
    """Frobenius distance of m from the span of the identity; Overflow where it overflows."""
    return _finite_value(_scalar_residual(_as_mat(m).array), "scalar residual")


def _scalar_residual(a: np.ndarray) -> float:
    n = a.shape[0]
    mean = np.trace(a) / n
    return _fro(a - mean * np.eye(n))


@dataclasses.dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with matching right eigenvectors (columns) and their inverse."""

    values: tuple[complex, ...]
    vectors: ComplexMat
    inverse_vectors: ComplexMat


def _order_indices(values: Sequence[complex]) -> list[int]:
    # imag descending, ties by real descending, ties by modulus descending
    return sorted(
        range(len(values)),
        key=lambda i: (-values[i].imag, -values[i].real, -abs(values[i])),
    )


def _phase_fix_columns(v: np.ndarray) -> np.ndarray:
    """v with each column turned so its first largest-modulus entry is real positive.

    A zero column is left as it is.
    """
    pivots = [v.item(i, j) for j, i in enumerate(np.abs(v).argmax(axis=0).tolist())]
    # abs() of one complex is hypot; np.abs on an array may round otherwise
    mags = [abs(p) or 1.0 for p in pivots]
    return v * (np.array([p.conjugate() for p in pivots]) / np.array(mags))


def _gram_schmidt_inplace(v: np.ndarray, cols: Sequence[int]) -> None:
    # modified Gram-Schmidt over the given columns, in order
    for pos, j in enumerate(cols):
        col = v[:, j].copy()
        for i in cols[:pos]:
            col -= np.vdot(v[:, i], col) * v[:, i]
        nrm = _fro(col)
        if nrm > 0.0:
            v[:, j] = col / nrm


def _pair_rotation(t: np.ndarray, i: int, j: int, stop: float) -> np.ndarray | None:
    """Unitary 2x2 that diagonalizes the (i, j) block of a normal matrix.

    The block's eigenvalues are m +/- sq with sq^2 computed in the
    difference form ((tii - tjj)/2)^2 + tij * tji, which stays accurate
    when the two diagonal entries nearly coincide (the m^2 - det form
    loses everything to cancellation there).  The eigenvector comes
    from whichever closed-form expression has the larger norm, and the
    second column is its orthogonal complement, exact for a normal
    block.  Returns None when the off-diagonal is already at the noise
    floor.
    """
    off = max(abs(t[i, j]), abs(t[j, i]))
    if off <= stop:
        return None
    delta = (t[i, i] - t[j, j]) / 2.0
    sq = np.sqrt(delta * delta + t[i, j] * t[j, i])
    v1 = np.array([t[i, j], sq - delta], dtype=np.complex128)
    v2 = np.array([sq + delta, t[j, i]], dtype=np.complex128)
    u = v1 if _fro(v1) >= _fro(v2) else v2
    u = u / _fro(u)
    return np.array([[u[0], -np.conj(u[1])], [u[1], np.conj(u[0])]], dtype=np.complex128)


# 0 on the diagonal: t * _OFF3 has the moduli of t - diag(t), so the same norm
_OFF3 = 1.0 - np.eye(3)
_OFF3.setflags(write=False)

# the polish's sweep cap
_MAX_SWEEPS = 24


def _polish_normal(
    a: np.ndarray, v: np.ndarray, t: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Drive off-diagonals of t = v^H a v to machine precision; (v, v^H a v).

    Cyclic Jacobi sweeps of exact 2x2 block diagonalizations.  Tight
    eigenvalue clusters start in the linear-convergence regime (the
    off-diagonal mass is comparable to the gaps), so progress per sweep
    can be modest before turning quadratic; the loop only gives up at
    its stop, where the off-diagonal norm is 2.5 n = 7.5 times the
    rounding floor 8 eps scale of one entry, on an outright stall (the
    leftover then is the input's distance from exact normality, which
    no unitary removes), or at the sweep cap.  Below the stop, and on a
    NaN off-diagonal, it returns (v, t) unchanged.  The caller's residual
    check has the final word.
    """
    stop = 8.0 * _EPS * scale  # scale >= 2^-100: _eigen_normal3 runs on _scaled input
    prev = math.inf
    for _ in range(_MAX_SWEEPS):
        offn = _fro(t * _OFF3)
        # written so that a NaN off-diagonal stops the sweeps too
        if not 2.5 * 3 * stop < offn < 0.98 * prev:
            break
        prev = offn
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            t = v.conj().T @ a @ v
            r = _pair_rotation(t, i, j, stop)
            if r is not None:
                v[:, [i, j]] = v[:, [i, j]] @ r
        t = v.conj().T @ a @ v
    return v, t


# Inside [2^-100, 2^100] a norm, its square and the products of entries
# the normal kernel forms neither overflow nor underflow, so the
# normality test and the kernel run on the input as it is.
_PLAIN_NORMS = (2.0**-100, 2.0**100)


def _scaled(arr: np.ndarray, nrm: float) -> tuple[np.ndarray, float, int]:
    """(arr * 2^k, its Frobenius norm, k) for arr of Frobenius norm nrm.

    k is 0 when nrm is inside ``_PLAIN_NORMS``.  Otherwise it brings the
    largest entry modulus into [0.5, 1), and the norm is computed again
    on the scaled array: the squares behind nrm may have underflowed.
    Scaling by a power of two is exact.
    """
    if _PLAIN_NORMS[0] <= nrm <= _PLAIN_NORMS[1]:
        return arr, nrm, 0
    k = -math.frexp(np.max(np.abs(arr)))[1]
    arr = _ldexp(arr, k)
    return arr, _fro(arr), k


def _ldexp(a: np.ndarray, k: int) -> np.ndarray:
    """a * 2^k for a complex array, real and imaginary parts apart so zeros keep their sign."""
    return np.ldexp(np.ascontiguousarray(a).view(np.float64), k).view(np.complex128)


def _normal_problem(arr: np.ndarray, nrm: float, tol: Tolerances) -> str | None:
    """Why arr, of Frobenius norm nrm, fails the one normality test, or None.

    The test is ||arr arr^H - arr^H arr||_F <= normal_tol * nrm^2, run
    on ``_scaled(arr, nrm)``.  nrm is ``_finite_norm(arr)``, which the
    caller computes first.
    """
    arr, nrm, k = _scaled(arr, nrm)
    adj = arr.conj().T
    comm = _fro(arr @ adj - adj @ arr)
    if comm <= tol.normal_tol * nrm * nrm:
        return None
    scale = f" at scale 2^{k}" if k else ""
    return f"commutator residual {comm:.3e}{scale} exceeds normal_tol * norm^2"


@np.errstate(over="ignore", invalid="ignore")
def _finite_norm(arr: np.ndarray) -> float:
    """Frobenius norm of arr; Overflow when its square is not finite.

    The normality test is meaningless there, and the kernels would
    only turn the infinities into NaNs further down.  A norm that
    passes proves arr finite; a refusal scans arr first.
    """
    nrm = _fro(arr)
    if not math.isfinite(nrm * nrm):
        _require_finite(arr)
        raise Overflow(f"matrix norm {nrm:.3e} is too large: its square overflows")
    return nrm


def _normal_norm(arr: np.ndarray, tol: Tolerances, dev: float | None = None) -> float:
    """Frobenius norm of arr once it passes the normality test; NotNormal otherwise.

    dev, when given, is the unitarity residual ||arr^H arr - 1||_F that
    a check of arr measured (``expmap._check_group``).  For any square
    arr, ||arr arr^H - 1||_F = ||arr^H arr - 1||_F (both are the norm of
    the squared singular values less 1), so the commutator is at most
    2 dev.  Computed, each of the products arr arr^H and arr^H arr
    misses its exact value by at most about 7 eps nrm^2 (a complex dot
    product of length 3), and dev and the test form arr^H arr the same
    way; the subtractions and the two Frobenius norms add a relative
    error of a few eps to dev and to the commutator.  So the computed
    commutator is at most 2 dev (1 + 16 eps) + 14.2 eps nrm^2, and where
    that bound with 16 eps nrm^2 is <= normal_tol nrm^2 the test passes
    and the commutator is not formed.
    """
    if dev is not None and dev <= 1.0:
        # ||arr||^2 = tr(arr^H arr) is within n +- sqrt(n) dev, so the norm
        # neither overflows nor leaves _PLAIN_NORMS, and needs no guard
        nrm = _fro(arr)
        slack = 16.0 * _EPS
        if 2.0 * dev * (1.0 + slack) + slack * nrm * nrm <= tol.normal_tol * nrm * nrm:
            return nrm
    else:
        nrm = _finite_norm(arr)
    problem = _normal_problem(arr, nrm, tol)
    if problem is not None:
        raise NotNormal(problem)
    return nrm


def _spread2(g: np.ndarray) -> float:
    """||g - (tr g / 3) 1||_F^2 for a 3x3 Hermitian g.

    Summed entry by entry: the equal form ||g||^2 - (tr g)^2 / 3 cancels
    to rounding noise when g is near a multiple of the identity.
    """
    (d0, p, q), (_, d1, r), (_, _, d2) = g.tolist()
    mean = (d0.real + d1.real + d2.real) / 3.0
    dev = (d0.real - mean) ** 2 + (d1.real - mean) ** 2 + (d2.real - mean) ** 2
    return 2.0 * (abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2) + dev


def _eigen_normal3(
    arr: np.ndarray, nrm: float, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel of eigen_normal3 on a 3x3 array that passed the normality test.

    ``nrm`` is its Frobenius norm.  Returns (values, vectors, inverse
    vectors); the basis is unitary, so the inverse is its adjoint.  The
    kernel runs on ``_scaled(arr, nrm)``, and the eigenvalues are scaled
    back.
    """
    arr, nrm, e = _scaled(arr, nrm)
    if nrm == 0.0:
        ident = np.eye(3, dtype=np.complex128)
        return np.zeros(3, dtype=np.complex128), ident, ident

    adj = arr.conj().T
    h = (arr + adj) / 2.0
    k = (arr - adj) / 2j
    g = h if _spread2(h) >= _spread2(k) else k
    v = np.linalg.eigh(g)[1]
    # one Newton-Schulz step: LAPACK's basis is unitary to a few eps, this
    # brings it to the rounding floor before the polish and the residual gate
    v = v @ (1.5 * _EYE3 - 0.5 * (v.conj().T @ v))
    v, t = _polish_normal(arr, v, v.conj().T @ arr @ v, nrm)
    d = t.diagonal()
    # One first-order Rayleigh-Ritz step.  A basis exp(X) off the true one
    # has v^H a v = diag(d) + [diag(d), X] to first order, so X_ij =
    # t_ij / (d_i - d_j).  It removes the tens of eps the polish leaves under
    # its stop, which a log multiplies by its phase gaps.  Only the skew part
    # of X is a rotation; a pair where X would not be small stays as it is.
    gaps = d[:, None] - d
    x = np.divide(t, gaps, out=np.zeros((3, 3), dtype=np.complex128),
                  where=np.abs(t) < 1e-8 * np.abs(gaps))
    v = v - v @ ((x - x.conj().T) * 0.5)

    idx = _order_indices(d.tolist())
    d = d[idx]
    v = _phase_fix_columns(v[:, idx])
    vh = v.conj().T

    # "not <=" so that a NaN residual is refused too; a finite one proves
    # every entry of v and d finite, so what is built from them is finite
    residual = _fro((v * d) @ vh - arr)
    if not residual <= tol.eig_tol * nrm:
        raise EigenFailure(
            f"reconstruction residual {residual:.3e} exceeds eig_tol * norm"
        )
    return (_ldexp(d, -e) if e else d), v, vh


def _eigen_system(values: np.ndarray, v: np.ndarray, vinv: np.ndarray) -> EigenSystem:
    return EigenSystem(
        tuple(complex(x) for x in values), ComplexMat._wrap(v), ComplexMat._wrap(vinv))


def eigen_normal3(a, tol: Tolerances = DEFAULT_TOL) -> EigenSystem:
    """Eigendecomposition of a 3x3 normal matrix with a unitary basis.

    The returned basis is unitary; ``inverse_vectors`` is its adjoint.
    Raises NotNormal when the commutator test fails, EigenFailure when
    the reconstruction residual cannot be brought under eig_tol (only
    reachable for inputs that barely pass the normality test).
    """
    arr = _as_mat(a).array
    if arr.shape[0] != 3:
        raise DimensionMismatch("eigen_normal3 needs a 3x3 matrix, got %dx%d" % arr.shape)
    return _eigen_system(*_eigen_normal3(arr, _normal_norm(arr, tol), tol))


def _eigen_general(arr: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel of eigen_general: (values, vectors, inverse vectors) as arrays."""
    n = arr.shape[0]
    nrm = _finite_norm(arr)
    w, v = np.linalg.eig(arr)

    # ordered and clustered on Python complex values: the numpy scalars'
    # values, and abs is hypot in both, without numpy's per-scalar cost
    values = w.tolist()
    idx = _order_indices(values)
    values = [values[i] for i in idx]
    w = w[idx]
    v = v[:, idx].copy()

    # clusters joined through pairs closer than the gap, relative to the
    # input scale: a pair's labels merge, so a chain of close pairs is one
    gap = tol.cluster_gap * max(nrm, 1e-300)
    label = list(range(n))
    for i, j in itertools.combinations(range(n), 2):
        if abs(values[i] - values[j]) < gap:
            old = label[j]
            label = [label[i] if x == old else x for x in label]
    for c in set(label):
        if label.count(c) > 1:
            _gram_schmidt_inplace(v, [i for i in range(n) if label[i] == c])

    v = _phase_fix_columns(v)
    try:
        cond = np.linalg.cond(v)
    except np.linalg.LinAlgError:  # the SVD of a basis with NaN entries does not converge
        cond = math.nan
    if not np.isfinite(cond) or cond > tol.diag_cond_max:
        raise NotDiagonalizable(
            f"eigenvector condition estimate {cond:.3e} exceeds {tol.diag_cond_max:.1e}"
        )
    vinv = np.linalg.inv(v)
    residual = _fro(v @ np.diag(w) @ vinv - arr)
    if not residual <= tol.eig_tol * max(nrm, 1e-300):
        raise NotDiagonalizable(
            f"reconstruction residual {residual:.3e} exceeds eig_tol * norm"
        )
    return w, v, vinv


def eigen_general(a, tol: Tolerances = DEFAULT_TOL) -> EigenSystem:
    """Eigendecomposition of a diagonalizable matrix up to 8x8.

    QR iteration on the Hessenberg form (LAPACK through numpy), then the
    package's deterministic ordering, Gram-Schmidt within eigenvalue
    clusters, and the real-positive-pivot phase convention.  Raises
    NotDiagonalizable when the eigenvector matrix condition exceeds
    diag_cond_max or the reconstruction residual exceeds eig_tol.
    """
    return _eigen_system(*_eigen_general(_as_mat(a).array, tol))
