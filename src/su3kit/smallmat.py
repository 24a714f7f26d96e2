"""Small dense complex matrices (2 <= n <= 8) and their eigensolvers.

Two layers.  The numeric core works on plain ``complex128`` arrays and
trusts its caller: the private kernels ``_eigen_normal3`` and
``_eigen_general`` return (values, vectors, inverse vectors) as arrays,
and ``_norm_and_commutator`` is the one normality test.  ``ComplexMat``
is the boundary type: an immutable wrapper whose constructor copies its
input and validates shape and finiteness.  Its arithmetic returns fresh
validated objects; ``ComplexMat._wrap`` adopts an array the package has
just built and already checked, without copying or checking it again.
Public functions take their argument through ``_as_mat`` (a
``Validated`` type's matrix, or raw entries validated once).  The public
eigensolvers check their input once, run a kernel, and wrap the result:

``eigen_normal3``
    Closed form for 3x3 normal matrices.  Eigenvalues come from the
    characteristic cubic of the Hermitian part (trigonometric method),
    eigenvectors from adjugate null-space extraction with the largest
    column as pivot, degenerate clusters from an orthonormal complement.
    A short deterministic sweep of 2x2 rotations on the original matrix
    then pushes the reconstruction residual to machine precision, which
    a single cubic + null-space pass cannot guarantee near eigenvalue
    clusters.  Final eigenvalues are Rayleigh quotients in that basis.

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
    Singular,
)
from .tolerances import DEFAULT_TOL, Tolerances

_EPS = float(np.finfo(np.float64).eps)


class ComplexMat:
    """Immutable square complex matrix, dimension 2 through 8."""

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if not 2 <= n <= 8:
            raise DimensionMismatch(f"dimension must be in [2, 8], got {n}")
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

    # -- construction --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ComplexMat":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def zeros(cls, n: int) -> "ComplexMat":
        return cls(np.zeros((n, n), dtype=np.complex128))

    @classmethod
    def diag(cls, values: Sequence[complex]) -> "ComplexMat":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)))

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

    # -- arithmetic -----------------------------------------------------------

    def _check_same_dim(self, other: "ComplexMat") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "ComplexMat") -> "ComplexMat":
        if not isinstance(other, ComplexMat):
            return NotImplemented
        self._check_same_dim(other)
        return ComplexMat(self._a + other._a)

    def __sub__(self, other: "ComplexMat") -> "ComplexMat":
        if not isinstance(other, ComplexMat):
            return NotImplemented
        self._check_same_dim(other)
        return ComplexMat(self._a - other._a)

    def __matmul__(self, other: "ComplexMat") -> "ComplexMat":
        if not isinstance(other, ComplexMat):
            return NotImplemented
        self._check_same_dim(other)
        return ComplexMat(self._a @ other._a)

    def __mul__(self, scalar) -> "ComplexMat":
        if isinstance(scalar, (int, float, complex, np.number)):
            return ComplexMat(self._a * complex(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ComplexMat":
        return self * (1.0 / complex(scalar))

    def __neg__(self) -> "ComplexMat":
        return ComplexMat(-self._a)

    # -- reductions -----------------------------------------------------------

    def adjoint(self) -> "ComplexMat":
        return ComplexMat(self._a.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self._a))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self._a))

    def det(self) -> complex:
        a = self._a
        if self.n == 2:
            return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        if self.n == 3:
            return _det3(a)
        # LU with partial pivoting for the larger sizes
        return complex(np.linalg.det(a))

    def inverse(self, tol: Tolerances = DEFAULT_TOL) -> "ComplexMat":
        return ComplexMat(_inverse(self._a, tol))


def _inverse(a: np.ndarray, tol: Tolerances) -> np.ndarray:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > tol.inv_cond_max:
        raise Singular(f"condition estimate {cond:.3e} exceeds {tol.inv_cond_max:.1e}")
    return np.linalg.inv(a)


class Validated:
    """Base of the validated boundary types: a ComplexMat that passed a check."""

    __slots__ = ("_mat",)

    @property
    def mat(self) -> ComplexMat:
        return self._mat

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._mat.array.tolist()!r})"


def _as_mat(x) -> ComplexMat:
    """The matrix of a public argument: a validated type's own, or x validated once."""
    if isinstance(x, Validated):
        return x._mat
    return x if isinstance(x, ComplexMat) else ComplexMat(x)


def _require_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntries("matrix entries must be finite")


def _finite_mat(a: np.ndarray) -> ComplexMat:
    """Wrap an array the package built, after its one finiteness check."""
    _require_finite(a)
    return ComplexMat._wrap(a)


def _det3(a: np.ndarray) -> complex:
    return complex(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def commutator(x: ComplexMat, y: ComplexMat) -> ComplexMat:
    return x @ y - y @ x


def scalar_residual(m) -> float:
    """Frobenius distance of m from the span of the identity."""
    return _scalar_residual(_as_mat(m).array)


def _scalar_residual(a: np.ndarray) -> float:
    n = a.shape[0]
    mean = np.trace(a) / n
    return float(np.linalg.norm(a - mean * np.eye(n)))


@dataclasses.dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with matching right eigenvectors (columns) and their inverse."""

    values: tuple[complex, ...]
    vectors: ComplexMat
    inverse_vectors: ComplexMat


def _order_indices(values: np.ndarray) -> list[int]:
    # imag descending, ties by real descending, ties by modulus descending
    return sorted(
        range(len(values)),
        key=lambda i: (-values[i].imag, -values[i].real, -abs(values[i])),
    )


def _phase_fix_columns(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        mag = abs(col[k])
        if mag > 0.0:
            v[:, j] = col * (col[k].conjugate() / mag)
    return v


def _gram_schmidt_inplace(v: np.ndarray, cols: Sequence[int]) -> None:
    # modified Gram-Schmidt over the given columns, in order
    for pos, j in enumerate(cols):
        col = v[:, j].copy()
        for i in cols[:pos]:
            col -= np.vdot(v[:, i], col) * v[:, i]
        nrm = np.linalg.norm(col)
        if nrm > 0.0:
            v[:, j] = col / nrm


# -- closed-form 3x3 machinery ------------------------------------------------


def _adjugate3(m: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [
                m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1],
                m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2],
                m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1],
            ],
            [
                m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2],
                m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0],
                m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2],
            ],
            [
                m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0],
                m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1],
                m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0],
            ],
        ],
        dtype=np.complex128,
    )


def _eigh3_values(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix, ascending, trigonometric method."""
    q = np.trace(h).real / 3.0
    h0 = h - q * np.eye(3)
    p1 = abs(h0[0, 1]) ** 2 + abs(h0[0, 2]) ** 2 + abs(h0[1, 2]) ** 2
    p2 = h0[0, 0].real ** 2 + h0[1, 1].real ** 2 + h0[2, 2].real ** 2 + 2.0 * p1
    if p2 <= 0.0:
        return np.array([q, q, q])
    p = math.sqrt(p2 / 6.0)
    detb = (
        h0[0, 0] * (h0[1, 1] * h0[2, 2] - h0[1, 2] * h0[2, 1])
        - h0[0, 1] * (h0[1, 0] * h0[2, 2] - h0[1, 2] * h0[2, 0])
        + h0[0, 2] * (h0[1, 0] * h0[2, 1] - h0[1, 1] * h0[2, 0])
    ).real
    r = detb / (2.0 * p * p * p)
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    big = q + 2.0 * p * math.cos(phi)
    small = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    mid = 3.0 * q - big - small
    return np.array([small, mid, big])


def _null_vector3(m: np.ndarray, avoid: list[np.ndarray]) -> np.ndarray:
    """Unit null vector of a (numerically) rank-2 3x3 matrix.

    Uses the adjugate column with the largest norm; falls back to the
    basis vector least represented in ``avoid`` when the adjugate is
    too small to trust (near-degenerate pivot).
    """
    adj = _adjugate3(m)
    norms = np.linalg.norm(adj, axis=0)
    k = int(np.argmax(norms))
    scale2 = float(np.linalg.norm(m)) ** 2
    if norms[k] > 1e3 * _EPS * max(scale2, 1e-300):
        return adj[:, k] / norms[k]
    # degenerate pivot: pick the coordinate direction most orthogonal to
    # the vectors found so far; later orthonormalization finishes the job
    best, best_overlap = 0, math.inf
    for j in range(3):
        e = np.zeros(3, dtype=np.complex128)
        e[j] = 1.0
        overlap = sum(abs(np.vdot(u, e)) for u in avoid)
        if overlap < best_overlap:
            best, best_overlap = j, overlap
    e = np.zeros(3, dtype=np.complex128)
    e[best] = 1.0
    for u in avoid:
        e -= np.vdot(u, e) * u
    nrm = np.linalg.norm(e)
    return e / nrm if nrm > 0.0 else e


def _complement_pair(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the plane orthogonal to unit u."""
    k = int(np.argmin(np.abs(u)))
    e = np.zeros(3, dtype=np.complex128)
    e[k] = 1.0
    v1 = e - np.vdot(u, e) * u
    v1 = v1 / np.linalg.norm(v1)
    v2 = np.conj(np.cross(u, v1))
    v2 = v2 / np.linalg.norm(v2)
    return v1, v2


def _eigh3_vectors(h: np.ndarray, w: np.ndarray, thr: float) -> np.ndarray:
    """Initial eigenbasis for Hermitian h with ascending eigenvalues w."""
    gap01 = w[1] - w[0]
    gap12 = w[2] - w[1]
    v = np.zeros((3, 3), dtype=np.complex128)
    if w[2] - w[0] <= thr:
        return np.eye(3, dtype=np.complex128)
    if gap01 <= thr:  # {0,1} cluster, 2 isolated
        v2 = _null_vector3(h - w[2] * np.eye(3), [])
        a, b = _complement_pair(v2)
        v[:, 0], v[:, 1], v[:, 2] = a, b, v2
    elif gap12 <= thr:  # 0 isolated, {1,2} cluster
        v0 = _null_vector3(h - w[0] * np.eye(3), [])
        a, b = _complement_pair(v0)
        v[:, 0], v[:, 1], v[:, 2] = v0, a, b
    else:
        found: list[np.ndarray] = []
        for i in range(3):
            found.append(_null_vector3(h - w[i] * np.eye(3), found))
        v[:, 0], v[:, 1], v[:, 2] = found
    _gram_schmidt_inplace(v, [0, 1, 2])
    return v


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
    u = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    nu = np.linalg.norm(u)
    if nu <= stop:
        return None
    u = u / nu
    return np.array([[u[0], -np.conj(u[1])], [u[1], np.conj(u[0])]], dtype=np.complex128)


def _polish_normal(a: np.ndarray, v: np.ndarray, scale: float, max_sweeps: int = 24) -> np.ndarray:
    """Drive off-diagonals of v^H a v to machine precision.

    Cyclic Jacobi sweeps of exact 2x2 block diagonalizations.  Tight
    eigenvalue clusters start in the linear-convergence regime (the
    off-diagonal mass is comparable to the gaps), so progress per sweep
    can be modest before turning quadratic; the loop only gives up at
    the rounding floor, on an outright stall (the leftover then is the
    input's distance from exact normality, which no unitary removes),
    or at the sweep cap.  The caller's residual check has the final word.
    """
    stop = 8.0 * _EPS * max(scale, 1e-300)
    n = a.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    prev = math.inf
    for _ in range(max_sweeps):
        t = v.conj().T @ a @ v
        offn = float(np.linalg.norm(t - np.diag(np.diag(t))))
        if offn <= 2.5 * n * stop or offn >= 0.98 * prev:
            break
        prev = offn
        for (i, j) in pairs:
            t = v.conj().T @ a @ v
            r = _pair_rotation(t, i, j, stop)
            if r is not None:
                v[:, [i, j]] = v[:, [i, j]] @ r
    return v


# Huge inputs overflow here by design and are refused as Overflow or as
# a NaN that fails its test, so numpy's RuntimeWarning is only noise.
@np.errstate(over="ignore", invalid="ignore")
def _norm_and_commutator(arr: np.ndarray) -> tuple[float, float]:
    """Frobenius norms of arr and of its commutator with its adjoint.

    The one normality test compares the second against normal_tol times
    the square of the first.  Raises Overflow when that square is not
    finite: the test is meaningless there, and the closed form would
    only turn the infinities into math domain errors further down.
    """
    nrm = _finite_norm(arr)
    comm = np.linalg.norm(arr @ arr.conj().T - arr.conj().T @ arr)
    return nrm, comm


@np.errstate(over="ignore", invalid="ignore")
def _finite_norm(arr: np.ndarray) -> float:
    nrm = float(np.linalg.norm(arr))
    if not math.isfinite(nrm * nrm):
        raise Overflow(f"matrix norm {nrm:.3e} is too large: its square overflows")
    return nrm


def _normal_norm(arr: np.ndarray, tol: Tolerances) -> float:
    """Frobenius norm of arr once it passes the normality test; NotNormal otherwise."""
    nrm, comm = _norm_and_commutator(arr)
    if not comm <= tol.normal_tol * nrm * nrm:
        raise NotNormal(f"commutator residual {comm:.3e} exceeds normal_tol * norm^2")
    return nrm


def _eigen_normal3(
    arr: np.ndarray, nrm: float, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel of eigen_normal3 on a 3x3 array that passed the normality test.

    ``nrm`` is its Frobenius norm.  Returns (values, vectors, inverse
    vectors); the basis is unitary, so the inverse is its adjoint.
    """
    if nrm == 0.0:
        ident = np.eye(3, dtype=np.complex128)
        return np.zeros(3, dtype=np.complex128), ident, ident

    h = (arr + arr.conj().T) / 2.0
    k = (arr - arr.conj().T) / 2j
    spread_h = float(np.linalg.norm(h - (np.trace(h).real / 3.0) * np.eye(3)))
    spread_k = float(np.linalg.norm(k - (np.trace(k).real / 3.0) * np.eye(3)))
    g = h if spread_h >= spread_k else k
    w = _eigh3_values(g)
    v = _eigh3_vectors(g, w, thr=1e-5 * nrm)
    v = _polish_normal(arr, v, nrm)

    d = np.diag(v.conj().T @ arr @ v).copy()
    idx = _order_indices(d)
    d = d[idx]
    v = _phase_fix_columns(v[:, idx])

    residual = float(np.linalg.norm(v @ np.diag(d) @ v.conj().T - arr))
    if residual > tol.eig_tol * nrm:
        raise EigenFailure(
            f"reconstruction residual {residual:.3e} exceeds eig_tol * norm"
        )
    return d, v, v.conj().T


def _eigen_system(values: np.ndarray, v: np.ndarray, vinv: np.ndarray) -> EigenSystem:
    return EigenSystem(
        tuple(complex(x) for x in values), ComplexMat._wrap(v), ComplexMat._wrap(vinv))


def eigen_normal3(a, tol: Tolerances = DEFAULT_TOL) -> EigenSystem:
    """Closed-form eigendecomposition of a 3x3 normal matrix.

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

    idx = _order_indices(w)
    w = w[idx]
    v = v[:, idx].copy()

    # union of pairs closer than the cluster gap, relative to the input scale
    gap = tol.cluster_gap * max(nrm, 1e-300)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) < gap:
                parent[find(j)] = find(i)
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    for members in clusters.values():
        if len(members) > 1:
            _gram_schmidt_inplace(v, members)

    v = _phase_fix_columns(v)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > tol.diag_cond_max:
        raise NotDiagonalizable(
            f"eigenvector condition estimate {cond:.3e} exceeds {tol.diag_cond_max:.1e}"
        )
    vinv = np.linalg.inv(v)
    residual = float(np.linalg.norm(v @ np.diag(w) @ vinv - arr))
    if residual > tol.eig_tol * max(nrm, 1e-300):
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
