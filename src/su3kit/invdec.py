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
and det(B), and part i is (mu_i/2)(2 P_i - 1), mu_i = +-2i sqrt(-lambda_i)
the eigenvalue and P_i the spectral projector as Lagrange's
polynomial in B (see ``decompose_closed_form``).  ``_involutions``
builds such a stack of scaled involutions from three eigenvalues and
a matrix, for these parts and for ``factorlog.factorize``'s units and
branch logs, on the Lagrange rows of ``_lagrange_rows``, which
``factorlog``'s closed-form principal log sums too.
The closed form requires distinct nonzero lambdas; the eigen route
works in every case and is the arbiter the closed form is
cross-checked against.

Everything runs on plain arrays.  The eigen route's numeric core is
``_eigen_parts``: for an n x n array (3 <= n <= 8) and its norm it
returns the part coefficients with the eigenvectors and their inverse,
from the normal 3x3 kernel when the input is a normal 3x3
matrix (the one normality test decides) and from the general kernel
otherwise.  ``_decompose`` builds the ``SimplePart`` objects from it for
both ``decompose_via_eigen`` and ``decompose_nxn``: all n parts as one
stacked (n, n, n) array, and their su(3) units as one more, each under
one finiteness check, wrapped as views.  ``max_commutator_residual``
likewise forms every product of two parts in one stacked matmul.  The
closed form runs on arrays too, and both routes give the su(3) parts
their angles and directions through ``_su3_parts``, in one stacked
product.  The one real cubic solver,
``_cubic_roots``, serves ``lambda_roots`` and ``expmap.exp_su3``, which
needs the roots only and no part.  A unitary's characteristic cubic,
whose coefficients are complex, is solved in ``factorlog``, for its
closed-form log and ``factorize``.
``AlgebraElement`` is the validated boundary type; its check
(``_algebra_norm``, built on ``_su3_problem``) decides whether the
parts of a raw input carry an angle and a direction, and an
``AlgebraElement`` argument is taken as su(3) without a second check.  ``AlgebraElement`` and ``expmap.exp_su3``
copy raw entries once (``smallmat._unchecked_mat``); the check's norm
proves them finite, and ``_su3_problem`` reads the trace and the
Hermitian residual from one ``tolist()``.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (DegenerateLambdas, DimensionMismatch, InvalidAlgebraElement, NonCommutingParts,
                     Overflow)
from .smallmat import (
    _EYE3,
    ComplexMat,
    Validated,
    _as_mat,
    _det3,
    _eigen_general,
    _eigen_normal3,
    _finite_norm,
    _fro,
    _ldexp,
    _normal_problem,
    _require_finite,
    _scaled,
    _unchecked_mat,
)
from .tolerances import DEFAULT_TOL, Tolerances


class AlgebraElement(Validated):
    """A validated traceless skew-Hermitian 3x3 matrix."""

    __slots__ = ()

    def __init__(self, mat, tol: Tolerances = DEFAULT_TOL) -> None:
        m = _unchecked_mat(mat)
        _algebra_norm(m.array, tol)
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

    @classmethod
    def _wrap(cls, mat: ComplexMat, lam: complex, beta: float | None,
              unit: ComplexMat | None) -> "SimplePart":
        """A part from fields the package built and checked, as ``ComplexMat._wrap`` adopts arrays.

        The frozen dataclass's ``__init__`` sets each field through
        ``object.__setattr__``; this fills the instance dict in one step.
        """
        part = object.__new__(cls)
        part.__dict__.update(mat=mat, lam=lam, beta=beta, unit=unit)
        return part


@dataclasses.dataclass(frozen=True)
class InvariantDecomposition:
    parts: tuple[SimplePart, ...]
    source: ComplexMat

    # overflowing residuals are refused below, so numpy's warnings are noise
    @np.errstate(over="ignore", invalid="ignore")
    def sum_residual(self) -> float:
        total = functools.reduce(np.add, [p.mat.array for p in self.parts])
        return _residual_norm(total - self.source.array)

    @np.errstate(over="ignore", invalid="ignore")
    def max_commutator_residual(self) -> float:
        """The largest Frobenius norm of [b_i, b_j] over the pairs i < j."""
        if len(self.parts) < 2:
            return 0.0
        return math.sqrt(_commutator_sq([p.mat.array for p in self.parts]))


def _commutator_sq(mats: list[np.ndarray], bound=(math.inf,)) -> float:
    """The largest squared Frobenius norm of [b_i, b_j] over m >= 2 same-size arrays b_i.

    All products b_i b_j come from one stacked matmul; row i m + j of
    ``d`` is [b_i, b_j], flattened, and entry i m + j of ``sq`` its
    squared norm, summed as ``_fro`` sums it, re.re + im.im from the
    same dots, so sqrt of the result is the largest per-pair norm bit
    for bit.  The pairs are judged in the order (0, 1), (0, 2), ...,
    (1, 2), ...: the first whose norm is not finite is refused by
    ``_residual_norm`` as it would be alone (Overflow where the
    commutator's entries are finite, NonFiniteEntries where a product
    overflowed), and the first whose norm exceeds its entry of
    ``bound`` (one value for every pair, or m * m in the layout of
    ``sq``, symmetric) as NonCommutingParts naming the pair.  Since
    [b_j, b_i] = -[b_i, b_j] exactly, sq is symmetric, so the first
    entry flagged in row order is that pair.  Runs under no
    np.errstate: its callers hold one.
    """
    m = len(mats)
    a = np.stack(mats)
    prod = a[:, None] @ a
    d = (prod - prod.swapaxes(0, 1)).reshape(m * m, -1)
    sq = (d.real[:, None, :] @ d.real[:, :, None] + d.imag[:, None, :] @ d.imag[:, :, None]).ravel()
    # row i m + i is [b_i, b_i]: 0, or NaN where b_i^2 overflowed, which no pair sees
    sq[:: m + 1] = 0.0
    worst = sq.max()
    # a strict test, and one for all pairs: passing it passes every pair
    if not math.sqrt(worst) < min(bound):
        bad = np.flatnonzero(~np.isfinite(sq) | (np.sqrt(sq) > bound))
        if bad.size:
            _residual_norm(d[bad[0]])
            raise NonCommutingParts(f"parts {bad[0] // m} and {bad[0] % m} do not commute")
    return worst


def _residual_norm(a: np.ndarray) -> float:
    """Frobenius norm of a residual array; NonFiniteEntries if an entry overflowed.

    A finite norm proves every entry finite, so the entries are only
    scanned when it is not.  An inf or NaN in any intermediate sum or
    product survives into ``a``, so this one check refuses what a
    check on every intermediate would.  Finite entries whose norm
    overflows are refused as Overflow.
    """
    nrm = _fro(a)
    if not math.isfinite(nrm):
        _require_finite(a)
        raise Overflow("residual norm overflows: its entries are finite but too large")
    return nrm


def _algebra_norm(arr: np.ndarray, tol: Tolerances) -> float:
    """Frobenius norm of arr once it passes as an su(3) element.

    InvalidAlgebraElement when arr is not a traceless skew-Hermitian
    3x3 matrix within alg_tol; Overflow when its squared norm is not
    finite (the skew bound would be inf).  A norm that passes proves
    arr finite; a refusal scans arr first.
    """
    if arr.shape != (3, 3):
        _require_finite(arr)
        raise InvalidAlgebraElement(
            f"expected a 3x3 matrix, got {arr.shape[0]}x{arr.shape[1]}")
    nrm = _finite_norm(arr)
    problem = _su3_problem(arr, nrm, tol)
    if problem is not None:
        raise InvalidAlgebraElement(problem)
    return nrm


def _su3_problem(arr: np.ndarray, nrm: float, tol: Tolerances) -> str | None:
    """Why a 3x3 arr with Frobenius norm nrm is not traceless skew-Hermitian, or None.

    Both gates are relative above norm 1, alg_tol * max(1, nrm): an
    element built in floating point carries trace round-off in
    proportion to its norm.
    """
    bound = tol.alg_tol * max(1.0, nrm)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = arr.tolist()
    trace = 0j + a00 + a11 + a22  # np.trace's sums, from +0
    if abs(trace) > bound:
        return f"trace {trace:.3e} is not zero within alg_tol"
    # arr + arr^H: 2 Re a_ii on the diagonal, each off-diagonal sum twice
    p, q, r = abs(a01 + a10.conjugate()), abs(a02 + a20.conjugate()), abs(a12 + a21.conjugate())
    skew = math.hypot(2.0 * a00.real, 2.0 * a11.real, 2.0 * a22.real, p, p, q, q, r, r)
    if skew > bound:
        return f"Hermitian residual {skew:.3e} exceeds alg_tol, matrix is not skew-Hermitian"
    return None


# identities by size, built once
_EYES = tuple(np.eye(n) for n in range(9))


def _eigen_parts(
    arr: np.ndarray, nrm: float, tol: Tolerances
) -> tuple[list[complex], np.ndarray, np.ndarray]:
    """Part coefficients, eigenvectors (columns) and their inverse for an n x n array.

    ``nrm`` is ``_finite_norm(arr)``.  Part i is coefs[i] times the
    involution 2 v[:, i] inverse[i, :] - 1, with coefficient
    (alpha_i - tr/(n - 2))/2.  A normal 3x3 input goes through the
    normal 3x3 kernel, everything else through the general
    one; NotDiagonalizable propagates from the latter.
    """
    n = arr.shape[0]
    if n == 3 and _normal_problem(arr, nrm, tol) is None:
        values, v, vinv = _eigen_normal3(arr, nrm, tol)
    else:
        values, v, vinv = _eigen_general(arr, tol)
    t = complex(np.trace(arr))
    # dividing a complex by 1 can flip the sign of a zero
    shift = t if n == 3 else t / (n - 2)
    return [(complex(x) - shift) / 2.0 for x in values], v, vinv


def _su3_parts(mats: np.ndarray, lams: list[float], tol: Tolerances) -> tuple[SimplePart, ...]:
    """The parts of an su(3) element from their stacked, finite matrices and real lambdas.

    beta = sqrt(-lam), and the unit direction mat / beta, one stacked
    product under one finiteness check, is None where beta is below
    beta_zero_tol, where it is 0/0 (its factor is 0 there).  Parts and
    units are views of the stacks.
    """
    betas = [math.sqrt(-lam) if lam < 0.0 else 0.0 for lam in lams]
    directed = [beta >= tol.beta_zero_tol for beta in betas]
    scales = [complex(1.0 / beta) if d else 0j for beta, d in zip(betas, directed)]
    units = mats * np.array(scales)[:, None, None]
    _require_finite(units)
    return tuple(
        SimplePart._wrap(ComplexMat._wrap(x), complex(lam), beta,
                         ComplexMat._wrap(u) if d else None)
        for x, u, lam, beta, d in zip(mats, units, lams, betas, directed))


def _decompose(b, m: ComplexMat, tol: Tolerances) -> tuple[SimplePart, ...]:
    """The eigen-route parts of m, the matrix of the public argument b.

    The parts carry an angle and a direction when m is an su(3)
    element: b is an AlgebraElement, or a 3x3 m passes ``_su3_problem``.
    All parts come from one stacked product under one finiteness check,
    and each is a view of it.
    """
    arr = m.array
    nrm = _finite_norm(arr)
    su3 = isinstance(b, AlgebraElement) or (m.n == 3 and _su3_problem(arr, nrm, tol) is None)
    coefs, v, vinv = _eigen_parts(arr, nrm, tol)
    # part i is coef_i times the involution that is +1 on eigendirection i
    # and -1 on the others: the outer products v[:, i] vinv[i, :], stacked
    mats = np.array(coefs)[:, None, None] * (
        2.0 * (v.T[:, :, None] * vinv[:, None, :]) - _EYES[m.n])
    _require_finite(mats)
    lams = [coef * coef for coef in coefs]
    if su3:
        return _su3_parts(mats, [lam.real for lam in lams], tol)
    return tuple(SimplePart._wrap(ComplexMat._wrap(x), lam, None, None)
                 for x, lam in zip(mats, lams))


def decompose_via_eigen(b, tol: Tolerances = DEFAULT_TOL) -> InvariantDecomposition:
    """Split a diagonalizable 3x3 matrix into three commuting parts.

    Each part is (alpha_i - tr b)/2 times the involution that is +1 on
    the i-th eigendirection and -1 on the others.  Normal inputs go
    through the normal 3x3 kernel, everything else through the
    general one; NotDiagonalizable propagates from the latter.  An
    AlgebraElement is taken as su(3) without a second check.
    """
    m = _as_mat(b)
    if m.n != 3:
        raise DimensionMismatch(f"decompose_via_eigen needs a 3x3 matrix, got {m.n}x{m.n}")
    return InvariantDecomposition(parts=_decompose(b, m, tol), source=m)


def decompose_nxn(b, tol: Tolerances = DEFAULT_TOL) -> list[SimplePart]:
    """Commuting-part split of a diagonalizable n x n matrix, 3 <= n <= 8.

    The scalar in front of each involution is (alpha_i - tr b/(n-2))/2;
    at n = 3 this is the 3x3 construction of decompose_via_eigen.
    """
    m = _as_mat(b)
    if m.n < 3:
        raise InvalidAlgebraElement(f"decompose_nxn needs n >= 3, got {m.n}")
    return list(_decompose(b, m, tol))


def _cubic_roots(c1: float, c0: float) -> tuple[float, float, float]:
    """The roots 2u >= w - u >= -u - w of q^3 - c1 q - c0, for c1 > 0 and c0 >= 0.

    They are the eigenvalues of a traceless Hermitian Q with
    c1 = tr(Q^2)/2 and c0 = det Q, solved trigonometrically as in
    Morningstar and Peardon (hep-lat/0311018, section III):

        theta = acos(c0 / c0_max),   c0_max = 2 (c1/3)^(3/2),
        u = sqrt(c1/3) cos(theta/3),   w = sqrt(c1) sin(theta/3).

    Each root then takes one Newton step, kept only when it does not
    raise |p|: near a double root the step divides round-off by a
    vanishing derivative.
    """
    c0_max = 2.0 * (c1 / 3.0) * math.sqrt(c1 / 3.0)
    theta = math.acos(min(1.0, c0 / c0_max))
    u = math.sqrt(c1 / 3.0) * math.cos(theta / 3.0)
    w = math.sqrt(c1) * math.sin(theta / 3.0)
    roots = []
    for q in (2.0 * u, w - u, -u - w):
        p = q * (q * q - c1) - c0
        dp = 3.0 * q * q - c1
        if dp != 0.0:
            step = q - p / dp
            if abs(step * (step * step - c1) - c0) <= abs(p):
                q = step
        roots.append(q)
    return tuple(roots)


def lambda_roots(b, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float, float]:
    """The three scalars lambda_i of an su(3) element, sorted descending.

    With Q = -i b, each lambda is -q^2/4 for a root q of the
    characteristic polynomial q^3 - c1 q - c0 of Q, where
    c1 = ||b||^2/2 and c0 = det Q = -Im det b; all are real and
    nonpositive.  The sign of c0 only negates the roots, so the cubic
    is solved for |c0| (``_cubic_roots``).  It is solved for b * 2^k
    (``smallmat._scaled``, k = 0 for norms inside [2^-100, 2^100]) and
    the lambdas scaled back by 4^-k, so no coefficient overflows or
    underflows.

    Against B's eigenvalues at 40 digits the lambdas lie within a few
    eps max|lambda| (at most 5.7 on 300 boundary B), except near a
    double: the invariants fix a split d of two lambdas only to about
    eps / d relative, and acos near 1 passes that on.  On the
    benchmark's near-degenerate regime (a pair about 1e-7 apart) they
    missed by up to 5.9e6 eps max|lambda|, about 1.3e-9 max|lambda|.
    ``decompose_closed_form`` refuses such lambdas at lambda_sep_tol,
    and ``expmap.exp_su3`` is insensitive to them: there it stayed
    within 2.6 eps max(1, ||B||) of the 40-digit exponential.
    """
    arr = b.mat.array if isinstance(b, AlgebraElement) else AlgebraElement(b, tol).mat.array
    arr, nrm, shift = _scaled(arr, _finite_norm(arr))
    if nrm == 0.0:
        return (0.0, 0.0, 0.0)
    roots = _cubic_roots(0.5 * nrm * nrm, abs(_det3(arr).imag))
    return tuple(sorted((math.ldexp(-0.25 * q * q, -2 * shift) for q in roots), reverse=True))


def _lagrange_rows(nodes, scales) -> tuple:
    """The rows (r_i, -r_i (e_j + e_k), r_i e_j e_k) of 2 scales[i] P_i on a^2, a and 1.

    P_i is Lagrange's polynomial in a (Higham, Functions of Matrices,
    2008, ch. 1),

        P_i = (a - e_j)(a - e_k) / ((e_i - e_j)(e_i - e_k)),

    e the nodes: a's spectral projector onto e_i where the nodes are
    a's three distinct eigenvalues.  So r_i = 2 scales[i] / ((e_i -
    e_j)(e_i - e_k)).  The one builder of Lagrange coefficients:
    ``_involutions`` takes its rows, and ``factorlog``'s closed-form
    principal log sums them.  The nodes and scales are Python or numpy
    complex scalars.
    """
    (e0, e1, e2), (s0, s1, s2) = nodes, scales
    # c + c, not 2.0 * c: a float times a complex can flip the sign of a zero
    r0 = (s0 + s0) / ((e0 - e1) * (e0 - e2))
    r1 = (s1 + s1) / ((e1 - e0) * (e1 - e2))
    r2 = (s2 + s2) / ((e2 - e0) * (e2 - e1))
    return ((r0, -r0 * (e1 + e2), r0 * e1 * e2), (r1, -r1 * (e0 + e2), r1 * e0 * e2),
            (r2, -r2 * (e0 + e1), r2 * e0 * e1))


def _involutions(a: np.ndarray, nodes, scales) -> np.ndarray:
    """The stack scales[i] (2 P_i - 1), made exactly skew, for a 3x3 array a.

    P_i is Lagrange's polynomial in a on the nodes, and the rows of
    2 scales[i] P_i on a^2, a and 1 are ``_lagrange_rows``', the ones
    the closed-form principal log sums; scales[i] comes off each row's
    constant.  The three rows take one (3, 9) product with a^2, a and 1.
    For a normal a and imaginary scales the parts are skew, and the
    projection strips the rounding.  Runs under no np.errstate: its
    callers hold one or bound a.
    """
    coef = [(r2, r1, r0 - sc) for (r2, r1, r0), sc in zip(_lagrange_rows(nodes, scales), scales)]
    m = (np.array(coef) @ np.array([a @ a, a, _EYE3]).reshape(3, 9)).reshape(3, 3, 3)
    return (m - m.conj().transpose(0, 2, 1)) * complex(0.5)


def decompose_closed_form(b, lambdas, tol: Tolerances = DEFAULT_TOL) -> InvariantDecomposition:
    """Recover the commuting parts of an su(3) element from its lambdas.

    Part i is b_i = (mu_i/2)(2 P_i - 1), mu_i the eigenvalue of b with
    mu_i^2 = 4 lambda_i and P_i its spectral projector, Lagrange's
    polynomial in b (``_involutions``): one b^2 and no inversion or
    eigensolver.  mu = i q for the roots q of Q = -i b, |q_i| =
    2 sqrt(-lambda_i); the largest |q| takes the sign of
    det Q = -Im det b and the other two the opposite sign (their sum is
    0).  All of it runs on b * 2^k (``smallmat._scaled``), so no b^2
    overflows, and the parts are scaled back by 2^-k.

    The lambdas must be pairwise separated and away from zero, relative
    to the largest magnitude (lambda_sep_tol), or P_i divides by a
    vanishing gap.  Lagrange's parts sum to b and commute for any
    nodes, so only their defining property vouches that the lambdas are
    b's: the squares b_i^2 may miss lambda_i 1 by at most
    decomp_tol max(1, max |lambda|), in the Frobenius norm of all three
    and in the units of b * 2^k.  Either refusal is DegenerateLambdas,
    and the caller falls back to the eigen route.
    """
    m = b.mat if isinstance(b, AlgebraElement) else AlgebraElement(b, tol).mat
    lams = [float(x) for x in lambdas]
    if len(lams) != 3:
        raise DegenerateLambdas(f"expected 3 lambdas, got {len(lams)}")
    top = max(abs(x) for x in lams)
    sep = tol.lambda_sep_tol * top
    for i in range(3):
        if abs(lams[i]) <= sep:
            raise DegenerateLambdas(f"lambda {lams[i]:.3e} is too close to zero")
        for j in range(i + 1, 3):
            if abs(lams[i] - lams[j]) <= sep:
                raise DegenerateLambdas(
                    f"lambdas {lams[i]:.6e} and {lams[j]:.6e} are not separated"
                )
    arr, _, k = _scaled(m.array, _finite_norm(m.array))
    # on numpy scalars, with no warnings: lambdas far from b's scale run
    # to inf or 0 in its units, and nodes that coincide give parts of inf
    # or NaN, which the square gate refuses
    with np.errstate(all="ignore"):
        scaled = np.ldexp(lams, 2 * k)
        q = 2.0 * np.sqrt(np.abs(scaled)) * np.where(np.abs(lams) == top, 1.0, -1.0)
        mus = 1j * math.copysign(1.0, -_det3(arr).imag) * q
        mats = _involutions(arr, mus, 0.5 * mus)
        miss = _fro(mats @ mats - scaled[:, None, None] * _EYE3)
    if not miss <= tol.decomp_tol * max(1.0, np.abs(scaled).max()):
        raise DegenerateLambdas(
            f"the parts square to their lambdas only within {miss:.3e}: not the lambdas of b")
    return InvariantDecomposition(parts=_su3_parts(_ldexp(mats, -k), lams, tol), source=m)
