"""Factorization of SU(3) elements into commuting simple factors, and logs.

Every group element produced by the exponential of a traceless
anti-Hermitian 3x3 matrix splits as U = U1 U2 U3 with each factor of
the Euler form cos(beta) 1 + sin(beta) bhat.  The grade projections of
U determine the factors through a handful of rational identities, e.g.

    g0 + S_i           = c_j c_k U_i         (j, k the other indices)
    1 + H_k S_j^(-1)   = U_i / c_i
    1 + g6 H_i^(-1)    = U_i / c_i

Each right-hand side is a scalar multiple of a unitary, so dividing
by that scalar's modulus recovers U_i up to sign.  No route works for
every input (the scalar prefactors vanish on measure-zero sets), hence
the cascade in `factorize`.  Signs are not corrected per factor: the
closing factor U3 = U1^dag U2^dag U absorbs the net sign.

The cascade runs on U's eigenbasis, U = sum_i e_i P_i over U's
eigenprojections P_i.  There every constituent is a scalar times the
involution 2 P_i - 1, the sign pattern sigma_i = 2 e_i - 1: g0 is a
real scalar and g6 an imaginary one, H_i = (gamma_i - sum gamma)/2 sigma_i
and S_i = i (delta_i - sum delta)/2 sigma_i, with gamma + i delta the
diagonal of g2 + g4 = U - g0 - g6 on the eigenbasis, that is
e - g0 - g6 (``grades._diagonal``, from tr U and e alone).  So the
cascade runs on U's spectrum, and every route is a + i b sigma_i with
a and b real (an inverse is a division): dividing by hypot(a, b) gives
the Euler form cos(beta) + i sin(beta) w, beta = atan2(|b|, a) and
w = sign(b) sigma_i, which is unitary with a scalar Hermitian half by
construction (``_route_angle``).  Only the closing factor, the entries
e exp(-i (beta_1 w_1 + beta_2 w_2)), can fail those checks, and only it
is checked: "Hermitian half is scalar" is ||Re x - mean Re x|| over
its entries x (``_log_entries``).
A factor's log is (beta, w) with unit i sum_m w_m P_m (a unit squares
to -1); the part has a direction where sin(beta) exceeds sin_zero_tol.
Matrices are built only for output: a unit is i w_i (2 P_i - 1), a
factor cos(beta) 1 + sin(beta) unit.  After the route rule
(``_route_parts``) part i is one signed phase phi_i, the part
(i phi_i / 2)(2 P_i - 1): beta_i = |phi_i| / 2 and w_i = sign(phi_i) sigma_i,
which the factors, the parts and the grades read.

So the cascade needs U's eigenvalues and, for its output, the
involutions 2 P_i - 1, and both follow from U without an eigenbasis:
the e_i are the roots of U's characteristic cubic, and P_i is Lagrange's
polynomial in U, (U - e_j)(U - e_k) / ((e_i - e_j)(e_i - e_k)) (Higham,
Functions of Matrices, 2008, ch. 1).  The cubic, whose coefficients
are complex, is solved in this module alone, for U - tr U / 3, so that
its coefficients carry rounding in the scale of the spectrum's spread:
Cardano's raw roots (``_complex_cubic_roots``) in ``_cubic_eigenvalues``.
``factorize`` takes this closed form first (``_closed_form_factors``).
Where it cannot vouch for its result it declines, and the eigen path
(``_factor_parts``) runs as it would alone: ``grades._eigen_spectrum``
runs the normal kernel once, for U's eigenvalues and the exactly
Hermitian involutions 2 p_i p_i^H - 1 of its eigencolumns, and a unit
is i w_i (2 p_i p_i^H - 1).  Both paths take U's eigenvalues in one
order (``grades._tie_order``), and share the route rule, the cascade
and the rules after it (``_route_parts``), on tr U and e, and the
grades, built when read along the units (``_unit_decomposition``); the
gates of the closed form keep its routes and errors the eigen path's.
About 99.6% of Haar U take the closed form, and about 97% of cos-zero
and near-cos-zero U.

The route follows from tr U alone.  In the near-cos-zero band, where
|g0| is above g0_zero_tol but |g0| fact_tol under _CF_G0_MARGIN eps
(``_near_cos_zero``), the simple route's rounding, not U, would decide
whether the closing factor passes, so the ``eigen`` route runs at once.
Elsewhere it runs when the cascade finds no factor (FactorizationFailed;
an AmbiguousDirection is final).  The ``eigen`` route takes the paper's
invariant decomposition of log U: the least-norm traceless
selection theta of U's eigenphases shifted by 2 pi k, k in
{-1, 0, 1}^3, gives the parts (i theta_i / 2)(2 P_i - 1), and divides
by no g0.  Two eigenvalues within sin_zero_tol of -1 make it refuse
with AmbiguousDirection (see ``_least_norm_phases``).  At cos zero
itself (|g0| at most g0_zero_tol) U has the eigenvalue -1 and a pair
of equal imaginary parts, which the one order sorts by real part, so
the cascade's inverse routes pick the same factors on both paths.

The cascade's factors match U's eigenphases only to its own accuracy
(about 1e-10 where a cos(beta_i) nearly vanishes), so their angles are
moved onto U's eigenphases along their own units (``_pinned``): the
factors then multiply to U up to the eigenbasis' own error.  The moved
phases are not U's principal phases.  Where an eigenphase sits at
+-pi, the cascade's angles pick its side, and principal phases would
flip the signs of two factors, as they do on 20 of the 50 engineered
vanishing-g0 inputs of the tests, each with an eigenphase at +-pi.

One rule on det U (``_det_one``) decides for both routes and for the
logs, after any AmbiguousDirection (``_log_phases``, the selection then
the rule): phases theta of U's eigenvalues
give a traceless log that misses U by sqrt(3)/2 |sum theta|, the sum
taken modulo 2 pi (the cascade's phases may sum to +-2 pi), and a miss
above fact_tol is FactorizationFailed.  So factorize and the logs
accept the same U.

The logs do not run the cascade.  Re-signing the pinned factors' logs
to their least-norm traceless sum gives the eigen route's selection
over U's eigenphases, so ``principal_log`` is the sum of the eigen
route's parts and ``branch_log`` adds 2 pi k_i turns along part i.
Both are one construction, the log of windings k, with k = 0 for
``principal_log``, and run through one entry (``_log``): the closed
form (``_closed_form_log``), else the eigen path (``_log_sum``).
U's eigenvalues alone decide which U have a log (see ``_log_sum``); a
winding whose turns carry more rounding than fact_tol is refused.

So once U's eigenvalues e_j are known, the log follows without an
eigenbasis: log U = sum_j i theta_j P_j, and with Lagrange's projectors
P_j that sum is one polynomial of degree 2 in U.  The principal log
is first taken in closed form, in the monomial form of the nodes
shifted by c = tr U / 3 (``_closed_form_log``; Higham, Functions of
Matrices, 2008, ch. 1; ``expmap.exp_su3`` is the same construction for
exp):

    log U = c2 X^2 + c1 X + c0,   X = U - c,   r_j = i theta_j / ((x_j - x_k)(x_j - x_l)),
    c2 = sum r_j,   c1 = -sum r_j (x_k + x_l),   c0 = sum r_j x_k x_l,

x_j = e_j - c (``_monomial_log``).  The r_j and their rows are
``invdec._lagrange_rows``', the one builder of Lagrange coefficients,
which ``_involutions`` takes for ``factorize``'s units and the
projector form too.  The x_j
are the roots of X's characteristic cubic (``_cubic_eigenvalues``), and
theta the same selection and det rule as on the eigen path.  The shift
keeps the powers of X as small as the spread of the nodes, so a
cluster of nodes near the identity does not cancel a large X^2
against X.  Where sum |r_j| exceeds _CF_MAX_COEF (the coefficients,
and with them the rounding, grow as theta over the squared gaps: a
pair near -1 on both sides of the cut, or cos-zero U), the log is
taken on the same roots and phases over purified projectors, the
branch logs' form below at k = 0 (``_projector_log``).  Lifting the
coefficient gate instead let the monomial form round-trip to 8.2e-15
on the cos-zero families; the projector form reaches 1.5e-15 there,
as the eigen path does.  Where two roots are closer than _CF_MIN_GAP,
where a phase rule raises, or where the projectors fail their rebuild
gate, the closed form declines: the eigen path then runs as it would
alone, so both accept the same U with the same errors.  About 96% of
Haar U take the monomial form, a pair straddling the cut at -1 among
them, and the rest the projector form.

A branch log, of norm 9 to 20, is not taken as one polynomial: its
error, about eps ||L||, would lie off U's eigenbasis (on 60 Haar U
such branch logs round-tripped to 9.2e-14 at worst, against 6.8e-15 on
the eigenbasis).  For k != 0 the closed form sums i t_j P_j over the
turned phases t (``_turns``, the eigen path's rules) and Lagrange's
projectors P_j, built by ``invdec._involutions`` and purified once by
McWeeny's step P <- 3 P^2 - 2 P^3 (``_projector_log``).  A root off by
delta leaves P_j an eigenvalue of about delta / gap on another
eigenvector, which the turns would scale into the log; the step
squares it away.  On the benchmark's log-haar branch logs at seeds 1
to 8 (1600, one declined) the worst round trip is 6.9e-15 purified and
4.4e-14 on ``_involutions``' projectors unpurified, against 9.7e-15 on
the eigen path.  It declines where two roots are within _CF_MIN_GAP, a
phase, winding or direction rule raises, or the purified projectors
rebuild U to more than _CF_BRANCH_MISS; about 99.8% of Haar U take it,
and cos-zero U too.
The logs and ``factorize`` take the roots from one helper,
``_cubic_eigenvalues``, and decline at one root gap, _CF_MIN_GAP;
``factorize`` and the branch logs, whose factor i and turn k_i go along
eigenvalue i, take them in the eigen path's order
(``_cubic_eigenvalues(..., ordered=True)``, ``grades._tie_order``), and
both eigen paths take the kernel's in it (``grades._eigen_basis``).
The principal log keeps Cardano's order, in which its sums round.

Scalars multiply as Python complex numbers, and residual gates read
"not x <= tol" so NaN is refused.  Public functions take a
``GroupElement``, ``ComplexMat`` or raw entries.  ``factorize``,
``principal_log`` and ``branch_log`` check any input but a
``GroupElement`` for unitarity once, on entry (``_unitary_array``), so
a non-unitary input is refused as ``NotUnitary`` before its eigenvalues
are taken, and a closed form that declines hands the checked array
and its residual to the eigen path; raw entries are copied unscanned,
since a residual that passes proves them finite.  A ``GroupElement``
brings the unitarity residual its own check measured.  That residual
stands in for the normality test (``smallmat._normal_norm``) and is
the closed forms' proof that U is normal.  The normal kernel's
residual gate, or the closed form's product residual, proves what the
three build finite, so it is wrapped with no further check.
``factorize`` forms its three units and its three factors as stacked
arrays.  ``principal_log_factor``, ``normalize`` and ``rms_norm`` act
on matrices and refuse as ``Overflow`` a matrix whose norm overflows.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from collections.abc import Callable, Iterable

import numpy as np

from .errors import (
    AmbiguousDirection,
    FactorizationFailed,
    InputError,
    MissingDirection,
    NotSimpleFactor,
    NumericalError,
    ZeroMatrix,
    _is_integer,
)
from .expmap import GroupElement, _check_group, _factor_array
from .grades import (GradeDecomposition, _decomposition, _diagonal, _eigen_basis, _eigen_spectrum,
                     _halves, _tie_order)
from .invdec import SimplePart, _involutions, _lagrange_rows
from .smallmat import (_EPS, _EYE3, ComplexMat, _as_mat, _finite_mat, _finite_norm, _fro,
                       _order_indices, _scalar_residual, _unchecked_mat)
from .tolerances import DEFAULT_TOL, Tolerances

_SQRT3 = math.sqrt(3.0)
# sigma_i = 2 e_i - 1: the involution 2 p_i p_i^H - 1 on U's eigenbasis P
_SIGMA = ((1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))
# the indices j, k other than i
_OTHERS = ((1, 2), (0, 2), (0, 1))


def rms_norm(m) -> float:
    """sqrt(tr(M M^dag) / 3); equals 1 for a 3x3 unitary.  Overflow when the norm overflows."""
    return _finite_norm(_as_mat(m).array) / _SQRT3


def normalize(m, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    a = _as_mat(m).array
    nrm = _finite_norm(a) / _SQRT3
    if nrm <= tol.norm_zero_tol:
        raise ZeroMatrix("cannot normalize a matrix with norm %.3e" % nrm)
    return _finite_mat(a * complex(1.0 / nrm))


@dataclasses.dataclass(frozen=True)
class Factorization:
    """The factors of ``factorize``, their parts and routes, and U's grades.

    ``parts`` sum to i sum_j theta_j P_j over U's eigenprojections P_j,
    and which selection theta is depends on the route.  Under the
    ``eigen`` route theta is the least-norm traceless selection of U's
    eigenphases, so the parts sum to ``principal_log(U)``.  Under the
    cascade's routes theta are the cascade's phases pinned to U's
    eigenvalues (``_pinned``).  Their sum may be +-2 pi (on 8 of the
    first 300 seeded Haar U), and then the parts sum to a log of U of
    trace +-2 pi i, not to the principal log.

    ``parts`` and ``grades`` are built on first read.  The parts come
    from the stacked units and the angles ``factorize`` already holds,
    bit for bit what it would have built at once.  ``grades``, the
    grade decomposition the routes read, comes from the units it holds
    (the closed form's polynomials in U, or the normal kernel's
    involutions) and U's eigenvalues.  So a caller that reads neither
    never pays for their matrices, and reading them runs no eigensolver.
    """

    factors: tuple[ComplexMat, ComplexMat, ComplexMat]
    routes: tuple[str, str, str]
    _parts_of: Callable[[], tuple[SimplePart, SimplePart, SimplePart]] = dataclasses.field(
        repr=False, compare=False)
    _grades_of: Callable[[], GradeDecomposition] = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def parts(self) -> tuple[SimplePart, SimplePart, SimplePart]:
        return self._parts_of()

    @functools.cached_property
    def grades(self) -> GradeDecomposition:
        return self._grades_of()


@dataclasses.dataclass(frozen=True)
class LogBranch:
    """The windings k of a branch log: any three integers but bools, kept as Python ints.

    k is any iterable of them; anything else, an int or None among
    them, is refused as InputError.
    """

    k: tuple[int, int, int]

    def __post_init__(self):
        k = self.k
        if not isinstance(k, tuple):
            k = tuple(k) if isinstance(k, Iterable) else ()
        if len(k) != 3 or not all(_is_integer(x) and abs(x) <= 2**53 for x in k):
            raise InputError("branch must be three integers of magnitude at most 2**53")
        object.__setattr__(self, "k", tuple(map(int, k)))


def _unitary_array(u, tol: Tolerances) -> tuple[np.ndarray, float]:
    """(array, unitarity residual) of a public argument, checked unless it is a GroupElement.

    A GroupElement brings the residual its own check measured.  Raw
    entries are copied unscanned (``smallmat._unchecked_mat``): a
    residual that passes proves them finite, and a refusal scans them
    first.  Unitarity only, as the CLI's check: boundary elements such
    as -1 have det -1 and still reach the cascade or the logs'
    eigenvalue rules, which report them as numerical failures.
    """
    if isinstance(u, GroupElement):
        return u.mat.array, u._dev
    arr = _unchecked_mat(u).array
    return arr, _check_group(arr, tol, special=False)


def _simple_part(beta: float, unit: np.ndarray | None) -> SimplePart:
    """The part of angle beta along unit; unit None is a part with no direction.

    No array is checked: every caller has passed a gate (the kernel's
    residual, a factor's miss) that a non-finite unit fails.
    """
    mat = np.zeros((3, 3), dtype=np.complex128) if unit is None else unit * complex(beta)
    return SimplePart._wrap(ComplexMat._wrap(mat), complex(-beta * beta), beta,
                            None if unit is None else ComplexMat._wrap(unit))


def _factor_angle(residual: float, c: float, sn: float, size: float, tol: Tolerances):
    """(beta, miss bound, has a direction) of a factor whose Hermitian half is c + dev.

    residual is ||dev||, sn the rms of the skew half and size the
    factor's Frobenius norm.  Refuses a Hermitian half that is not
    scalar, a cosine out of range and a factor at the antipode.
    """
    bound = tol.fact_tol * max(1.0, size)
    if not residual <= bound:
        raise NotSimpleFactor("Hermitian half is not scalar (residual %.3e)" % residual)
    if not abs(c) <= 1.0 + 1e-8:
        raise NotSimpleFactor("cosine out of range by %.3e" % (abs(c) - 1.0))
    beta = math.atan2(sn, c)
    if sn > tol.sin_zero_tol:
        return beta, bound, True
    if beta > math.pi / 2.0:
        raise AmbiguousDirection("factor is at the antipode (beta = %.6f); direction lost" % beta)
    # principal_log_factor discards a sub-threshold sine by design;
    # allow exactly the discarded magnitude on top of the usual bound
    return beta, bound + _SQRT3 * tol.sin_zero_tol, False


def _check_miss(miss: float, bound: float) -> None:
    if not miss <= bound:
        raise NotSimpleFactor("exp of recovered part misses the factor by %.3e" % miss)


def principal_log_factor(ui, tol: Tolerances = DEFAULT_TOL) -> SimplePart:
    """Principal log of a single Euler factor.

    The Hermitian half of the factor must be scalar; its trace gives
    the cosine of the angle, the norm of the skew half the sine (the
    skew direction has unit norm), and atan2 of the pair pins beta in
    [0, pi] with uniform relative accuracy even for tiny angles, where
    arccos of the cosine alone would lose half the digits.  At
    beta = pi the skew half vanishes while the direction still matters
    for any log, so that point is refused.
    """
    a = _as_mat(ui).array
    if a.shape[0] != 3:
        raise InputError("expected a 3x3 factor, got %dx%d" % a.shape)
    size = _finite_norm(a)
    ccos, ssin = _halves(a)
    sn = _fro(ssin) / _SQRT3
    beta, bound, direction = _factor_angle(_scalar_residual(ccos), complex(np.trace(a)).real / 3.0,
                                           sn, size, tol)
    unit = ssin * complex(1.0 / sn) if direction else None
    _check_miss(_fro(_factor_array(unit, beta) - a), bound)
    return _simple_part(beta, unit)


def _norm(x) -> float:
    """Euclidean norm of a 3-vector, the Frobenius norm of P diag(x) P^H."""
    return math.hypot(*map(abs, x))


def _log_entries(x, tol: Tolerances):
    """principal_log_factor of P diag(x) P^H: (beta, w), its unit i diag(w) on P.

    A unit squares to -1, so w holds the signs of Im x.  The signs are
    kept below sin_zero_tol too, so the factor keeps its small sine;
    whether the part has a direction is ``_directed(beta)``.
    """
    x0, x1, x2 = x
    # 0.0 + ...: sum()'s order, and its rule for signed zeros
    c = (0.0 + x0.real + x1.real + x2.real) / 3.0
    beta, bound, _ = _factor_angle(math.hypot(x0.real - c, x1.real - c, x2.real - c), c,
                                   math.hypot(x0.imag, x1.imag, x2.imag) / _SQRT3, _norm(x), tol)
    w = [math.copysign(1.0, x0.imag), math.copysign(1.0, x1.imag), math.copysign(1.0, x2.imag)]
    cb, sb = math.cos(beta), math.sin(beta)
    _check_miss(_norm((complex(cb, sb * w[0]) - x0, complex(cb, sb * w[1]) - x1,
                       complex(cb, sb * w[2]) - x2)), bound)
    return beta, w


def _directed(beta: float, tol: Tolerances) -> bool:
    """Whether a part of angle beta has a direction, as in principal_log_factor."""
    return math.sin(beta) > tol.sin_zero_tol


def _route_angle(name: str, i: int, g0: float, g6: float, h, s, tol: Tolerances):
    """Route ``name``'s factor i on the eigenbasis as its log (beta, w), from two real scalars.

    g0 is the scalar grade and g6 the imaginary part of the
    pseudoscalar; H_i = h_i sigma_i and S_i = i s_i sigma_i with h_i
    and s_i real.  sigma_i is its own inverse and sigma_k sigma_j =
    sigma_i, so every route is a + i b sigma_i with a and b real:

        simple  g0 + S_i              (g0, s_i)
        inv_a   1 + H_k S_j^(-1)      (1, -h_k / s_j)
        inv_b   1 + H_j S_k^(-1)      (1, -h_j / s_k)
        inv2    1 + g6 H_i^(-1)       (1, Im g6 / h_i)

    Normalized by hypot(a, b), that is cos(beta) + i sin(beta) w with
    beta = atan2(|b|, a) and w = sign(b) sigma_i: a unitary Euler factor
    whose Hermitian half is scalar, by construction.  Each constituent
    is a scalar times an exact involution, so a constituent that is
    numerically zero still inverts cleanly and the dirt/dirt ratio
    yields a well-formed but wrong factor.  Routes therefore refuse a
    constituent at most g0_zero_tol, and a route of norm at most
    norm_zero_tol, as ZeroMatrix.  A factor at the antipode, its sine
    within sin_zero_tol past pi/2, has lost its direction
    (AmbiguousDirection, as in ``principal_log_factor``).
    """
    if name == "simple":
        a, b = g0, s[i]
    else:
        j, k = _OTHERS[i]
        # S_j^(-1) = -i sigma_j / s_j and H_i^(-1) = sigma_i / h_i
        terms = {"inv_a": (("H", h[k]), ("S", -s[j])), "inv_b": (("H", h[j]), ("S", -s[k])),
                 "inv2": (("g6", g6), ("H", h[i]))}[name]
        for label, coef in terms:
            if abs(coef) <= tol.g0_zero_tol:
                raise ZeroMatrix("%s input is effectively zero (%.3e)" % (label, abs(coef)))
        a, b = 1.0, terms[0][1] / terms[1][1]
    nrm = math.hypot(a, b)
    if nrm <= tol.norm_zero_tol:
        raise ZeroMatrix("cannot normalize a matrix with norm %.3e" % nrm)
    beta = math.atan2(abs(b), a)
    if beta > math.pi / 2.0 and not _directed(beta, tol):
        raise AmbiguousDirection("factor is at the antipode (beta = %.6f); direction lost" % beta)
    return beta, [math.copysign(1.0, b) * x for x in _SIGMA[i]]


def _cascade(e, t: complex, tol: Tolerances):
    """The paper's route cascade on the eigenbasis of U: the parts (beta, w) and their routes.

    e are U's ordered eigenvalues and t its trace, from which g0, g6,
    h and s follow (``grades._diagonal``).  Route order depends
    on whether the scalar grade is usable: when every cos(beta_i) is
    nonzero the direct g0 + S_i route is cheapest and most accurate;
    when g0 vanishes (some cos is zero) the inverse routes go first,
    with g0 + S_i kept as a last resort since it still works when only
    one cosine vanishes.  Each route gives its factor from two real
    scalars (``_route_angle``).  A factor no route recovers is an
    AmbiguousDirection if some route found it at the antipode.  The
    closing factor U3 = U1^dag U2^dag U is e exp(-i (beta_0 w_0 +
    beta_1 w_1)) on P, and only it is judged as a factor
    (``_log_entries``): its Hermitian half, cosine and miss.
    """
    g0, g6, h, s = _diagonal(t, e)
    if abs(g0) > tol.g0_zero_tol:
        order = ("simple", "inv_a", "inv_b", "inv2")
    else:
        order = ("inv_a", "inv_b", "inv2", "simple")
    parts = []
    routes = []
    ambiguous = None
    for i in (0, 1):
        notes = []
        for name in order:
            try:
                parts.append(_route_angle(name, i, g0.real, g6.imag, h, s, tol))
            except NumericalError as exc:
                if isinstance(exc, AmbiguousDirection):
                    ambiguous = ambiguous or exc
                notes.append("%s: %s" % (name, exc))
                continue
            routes.append(name)
            break
        else:
            raise ambiguous or FactorizationFailed(
                "no route recovered factor %d: %s" % (i + 1, "; ".join(notes)))
    # U3 = U1^dag U2^dag U on P
    (b0, w0), (b1, w1) = parts
    x3 = [v * cmath.exp(-1j * (b0 * p + b1 * q)) for v, p, q in zip(e, w0, w1)]
    try:
        parts.append(_log_entries(x3, tol))
    except NotSimpleFactor as exc:
        # the first two factors are Euler factors but are mutually
        # inconsistent; report as a factorization failure, not a shape error
        raise FactorizationFailed("closing factor is not simple: %s" % exc) from exc
    routes.append("closing")
    return parts, routes


def _least_norm_phases(z, tol: Tolerances) -> list:
    """The least-norm traceless log phases of P diag(z) P^H, |z| = 1.

    The phases of z shifted by 2 pi k, k in {-1, 0, 1}^3: among the
    selections whose sum is nearest 0 (exactly 0 when the product of z
    is 1), the one of least norm, ties broken by the phases themselves.
    With phi the principal phases, in [-pi, pi], that selection is phi
    itself when turns = round(sum phi / 2 pi) is 0, and else phi with
    its largest phase moved down by 2 pi (turns 1) or its smallest
    moved up (turns -1):

    - turns 0: any other k of sum 0 adds 2 pi to some phi_a and takes it
      from some phi_b, which lengthens the squared norm by
      4 pi (2 pi + phi_a - phi_b) > 0;
    - turns +-1: moving phi_a alone costs 4 pi (pi - turns phi_a), least
      for the largest turns phi_a; under turns 1 a k of type
      (-1, -1, +1), phi_a and phi_b down and phi_c up, costs as much as
      moving phi_a alone and 4 pi (2 pi + phi_c - phi_b) >= 0 more, and
      turns -1 is its mirror.

    The one tie is between equal entries of z whose phase may move: a
    double eigenvalue on the far side of the circle, as for omega 1.
    There the phases themselves break it, lexicographically: the first
    of equal largest phases moves down, the last of equal smallest up.
    Two phases 2 pi apart, both within sin_zero_tol of -1, would tie
    under turns 0 as well, and rounding picks their sides: two such
    entries are refused as AmbiguousDirection.
    """
    if sum(abs(v + 1.0) <= tol.sin_zero_tol for v in z) >= 2:
        raise AmbiguousDirection(
            "equal eigenvalues at phases 2 pi apart: the traceless log is not unique")
    phi = [cmath.phase(v) for v in z]
    # a selection's trace is sum(phi) + 2 pi sum(k)
    turns = round(sum(phi) / (2.0 * math.pi))
    if turns:
        # the first of equal largest phases down, or the last of equal smallest up
        i = phi.index(max(phi)) if turns > 0 else 2 - phi[::-1].index(min(phi))
        phi[i] -= 2.0 * math.pi * turns
    # + 0.0: a principal phase of -0.0 is 0.0
    return [f + 0.0 for f in phi]


def _pinned(parts, e) -> list:
    """The phases of the cascade's factors' product on P, moved onto e's.

    The factors' product on P is exp(i theta), theta = sum_i beta_i w_i,
    which matches U's eigenphases only to the cascade's accuracy (about
    1e-10 where a cos(beta_i) nearly vanishes).  Each phase is moved onto
    e's; the signed phases theta_i - sum theta split it again on the
    sign patterns (``_route_parts``), since c_i = (theta_i - sum theta)/2
    solves sum_i c_i sigma_i = theta.  A factor keeps its route, and its angle
    moves by the cascade's error.  The cascade's angles, not principal
    phases, pick the side of a phase at +-pi.
    """
    (b0, w0), (b1, w1), (b2, w2) = parts
    # 0.0 + ...: sum()'s order, and its rule for signed zeros
    theta = [0.0 + b0 * w0[m] + b1 * w1[m] + b2 * w2[m] for m in range(3)]
    return [t + cmath.phase(v * cmath.exp(-1j * t)) for t, v in zip(theta, e)]


def _det_one(theta, tol: Tolerances, what: str = "det u is not 1: the log's") -> None:
    """The one rule on det u, for the logs and both routes of ``factorize``.

    theta are phases of U's eigenvalues, so sum theta is arg det u
    modulo 2 pi.  A traceless log of those phases misses u by
    sqrt(3)/2 |sum theta|, taken modulo 2 pi (the cascade's phases may
    sum to +-2 pi), and that miss is held to fact_tol.
    """
    miss = 0.5 * _SQRT3 * abs(math.remainder(sum(theta), 2.0 * math.pi))
    if not miss <= tol.fact_tol:
        raise FactorizationFailed("%s factors miss u by %.3e" % (what, miss))


def _log_phases(e, tol: Tolerances, **what) -> list:
    """The least-norm traceless phases of U's eigenvalues e, held to the rule on det u.

    ``_least_norm_phases``, then ``_det_one`` (which ``what`` goes to):
    an AmbiguousDirection comes before a det other than 1.
    """
    theta = _least_norm_phases(e, tol)
    _det_one(theta, tol, **what)
    return theta


def _near_cos_zero(t: complex, tol: Tolerances) -> bool:
    """Whether g0 = (1 + Re t) / 4, t = tr U, lies in the near-cos-zero band.

    The band is |g0| above g0_zero_tol with |g0| fact_tol under
    _CF_G0_MARGIN eps, that is |g0| under 1.1e-3 at the default
    fact_tol.  False on NaN.
    """
    g0 = abs(1.0 + t.real) / 4.0
    return g0 > tol.g0_zero_tol and g0 * tol.fact_tol < _CF_G0_MARGIN * _EPS


def _route_parts(e, t: complex, tol: Tolerances):
    """(phi, routes) from U's ordered eigenvalues e and its trace t.

    Part i is (i phi_i / 2)(2 P_i - 1): its angle is |phi_i| / 2 and
    its sign pattern sign(phi_i) sigma_i, so the factor is
    cos(|phi_i| / 2) 1 + sin(|phi_i| / 2) unit_i with unit i
    i sign(phi_i) (2 P_i - 1).

    The route follows from tr U alone, g0 = (1 + Re t) / 4, so both
    paths of ``factorize`` take it from the same bits:

    - |g0| at most g0_zero_tol: the cascade, its inverse routes first;
    - the near-cos-zero band (``_near_cos_zero``), |g0| above
      g0_zero_tol but under 1.1e-3 at the default fact_tol: the eigen
      route at once.  The simple route divides by g0, and its
      closing factor carries a rounding residual of up to about
      3 eps / |g0|, so there the eigenvalues' rounding, not U, would
      decide whether the cascade succeeds;
    - else the cascade, the simple route first.

    Past the band the eigen route, the invariant decomposition of
    log U, runs only after the cascade's FactorizationFailed.  Either
    route's phases then meet ``_det_one``, so an AmbiguousDirection of
    the cascade or the selection comes first.
    """
    if _near_cos_zero(t, tol):
        return _log_phases(e, tol), ["eigen"] * 3
    try:
        parts, routes = _cascade(e, t, tol)
    except FactorizationFailed as exc:
        return _log_phases(e, tol, what="%s; eigen route:" % exc), ["eigen"] * 3
    theta = _pinned(parts, e)
    _det_one(theta, tol)
    total = sum(theta)
    return [t - total for t in theta], routes


def _stacked_factors(units: np.ndarray, phi) -> np.ndarray:
    """The factors cos(|phi_i| / 2) 1 + sin(|phi_i| / 2) unit_i as one (3, 3, 3) array."""
    # per factor the arithmetic of expmap._factor_array
    cos = np.array([complex(math.cos(abs(f) / 2.0)) for f in phi])
    sin = np.array([complex(math.sin(abs(f) / 2.0)) for f in phi])
    return _EYE3 * cos[:, None, None] + units * sin[:, None, None]


def _unit_scales(phi, sign: complex) -> list:
    """sign times the sign of each phi_i: unit i is i sign(phi_i) (2 P_i - 1)."""
    return [sign * math.copysign(1.0, f) for f in phi]


def _factor_parts(a: np.ndarray, dev: float, tol: Tolerances):
    """(factors, units, phi, routes, (tr a, e)) of a, of unitarity residual dev, on its eigenbasis.

    The eigen path: the normal kernel's eigenvalues e and involutions
    2 p_i p_i^H - 1 (``grades._eigen_spectrum``), and the cascade on
    tr a and e (``_route_parts``).  Unit i is i sign(phi_i) (2 p_i p_i^H - 1).
    """
    t, e, invols = _eigen_spectrum(a, tol, dev)
    phi, routes = _route_parts(e, t, tol)
    units = invols * np.array(_unit_scales(phi, 1j))[:, None, None]
    return _stacked_factors(units, phi), units, phi, routes, (t, e)


# The gates of the closed forms.  All three take the roots of the shifted
# cubic only at least _CF_MIN_GAP apart (``_cubic_eigenvalues``).  Below
# that factorize's units, divided by the gaps, drift from the eigen path's:
# on 1000 U with a closest pair 0.05 to 0.1 apart its factors missed the
# eigen path's by more than 16 eps max(1, ||U||) on 6 (up to 22.5 eps), on
# 1000 with one 0.1 to 0.2 apart on none (up to 15.4).  The logs lose
# little to 0.1: of 2000 Haar U the principal log takes as many as at
# 0.05, since its coefficient gate declines nearly every U with a gap
# under 0.1, and the branch log one fewer.  The monomial log's own gate: its
# Lagrange coefficients r_j = i theta_j / ((e_j - e_k)(e_j - e_l)) at most
# _CF_MAX_COEF in sum of moduli; 96.5% of Haar U pass, and past it the log
# takes the projector form.  factorize's: the factors' product within
# _CF_FACTOR_MISS of U; of the first 3000 seeded Haar U 10 fail it, and one
# the root gap.  _CF_G0_MARGIN gates no closed form: it is the outer edge
# of the near-cos-zero band, where both paths take the eigen route
# (``_route_parts``).  The projector form's, for the branch log and past the
# coefficient gate the principal log: sum_j e_j P_j of the purified projectors
# within _CF_BRANCH_MISS of U.  That residual is mostly the roots' error, which
# reaches the log through the phases: on 20000 seeded Haar U it was
# 1.6 eps at the median, 2.8 at p99 and 5.2 at most, and on 2000 boundary U
# (eigenvalues near 1 and e^{+-i r}, r 0.3 to 1.5) 1.9, 6.0 and 11.2,
# where 0.45% decline.  The accepted ones stay within 5.7 eps max(1, ||L||) of
# the eigen path; past the gate, at 8 to 11.2 eps, the closed log missed
# the 40-digit log by up to 11.4 eps, the eigen path by 8.9.
_CF_MIN_GAP = 0.1
_CF_MAX_COEF = 5.0
_CF_G0_MARGIN = 500.0
_CF_FACTOR_MISS = 16.0 * _EPS
_CF_BRANCH_MISS = 8.0 * _EPS
_THREE = 3.0 * _EYE3


# the cube roots of unity
_OMEGAS = (1.0, complex(-0.5, 0.5 * math.sqrt(3.0)), complex(-0.5, -0.5 * math.sqrt(3.0)))


def _complex_cubic_roots(s: complex, d: complex) -> list[complex]:
    """Cardano's roots of the depressed cubic x^3 + s x - d, not polished.

    Each root is x = c - s/(3c) for one of the cube roots c of
    d/2 +- sqrt(d^2/4 + s^3/27), the sign taken that gives the larger
    modulus.  Where that is 0, s and d vanish and 0 is a triple root.
    """
    r = cmath.sqrt(0.25 * d * d + s * s * s / 27.0)
    w = max(0.5 * d + r, 0.5 * d - r, key=abs)
    if w == 0.0:
        return [0j] * 3
    c = w ** (1.0 / 3.0)
    return [c * o - s / (3.0 * c * o) for o in _OMEGAS]


def _cubic_eigenvalues(a: np.ndarray, dev: float, tol: Tolerances, ordered: bool = False):
    """(tr a, a's eigenvalues) from the characteristic cubic of a - tr a / 3, or None.

    With c = tr a / 3 the eigenvalues of a are e = x + c over the roots
    x of x^3 + s x - det X, s the sum of the principal 2x2 minors of
    X = a - c and det X its determinant, all from one ``tolist()``:
    Cardano's raw roots (``_complex_cubic_roots``).  The shift makes s
    and det X carry rounding relative to ||X||^2 and ||X||^3, the spread
    of the spectrum, not to 1, so a root's error stays a few eps where
    the gaps shrink (Higham, Functions of Matrices, 2008, ch. 1).

    None where two roots are closer than _CF_MIN_GAP: rounding splits
    Cardano's roots of a cluster, and what the closed forms build from
    them divides by the gaps.  Most such inputs are declined from tr a
    alone, before the cubic is solved: with det a = 1 the squared product
    of the three gaps is 27 - 18 |t|^2 + 8 Re t^3 - |t|^4, t = tr a, and
    below _CF_MIN_GAP^6 some gap is below _CF_MIN_GAP.  None also unless
    dev, a's unitarity residual, is the proof that a is normal: only
    where dev + 4 eps is within an eighth of normal_tol and eig_tol,
    which no U that passes the default grp_tol exceeds, can neither of
    the eigen path's gates refuse a, so the closed forms accept the U
    the eigen path accepts.

    ordered is for ``factorize``'s and the branch logs' closed forms,
    which follow the eigen path's eigenvalue order: the roots come in
    U's eigenvalue order (the key order of ``smallmat._order_indices``
    with ``grades._tie_order``'s band), as the eigen path's eigenvalues
    do.
    """
    if not dev + 4.0 * _EPS <= 0.125 * min(tol.normal_tol, tol.eig_tol):
        return None
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    t = 0j + a00 + a11 + a22
    n2 = t.real * t.real + t.imag * t.imag
    if not 27.0 - 18.0 * n2 + 8.0 * (t * t * t).real - n2 * n2 >= _CF_MIN_GAP**6:
        return None
    c = t / 3.0
    x00, x11, x22 = a00 - c, a11 - c, a22 - c
    m0 = x11 * x22 - a12 * a21
    s = m0 + (x00 * x22 - a02 * a20) + (x00 * x11 - a01 * a10)
    d = x00 * m0 - a01 * (a10 * x22 - a12 * a20) + a02 * (a10 * a21 - x11 * a20)
    x = _complex_cubic_roots(s, d)
    if not min(abs(x[1] - x[2]), abs(x[2] - x[0]), abs(x[0] - x[1])) >= _CF_MIN_GAP:
        return None
    e = [v + c for v in x]
    return t, ([e[i] for i in _tie_order(e, _order_indices(e))] if ordered else e)


def _closed_form_factors(a: np.ndarray, dev: float, tol: Tolerances):
    """``_factor_parts`` of a from its characteristic cubic, no eigensolver; None if it declines.

    The roots come in U's eigenvalue order (``_cubic_eigenvalues``
    ordered), as the eigen path's eigenvalues, so factor i stays factor
    i, and the route rule, the cascade, the eigen route, ``_pinned`` and
    ``_det_one`` run on them and tr a as on the eigen path's
    (``_route_parts``).  The projector onto e_i is Lagrange's
    polynomial in U (Higham, Functions of Matrices, 2008, ch. 1),

        P_i = (U - e_j)(U - e_k) / ((e_i - e_j)(e_i - e_k)),

    and unit i, i w_i (2 P_i - 1) with w_i the sign of part i, is made
    exactly skew (``invdec._involutions``, which builds
    ``decompose_closed_form``'s parts too).

    None leaves a to the eigen path, which then runs as it would alone,
    so both accept the same U with the same routes and errors:

    - where two roots are closer than _CF_MIN_GAP, most of them decided
      from tr a alone (``_cubic_eigenvalues``);
    - where any rule of the cascade or the eigen route raises;
    - where the factors' product misses a by more than _CF_FACTOR_MISS.
      That residual vouches for the roots, whose rounding reaches every
      factor: it declines about 0.3% of Haar U.
    """
    roots = _cubic_eigenvalues(a, dev, tol, ordered=True)
    if roots is None:
        return None
    t, e = roots
    try:
        phi, routes = _route_parts(e, t, tol)
    except NumericalError:
        return None
    units = _involutions(a, e, _unit_scales(phi, 1j))
    factors = _stacked_factors(units, phi)
    if not _fro(factors[0] @ factors[1] @ factors[2] - a) <= _CF_FACTOR_MISS:
        return None
    return factors, units, phi, routes, (t, e)


def _simple_parts(units: np.ndarray, phi, tol: Tolerances) -> tuple:
    """``factorize``'s parts beta_i unit_i, beta_i = |phi_i| / 2; one with no direction has no unit."""
    return tuple(_simple_part(beta, unit if _directed(beta, tol) else None)
                 for unit, beta in zip(units, [abs(f) / 2.0 for f in phi]))


def _unit_decomposition(a: np.ndarray, t: complex, e, units: np.ndarray,
                        phi) -> GradeDecomposition:
    """The grade decomposition of a, of trace t and eigenvalues e, along 2 P_i - 1 = -i w_i unit_i.

    Both paths of ``factorize`` build their grades here, when read.
    """
    signs = np.array(_unit_scales(phi, -1j))
    return _decomposition(a, t, e, units * signs[:, None, None])


def factorize(u, tol: Tolerances = DEFAULT_TOL) -> Factorization:
    """Split u into three commuting Euler factors.

    The paper's route cascade runs first (see ``_cascade``); when it
    finds no factor, the ``eigen`` route.  Both run on u's eigenvalues,
    taken in closed form from u's characteristic cubic
    (``_closed_form_factors``), and the factors' units are polynomials
    in u.  Where the closed form cannot vouch for itself, the eigen
    path (``_factor_parts``) runs as it would alone.  Each factor is
    cos(beta) 1 + sin(beta) unit.  The parts, and the grade
    decomposition the routes used, are built when read.
    """
    a, dev = _unitary_array(u, tol)
    factors, units, phi, routes, (t, e) = (_closed_form_factors(a, dev, tol)
                                           or _factor_parts(a, dev, tol))
    return Factorization(factors=tuple(ComplexMat._wrap(f) for f in factors), routes=tuple(routes),
                         _parts_of=functools.partial(_simple_parts, units, phi, tol),
                         _grades_of=functools.partial(_unit_decomposition, a, t, e, units, phi))


def _monomial_log(a: np.ndarray, t: complex, e, theta) -> np.ndarray | None:
    """sum_j i theta_j P_j as a degree-2 polynomial in a, made skew; None past its coefficient gate.

    t is tr a and e its eigenvalues.  The log is sum_j i theta_j P_j
    with Lagrange's projectors P_j (Higham, Functions of Matrices,
    2008, ch. 1), which is

        r_0 (x - x_1)(x - x_2) + r_1 (x - x_0)(x - x_2) + r_2 (x - x_0)(x - x_1),
        r_j = i theta_j / ((x_j - x_k)(x_j - x_l)),

    in x = a - c and the nodes x_j = e_j - c, c = tr a / 3: multiplied
    out, c2 x^2 + c1 x + c0 with c2 = sum r_j, c1 = -sum r_j (x_k + x_l)
    and c0 = sum r_j x_k x_l, evaluated as x (c2 x + c1) + c0.  The
    rows (r_j, -r_j (x_k + x_l), r_j x_k x_l) / 2 are
    ``invdec._lagrange_rows``' on the scales i theta_j / 4, halved so
    that m - m^H is the skew projection, and sum to the halved
    coefficients.  Its
    rounding is about eps sum |r_j| |x_k| |x_l|; the shift keeps the
    |x_j| as small as the nodes' spread, which near the identity is
    what keeps the error at a few eps: on 4000 seeded B of norm 0.03 to
    pi, exp_su3 then this gave B back to 3.2 eps max(1, ||B||) at
    worst, and to 11.6 unshifted.

    None where sum |r_j| exceeds _CF_MAX_COEF: two close eigenvalues
    on phases far apart, such as a pair near -1 on both sides of the
    cut, or cos-zero U, whose log is ill-conditioned.
    """
    c = t / 3.0
    # the rows of (i theta_j / 2) P_j: the log's, halved
    (r0, p0, q0), (r1, p1, q1), (r2, p2, q2) = _lagrange_rows(
        [v - c for v in e], [0.25j * th for th in theta])
    if not 2.0 * (abs(r0) + abs(r1) + abs(r2)) <= _CF_MAX_COEF:
        return None
    x = a - _EYE3 * c
    # the rows summed: x (c2 x + c1) + c0
    m = x @ (x * (r0 + r1 + r2) + _EYE3 * (p0 + p1 + p2)) + _EYE3 * (q0 + q1 + q2)
    return m - m.conj().T


def _turns(theta, k, tol: Tolerances, floor: float) -> list:
    """The phases t of the branch k: sum_i (beta_i + 2 pi k_i) w_i over the parts (beta_i, w_i) of theta.

    The parts are theta's principal parts (i theta_i / 2)(2 P_i - 1),
    beta_i = |theta_i| / 2 along w_i = sign(theta_i) sigma_i, so k = 0
    gives theta back.  A turn of 2 pi k_i carries an absolute error of
    about 2 pi |k_i| eps, which exp of the log passes on to u, so a
    winding whose error passes fact_tol is FactorizationFailed.  A turn
    along a part whose sin(beta_i) is not above floor is
    MissingDirection: the eigen path's floor is sin_zero_tol, as in
    ``_directed``.
    """
    miss = 2.0 * math.pi * max(map(abs, k)) * _EPS
    if not miss <= tol.fact_tol:
        raise FactorizationFailed("branch %s is past double precision: the log's factors "
                                  "miss u by up to %.3e" % (list(k), miss))
    u = []
    for th, ki in zip(theta, k):
        beta = abs(th) / 2.0
        if ki != 0 and not math.sin(beta) > floor:
            raise MissingDirection("branch %d requested on a part with no direction" % ki)
        # the turned part along its sign pattern sign(theta_i) sigma_i
        u.append(math.copysign(1.0, th) * (beta + 2.0 * math.pi * ki))
    u0, u1, u2 = u
    return [0.0 + u0 - u1 - u2, 0.0 - u0 + u1 - u2, 0.0 - u0 - u1 + u2]


def _projector_log(a: np.ndarray, e, t) -> np.ndarray | None:
    """sum_j i t_j P_j over a's eigenvalues e from purified Lagrange projectors; None past its gate.

    The projectors come as the skew involutions
    Z_j = i (2 P_j - 1) of Lagrange's polynomials (``invdec._involutions``),
    purified once by McWeeny's step P <- 3 P^2 - 2 P^3 (Rev. Mod. Phys.
    32, 335, 1960), which on Z_j is Z_j (Z_j^2 + 3) / 2.  With
    Y_j = Z_j (Z_j^2 + 3) = 2 i (2 P_j - 1),

        log = i sum t / 2 + sum_j t_j Y_j / 4,   sum_j e_j P_j = sum e / 2 - i sum_j e_j Y_j / 4,

    both from one (2, 4) by (4, 9) product over the Y_j and 1, and the
    log is made exactly skew.  None where the purified projectors
    rebuild a to more than _CF_BRANCH_MISS.  That residual vouches for
    the roots and the projectors.
    """
    inv = _involutions(a, e, (1j, 1j, 1j))
    # rows Y_0, Y_1, Y_2 and 1, weighted by one (2, 4) row pair
    y = np.empty((4, 3, 3), dtype=np.complex128)
    np.matmul(inv, inv @ inv + _THREE, out=y[:3])
    y[3] = _EYE3
    t0, t1, t2 = t
    e0, e1, e2 = e
    # the log's row halved, so that m - m^H is the skew projection
    w = np.array([[0.125 * t0, 0.125 * t1, 0.125 * t2, 0.25j * (t0 + t1 + t2)],
                  [-0.25j * e0, -0.25j * e1, -0.25j * e2, 0.5 * (e0 + e1 + e2)]])
    m, rebuilt = (w @ y.reshape(4, 9)).reshape(2, 3, 3)
    if not _fro(rebuilt - a) <= _CF_BRANCH_MISS:
        return None
    return m - m.conj().T


def _closed_form_log(a: np.ndarray, dev: float, k, tol: Tolerances) -> np.ndarray | None:
    """``_log_sum`` of a unitary a from its characteristic cubic, no eigensolver; None if declined.

    a's eigenvalues come from its characteristic cubic
    (``_cubic_eigenvalues``), and ``_log_phases`` and ``_turns`` act on
    them as on the eigen path's eigenvalues.  For k != 0 the roots come
    in U's eigenvalue order, so turn k_i goes along the eigenvalue the
    eigen path turns it along, and the log is sum_j i t_j P_j over the
    turned phases t (``_projector_log``).  At k = 0 the order does not
    matter, and the roots stay in Cardano's: the monomial form's sum
    r_0 + r_1 + r_2 and the projector form's rows round in root order.
    There the log is the monomial form (``_monomial_log``), and past its
    coefficient gate the projector form on the same roots and phases:
    one cubic per call.

    None leaves a to the eigen path, which then runs as it would alone,
    so both accept the same U and refuse it with the same errors:

    - where two roots are closer than _CF_MIN_GAP, or dev is not the
      proof that a is normal (``_cubic_eigenvalues``);
    - where a phase rule raises, or a turn goes along a part whose sine
      is within twice sin_zero_tol, so that the eigen path's phases,
      not these, decide MissingDirection;
    - where the purified projectors rebuild a to more than
      _CF_BRANCH_MISS.
    """
    roots = _cubic_eigenvalues(a, dev, tol, ordered=any(k))
    if roots is None:
        return None
    t, e = roots
    try:
        theta = _log_phases(e, tol)
        if any(k):
            return _projector_log(a, e, _turns(theta, k, tol, 2.0 * tol.sin_zero_tol))
    except NumericalError:
        return None
    m = _monomial_log(a, t, e, theta)
    return _projector_log(a, e, theta) if m is None else m


def _log_sum(a: np.ndarray, dev: float, k, tol: Tolerances) -> np.ndarray:
    """The eigen path: the principal part logs plus 2 pi k_i turns along part i, made exactly skew.

    The principal parts are (i theta_i / 2)(2 P_i - 1), theta the
    least-norm traceless selection of U's eigenphases, so U's
    eigenvalues alone decide whether it has a log.  Two within
    sin_zero_tol of -1 are AmbiguousDirection (``_least_norm_phases``),
    and a det other than 1 is FactorizationFailed (``_det_one``); the
    turns' rules are ``_turns``'.  dev is a's measured unitarity
    residual (``_normal_norm``).  The eigenvalues and columns are
    ``grades._eigen_basis``', in U's eigenvalue order, as the ordered
    roots of the closed branch logs.
    """
    e, p, ph = _eigen_basis(a, tol, dev)
    theta = _log_phases(e, tol)
    m = (p * (1j * np.array(_turns(theta, k, tol, tol.sin_zero_tol)))) @ ph
    return (m - m.conj().T) * complex(0.5)


def _log(u, k, tol: Tolerances) -> ComplexMat:
    """The log of u of windings k: the closed form (``_closed_form_log``), else the eigen path."""
    a, dev = _unitary_array(u, tol)
    m = _closed_form_log(a, dev, k, tol)
    return ComplexMat._wrap(_log_sum(a, dev, k, tol) if m is None else m)


def principal_log(u, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Principal matrix log of u as a traceless anti-Hermitian matrix.

    The traceless log of least norm, taken from u's eigenphases: the
    sum of the parts of the eigen route.  It is computed in closed
    form from the roots of u's characteristic cubic
    (``_closed_form_log``): as a degree-2 polynomial in u whose
    Lagrange coefficients come from those roots, or, where the
    coefficients exceed _CF_MAX_COEF, over the purified projectors.
    Where neither can vouch for itself (two eigenvalues within
    _CF_MIN_GAP, the projectors' rebuild gate, or a phase rule
    refusing), the eigen path (``_log_sum``) runs as it would alone,
    so both accept the same u and refuse it with the same error.
    """
    return _log(u, (0, 0, 0), tol)


def branch_log(u, branch: LogBranch, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Non-principal log: adds 2 pi k_i turns along each part direction.

    A part with no recoverable direction (beta near 0) only admits the
    principal branch; asking for k != 0 there is refused.  The log is
    sum_j i t_j P_j over u's eigenprojections, t the turned phases,
    taken first from purified Lagrange projectors in u
    (``_closed_form_log``).  Where that cannot vouch for itself, the
    eigen path (``_log_sum``) runs as it would alone, so both accept the
    same u and refuse it with the same error.  k = 0 is the principal
    log's path: ``principal_log(u, tol)``'s bytes and errors.
    """
    return _log(u, (branch if isinstance(branch, LogBranch) else LogBranch(k=branch)).k, tol)
