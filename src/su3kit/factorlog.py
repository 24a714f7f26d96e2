"""Factorization of SU(3) elements into commuting simple factors, and logs.

Every group element produced by the exponential of a traceless
anti-Hermitian 3x3 matrix splits as U = U1 U2 U3 with each factor of
the Euler form cos(beta) 1 + sin(beta) bhat.  The grade projections of
U determine the factors through a handful of rational identities, e.g.

    g0 + S_i           = c_j c_k U_i         (j, k the other indices)
    1 + H_k S_j^(-1)   = U_i / c_i
    1 + g6 H_i^(-1)    = U_i / c_i

Each right-hand side is a scalar multiple of a unitary, so normalizing
by the 1/3-weighted norm recovers U_i up to sign.  No route works for
every input (the scalar prefactors vanish on measure-zero sets), hence
the cascade in `factorize`.  Signs are not corrected per factor: the
closing factor U3 = U1^dag U2^dag U absorbs the net sign.

The cascade runs on U's eigenbasis, U = sum_i e_i P_i over U's
eigenprojections P_i.  There every constituent is a scalar times the
involution 2 P_i - 1, the sign pattern sigma_i = 2 e_i - 1: g0 and g6
are scalars, H_i = (gamma_i - sum gamma)/2 sigma_i and
S_i = i (delta_i - sum delta)/2 sigma_i, with gamma + i delta the
diagonal of g2 + g4 = U - g0 - g6 on the eigenbasis, that is
e - g0 - g6.  So every route expression, normalization and gate acts
on the 3-vector x of diagonal entries: an inverse is a division, the
unitarity residual is || |x|^2 - 1 ||, "Hermitian half is scalar" is
||Re x - mean Re x||, and the closing factor is conj(x1) conj(x2) e.
A factor's log is (beta, w) with unit i sum_m w_m P_m, w the signs of
Im x (a unit squares to -1); the part has a direction where
sin(beta) exceeds sin_zero_tol.  Matrices are built only for output: a
unit is i w_i (2 P_i - 1), a factor cos(beta) 1 + sin(beta) unit.

So the cascade needs U's eigenvalues and, for its output, the
projectors P_i, and both follow from U without an eigenbasis: the e_i
are the roots of U's characteristic cubic, and P_i is Lagrange's
polynomial in U, (U - e_j)(U - e_k) / ((e_i - e_j)(e_i - e_k)) (Higham,
Functions of Matrices, 2008, ch. 1).  The cubic, whose coefficients
are complex, is solved in this module alone: Cardano's formula
(``_complex_cubic_roots``), polished in ``_cubic_eigenvalues``.
``factorize`` takes this closed form first (``_closed_form_factors``).
Where it cannot vouch for its result it declines, and the eigen path
(``_factor_parts``) runs as it would alone: ``grades._eigenbasis``
diagonalizes U once with the normal kernel, U = P diag(e) P^H, reads
gamma + i delta off P^H (g2 + g4) P, and a unit is P diag(i w) P^H.
Both paths share the cascade and the rules after it (``_route_parts``), and the gates of
the closed form keep its routes and errors the eigen path's.  About
98% of Haar U take the closed form.

When the cascade finds no factor (FactorizationFailed; an
AmbiguousDirection is final), the ``eigen`` route takes the paper's
invariant decomposition of log U instead: the least-norm traceless
selection theta of U's eigenphases shifted by 2 pi k, k in
{-1, 0, 1}^3, gives the parts (i theta_i / 2)(2 P_i - 1).  Two
eigenvalues within sin_zero_tol of -1 make it refuse with
AmbiguousDirection (see ``_least_norm_phases``).

The cascade's factors match U's eigenphases only to its own accuracy
(about 1e-10 where a cos(beta_i) nearly vanishes), so their angles are
moved onto U's eigenphases along their own units (``_pinned``): the
factors then multiply to U up to the eigenbasis' own error.  The moved
phases are not U's principal phases.  Where an eigenphase sits at
+-pi, the cascade's angles pick its side, and principal phases would
flip the signs of two factors, as they do on 20 of the 50 engineered
vanishing-g0 inputs of the tests, each with an eigenphase at +-pi.

One rule on det U (``_det_one``) decides for both routes and for the
logs, after any AmbiguousDirection: phases theta of U's eigenvalues
give a traceless log that misses U by sqrt(3)/2 |sum theta|, the sum
taken modulo 2 pi (the cascade's phases may sum to +-2 pi), and a miss
above fact_tol is FactorizationFailed.  So factorize and the logs
accept the same U.

The logs do not run the cascade.  Re-signing the pinned factors' logs
to their least-norm traceless sum gives the eigen route's selection
over U's eigenphases, so ``principal_log`` is the sum of the eigen
route's parts and ``branch_log`` adds 2 pi k_i turns along part i.
U's eigenvalues alone decide which U have a log (see ``_log_sum``); a
winding whose turns carry more rounding than fact_tol is refused.

So once U's eigenvalues e_j are known, the log follows without an
eigenbasis.  ``principal_log`` first takes it in closed form, as
the degree-2 polynomial in U that interpolates i theta_j at e_j:

    log U = i theta_1 1 + f[e_1,e_2] (U - e_1) + f[e_1,e_2,e_3] (U - e_1)(U - e_2),

with f[e_i,e_j] = (h / sin h) e^(-i (theta_i + theta_j)/2),
h = (theta_j - theta_i)/2, the divided differences of the log
(``_closed_form_log``; Higham, Functions of Matrices, 2008, ch. 1;
``expmap.exp_su3`` is the same construction for exp).  The e_j are the
roots of U's characteristic cubic (``_complex_cubic_roots``),
and theta the same selection and det rule as on the eigen path.  Where
two roots are closer than _CF_MIN_GAP or some h / sin h exceeds
_CF_MAX_FACTOR, the polynomial is ill-conditioned, and where a phase
rule raises, the closed form declines: the eigen path then runs as it
would alone, so both accept the same U with the same errors.  About
80% of Haar U take the closed form.  ``branch_log`` keeps the
eigenbasis.  A branch log has norm 9 to 20, and the polynomial's
error, about eps ||L||, lies off U's eigenbasis: on 60 Haar U, branch
logs taken in closed form round-tripped to 9.2e-14 at worst, against
6.8e-15 on the eigenbasis.  The logs and ``factorize`` take the roots
from one helper, ``_cubic_eigenvalues``.

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
import itertools
import math
from collections.abc import Callable

import numpy as np

from .errors import (
    AmbiguousDirection,
    FactorizationFailed,
    InputError,
    MissingDirection,
    NotSimpleFactor,
    NumericalError,
    ZeroMatrix,
)
from .expmap import GroupElement, _check_group, _factor_array
from .grades import (GradeDecomposition, _decomposition, _eigen_decomposition, _eigenbasis,
                     _halves, _scalar_grades)
from .invdec import _OTHERS, SimplePart, _involutions
from .smallmat import (_EPS, _EYE3, ComplexMat, _as_mat, _eigen_normal3, _finite_mat,
                       _finite_norm, _fro, _normal_norm, _order_indices, _scalar_residual,
                       _unchecked_mat)
from .tolerances import DEFAULT_TOL, Tolerances

_SQRT3 = math.sqrt(3.0)
# sigma_i = 2 e_i - 1: the involution 2 p_i p_i^H - 1 on U's eigenbasis P
_SIGMA = ((1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))
# the shifts k in {-1, 0, 1}^3 by their sum
_SHIFTS = {n: [k for k in itertools.product((-1, 0, 1), repeat=3) if sum(k) == n]
           for n in range(-3, 4)}


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

    ``grades``, the grade decomposition the routes read, is built on
    first access from the projectors ``factorize`` already holds (the
    closed form's polynomials in U, or the eigenbasis), so a caller that
    never reads it never pays for its twelve matrices, and reading it
    runs no eigensolver.
    """

    factors: tuple[ComplexMat, ComplexMat, ComplexMat]
    parts: tuple[SimplePart, SimplePart, SimplePart]
    routes: tuple[str, str, str]
    _grades_of: Callable[[], GradeDecomposition] = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def grades(self) -> GradeDecomposition:
        return self._grades_of()


@dataclasses.dataclass(frozen=True)
class LogBranch:
    k: tuple[int, int, int]

    def __post_init__(self):
        if len(self.k) != 3 or not all(isinstance(x, int) and abs(x) <= 2**53 for x in self.k):
            raise InputError("branch must be three integers of magnitude at most 2**53")


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


def _candidate(name: str, i: int, g0: complex, g6: complex, h, s, tol: Tolerances) -> list:
    """Route ``name``'s candidate for factor i on the eigenbasis, normalized and unitary.

    H_i = h_i sigma_i and S_i = s_i sigma_i, sigma_i is its own inverse
    and sigma_k sigma_j = sigma_i, so every route gives a + b sigma_i.
    Each constituent is a scalar times an exact involution, so a
    constituent that is numerically zero still inverts cleanly and the
    dirt/dirt ratio yields a well-formed but wrong factor that passes
    every shape check.  Routes therefore refuse inputs whose norm is
    below the effectively-zero floor instead of trusting the algebra.
    A nonzero constituent has condition number 1, so its inverse needs
    no further check.
    """
    if name == "simple":
        a, b = g0, s[i]
    else:
        j, k = _OTHERS[i]
        terms = {"inv_a": (("H", h[k]), ("S", s[j])), "inv_b": (("H", h[j]), ("S", s[k])),
                 "inv2": (("g6", g6), ("H", h[i]))}[name]
        for label, coef in terms:
            if abs(coef) <= tol.g0_zero_tol:
                raise ZeroMatrix("%s input is effectively zero (%.3e)" % (label, abs(coef)))
        a, b = 1.0, terms[0][1] / terms[1][1]
    y0, y1, y2 = _SIGMA[i]
    x = (a + b * y0, a + b * y1, a + b * y2)
    nrm = _norm(x) / _SQRT3
    if nrm <= tol.norm_zero_tol:
        raise ZeroMatrix("cannot normalize a matrix with norm %.3e" % nrm)
    r = 1.0 / nrm
    cand = [x[0] * r, x[1] * r, x[2] * r]
    udev = math.hypot(abs(cand[0]) ** 2 - 1.0, abs(cand[1]) ** 2 - 1.0, abs(cand[2]) ** 2 - 1.0)
    if not udev <= 100.0 * tol.fact_tol:
        raise NotSimpleFactor("candidate not unitary (%.3e)" % udev)
    return cand


def _cascade(e, g0, g6, gam, delt, tol: Tolerances):
    """The paper's route cascade on the eigenbasis: the parts (beta, w) and their routes.

    Route order depends on whether the scalar grade is usable: when
    every cos(beta_i) is nonzero the direct g0 + S_i route is cheapest
    and most accurate; when g0 vanishes (some cos is zero) the inverse
    routes go first, with g0 + S_i kept as a last resort since it still
    works when only one cosine vanishes.  A factor no route recovers is
    an AmbiguousDirection if some route found it at the antipode.
    """
    h = [0.5 * (g - sum(gam)) for g in gam]
    s = [0.5j * (d - sum(delt)) for d in delt]
    if abs(g0) > tol.g0_zero_tol:
        order = ("simple", "inv_a", "inv_b", "inv2")
    else:
        order = ("inv_a", "inv_b", "inv2", "simple")
    cands = []
    parts = []
    routes = []
    ambiguous = None
    for i in (0, 1):
        notes = []
        for name in order:
            try:
                cand = _candidate(name, i, g0, g6, h, s, tol)
                parts.append(_log_entries(cand, tol))
            except NumericalError as exc:
                if isinstance(exc, AmbiguousDirection):
                    ambiguous = ambiguous or exc
                notes.append("%s: %s" % (name, exc))
                continue
            cands.append(cand)
            routes.append(name)
            break
        else:
            raise ambiguous or FactorizationFailed(
                "no route recovered factor %d: %s" % (i + 1, "; ".join(notes)))
    # U3 = U1^dag U2^dag U
    x3 = [a.conjugate() * b.conjugate() * v for a, b, v in zip(*cands, e)]
    try:
        parts.append(_log_entries(x3, tol))
    except NotSimpleFactor as exc:
        # the first two factors validated individually but are mutually
        # inconsistent; report as a factorization failure, not a shape error
        raise FactorizationFailed("closing factor is not simple: %s" % exc) from exc
    routes.append("closing")
    return parts, routes


def _least_norm_phases(z, tol: Tolerances) -> list:
    """The least-norm traceless log phases of P diag(z) P^H, |z| = 1.

    The phases of z shifted by 2 pi k, k in {-1, 0, 1}^3: among the
    selections whose sum is nearest 0 (exactly 0 when the product of z
    is 1), the one of least norm, ties broken by the phases themselves.
    Two traceless selections differ by +2 pi on one phase and -2 pi on
    another, and their squared norms by 4 pi (2 pi - theta_b + theta_a),
    so they tie only where two equal entries of z get phases 2 pi apart:
    a double eigenvalue on the far side of the circle, whose split
    between +pi and -pi the eigenbasis picks, as for omega 1.  Within
    sin_zero_tol of -1 rounding picks the sides of the phases too, so
    two such entries are refused as AmbiguousDirection.
    """
    if sum(abs(v + 1.0) <= tol.sin_zero_tol for v in z) >= 2:
        raise AmbiguousDirection(
            "equal eigenvalues at phases 2 pi apart: the traceless log is not unique")
    phi = [cmath.phase(v) for v in z]
    # a selection's trace is sum(phi) + 2 pi sum(k)
    turns = round(sum(phi) / (2.0 * math.pi))
    # each phase shifted by 2 pi k, listed so that k itself is the index
    f0, f1, f2 = ([f + 2.0 * math.pi * k for k in (0, 1, -1)] for f in phi)
    return list(min((a * a + b * b + c * c, a, b, c)
                    for a, b, c in ((f0[i], f1[j], f2[k]) for i, j, k in _SHIFTS[-turns]))[1:])


def _pinned(parts, e) -> list:
    """The phases of the cascade's factors' product on P, moved onto e's.

    The factors' product on P is exp(i theta), theta = sum_i beta_i w_i,
    which matches U's eigenphases only to the cascade's accuracy (about
    1e-10 where a cos(beta_i) nearly vanishes).  Each phase is moved onto
    e's; ``_phase_parts`` of theta_i - sum theta splits it again on the
    sign patterns, since c_i = (theta_i - sum theta)/2 solves
    sum_i c_i sigma_i = theta.  A factor keeps its route, and its angle
    moves by the cascade's error.  The cascade's angles, not principal
    phases, pick the side of a phase at +-pi.
    """
    theta = [sum(beta * w[m] for beta, w in parts) for m in range(3)]
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


def _phase_parts(theta) -> list:
    """The parts (|theta_i| / 2, sign(theta_i) sigma_i) of P diag(i theta) P^H: (i theta_i / 2)(2 P_i - 1)."""
    return [(abs(t) / 2.0, [math.copysign(1.0, t) * x for x in sigma])
            for t, sigma in zip(theta, _SIGMA)]


def _route_parts(e, g0: complex, g6: complex, gam, delt, tol: Tolerances):
    """(parts, routes) from U's ordered eigenvalues e and the cascade's scalars.

    The eigen route, the invariant decomposition of log U, runs only
    after the cascade's FactorizationFailed.  Either route's phases
    then meet ``_det_one``, so an AmbiguousDirection of the cascade or
    the selection comes first.
    """
    try:
        parts, routes = _cascade(e, g0, g6, gam, delt, tol)
    except FactorizationFailed as exc:
        theta = _least_norm_phases(e, tol)
        _det_one(theta, tol, "%s; eigen route:" % exc)
        return _phase_parts(theta), ["eigen"] * 3
    theta = _pinned(parts, e)
    _det_one(theta, tol)
    return _phase_parts([t - sum(theta) for t in theta]), routes


def _stacked_factors(units: np.ndarray, parts) -> np.ndarray:
    """The factors cos(beta_i) 1 + sin(beta_i) unit_i as one (3, 3, 3) array."""
    # per factor the arithmetic of expmap._factor_array
    cos = np.array([complex(math.cos(beta)) for beta, _ in parts])
    sin = np.array([complex(math.sin(beta)) for beta, _ in parts])
    return _EYE3 * cos[:, None, None] + units * sin[:, None, None]


def _factor_parts(a: np.ndarray, dev: float, tol: Tolerances):
    """(factors, units, parts, routes, grades) of a, of unitarity residual dev, on its eigenbasis.

    The eigen path: the normal kernel's eigenbasis P, and the cascade on
    the diagonal of g2 + g4 on P (``grades._eigenbasis``).  The units
    are P diag(i w) P^H, and grades builds the decomposition along
    P's columns when called.
    """
    p, ph, e, g0, g6, gam, delt = _eigenbasis(a, tol, dev)
    parts, routes = _route_parts(e.tolist(), g0, g6, gam.tolist(), delt.tolist(), tol)
    # the three units P diag(i w) P^H as one stacked product
    units = (p * (1j * np.array([w for _, w in parts]))[:, None, :]) @ ph
    return (_stacked_factors(units, parts), units, parts, routes,
            functools.partial(_eigen_decomposition, a, p, gam, delt))


# The gates of the closed forms.  The log's: Cardano's raw roots at
# least _CF_MIN_GAP apart, and every divided-difference factor h / sin h
# at most _CF_MAX_FACTOR; 80% of Haar U pass.  factorize's: |g0| fact_tol
# at least _CF_G0_MARGIN eps, the raw roots at least _CF_FACTOR_GAP
# apart, and the factors' product within _CF_FACTOR_MISS of U; 98% of
# Haar U pass.
_CF_MIN_GAP = 0.05
_CF_MAX_FACTOR = 4.0
_CF_FACTOR_GAP = 0.2
_CF_G0_MARGIN = 500.0
_CF_FACTOR_MISS = 16.0 * _EPS


# the cube roots of unity
_OMEGAS = (1.0, complex(-0.5, 0.5 * math.sqrt(3.0)), complex(-0.5, -0.5 * math.sqrt(3.0)))


def _complex_cubic_roots(t: complex, s: complex, d: complex) -> list[complex]:
    """Cardano's roots of z^3 - t z^2 + s z - d, not polished.

    z = x + t/3 gives x^3 + p x + q with p = s - t^2/3 and
    q = s t/3 - 2 t^3/27 - d.  Each root is x = c - p/(3c) for one of the
    cube roots c of -q/2 +- sqrt(q^2/4 + p^3/27), the sign taken that
    gives the larger modulus.  Where that is 0, p and q vanish and t/3
    is a triple root.
    """
    p = s - t * t / 3.0
    q = s * t / 3.0 - 2.0 * t * t * t / 27.0 - d
    r = cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    w = max(-0.5 * q + r, -0.5 * q - r, key=abs)
    if w == 0.0:
        return [t / 3.0] * 3
    c = w ** (1.0 / 3.0)
    return [t / 3.0 + c * o - p / (3.0 * c * o) for o in _OMEGAS]


def _cubic_eigenvalues(a: np.ndarray, dev: float, tol: Tolerances, min_gap: float):
    """(tr a, a's eigenvalues) from a's characteristic cubic, or None.

    a's eigenvalues are the roots of z^3 - t z^2 + s z - det a, t = tr a
    and s the sum of its principal 2x2 minors, all from one
    ``tolist()``.  Cardano's roots (``_complex_cubic_roots``)
    are polished where it is safe: Newton on the root apart from the
    nearest pair, and the pair from the deflated quadratic, of sum
    t - z and product det a / z, so the pair's phase sum is det a's
    less z's.  The roots come as [pair, pair, z].

    None where two raw roots are closer than min_gap: rounding splits
    Cardano's roots of a cluster, and what the closed forms build from
    them divides by the gaps.  Most such inputs are declined from t alone,
    before the cubic is solved: with det a = 1 the squared product of
    the three gaps is 27 - 18 |t|^2 + 8 Re t^3 - |t|^4, and below
    min_gap^6 some gap is below min_gap.  None also unless dev, a's unitarity
    residual, is the proof that a is normal: only where dev + 4 eps is
    within an eighth of normal_tol and eig_tol, which no U that passes
    the default grp_tol exceeds, can neither of the eigen path's gates
    refuse a, so the closed forms accept the U the eigen path accepts.
    """
    if not dev + 4.0 * _EPS <= 0.125 * min(tol.normal_tol, tol.eig_tol):
        return None
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    t = 0j + a00 + a11 + a22
    n2 = t.real * t.real + t.imag * t.imag
    if not 27.0 - 18.0 * n2 + 8.0 * (t * t * t).real - n2 * n2 >= min_gap**6:
        return None
    m0 = a11 * a22 - a12 * a21
    s = m0 + (a00 * a22 - a02 * a20) + (a00 * a11 - a01 * a10)
    d = a00 * m0 - a01 * (a10 * a22 - a12 * a20) + a02 * (a10 * a21 - a11 * a20)
    raw = _complex_cubic_roots(t, s, d)
    gaps = [abs(raw[1] - raw[2]), abs(raw[2] - raw[0]), abs(raw[0] - raw[1])]
    if not min(gaps) >= min_gap:
        return None
    z = raw[gaps.index(min(gaps))]
    for _ in range(2):
        p = ((z - t) * z + s) * z - d
        step = z - p / ((3.0 * z - 2.0 * t) * z + s)
        if not abs(((step - t) * step + s) * step - d) < abs(p):
            break
        z = step
    sm, pr = t - z, d / z
    r = cmath.sqrt(sm * sm - 4.0 * pr)
    x = 0.5 * max(sm + r, sm - r, key=abs)
    return t, [x, pr / x, z]


def _closed_form_factors(a: np.ndarray, dev: float, tol: Tolerances):
    """``_factor_parts`` of a from its characteristic cubic, no eigensolver; None if it declines.

    The roots (``_cubic_eigenvalues``) are put in the normal kernel's
    order (``smallmat._order_indices``), so factor i stays factor i.
    On U's eigenbasis g2 + g4 = U - g0 - g6, so the cascade's diagonal
    is e - g0 - g6, and the cascade, the eigen route, ``_pinned`` and
    ``_det_one`` run on these scalars as on the eigen path's
    (``_route_parts``).  The projector onto e_i is Lagrange's
    polynomial in U (Higham, Functions of Matrices, 2008, ch. 1),

        P_i = (U - e_j)(U - e_k) / ((e_i - e_j)(e_i - e_k)),

    and unit i, i w_i (2 P_i - 1) with w_i the sign of part i, is made
    exactly skew (``invdec._involutions``, which builds
    ``decompose_closed_form``'s parts too).

    None leaves a to the eigen path, which then runs as it would alone,
    so both accept the same U with the same routes and errors:

    - where |g0| fact_tol < _CF_G0_MARGIN eps, g0 = (1 + Re tr a) / 4,
      that is |g0| < 1.1e-3 at the default fact_tol.  The simple route
      divides by g0: its closing factor carries a rounding residual of
      up to about 3 eps / |g0|, which this keeps over 100 times under
      fact_tol.  Nearer, the eigenvalues' rounding, not U, decides
      whether the closing factor passes (the near-cos-zero band).  And
      with det a = 1 two eigenvalues of equal imaginary part put the
      third at -1, where g0 = 0; the kernel orders such a pair by its
      rounding.  Past this gate and the next the imaginary parts are
      at least 4e-4 apart at the default fact_tol;
    - where two raw roots are closer than _CF_FACTOR_GAP, most of them
      decided from tr a alone;
    - where any rule of the cascade or the eigen route raises;
    - where the factors' product misses a by more than _CF_FACTOR_MISS.
      That residual vouches for the roots, whose rounding from the
      cubic's coefficients, a few eps over |p'(e_i)|, reaches every
      factor: it declines about 1% of Haar U.
    """
    if not abs(1.0 + (a.item(0, 0) + a.item(1, 1) + a.item(2, 2)).real) / 4.0 * tol.fact_tol \
            >= _CF_G0_MARGIN * _EPS:
        return None
    roots = _cubic_eigenvalues(a, dev, tol, _CF_FACTOR_GAP)
    if roots is None:
        return None
    t, z = roots
    e = [z[i] for i in _order_indices(z)]
    g0, g6 = _scalar_grades(t)
    d = [x - g0 - g6 for x in e]
    gam = [x.real for x in d]
    delt = [x.imag for x in d]
    try:
        parts, routes = _route_parts(e, g0, g6, gam, delt, tol)
    except NumericalError:
        return None
    # unit i is i w_i (2 P_i - 1), w_i the sign of part i
    units = _involutions(a, e, [1j * w[i] for i, (_, w) in enumerate(parts)])
    factors = _stacked_factors(units, parts)
    if not _fro(factors[0] @ factors[1] @ factors[2] - a) <= _CF_FACTOR_MISS:
        return None
    return (factors, units, parts, routes,
            functools.partial(_unit_decomposition, a, gam, delt, units, parts))


def _unit_decomposition(a: np.ndarray, gam, delt, units: np.ndarray, parts) -> GradeDecomposition:
    """The grade decomposition along the closed form's involutions 2 P_i - 1 = -i w_i unit_i."""
    signs = np.array([-1j * w[i] for i, (_, w) in enumerate(parts)])
    return _decomposition(a, np.array(gam), np.array(delt), units * signs[:, None, None])


def factorize(u, tol: Tolerances = DEFAULT_TOL) -> Factorization:
    """Split u into three commuting Euler factors.

    The paper's route cascade runs first (see ``_cascade``); when it
    finds no factor, the ``eigen`` route.  Both run on u's eigenvalues,
    taken in closed form from u's characteristic cubic
    (``_closed_form_factors``), and the factors' units are polynomials
    in u.  Where the closed form cannot vouch for itself, the eigen
    path (``_factor_parts``) runs as it would alone.  Each factor is
    cos(beta) 1 + sin(beta) unit.  The grade decomposition the routes
    used is built when ``grades`` is read.
    """
    a, dev = _unitary_array(u, tol)
    factors, units, parts, routes, grades_of = (_closed_form_factors(a, dev, tol)
                                                or _factor_parts(a, dev, tol))
    return Factorization(
        factors=tuple(ComplexMat._wrap(f) for f in factors),
        parts=tuple(_simple_part(beta, unit if _directed(beta, tol) else None)
                    for unit, (beta, _) in zip(units, parts)),
        routes=tuple(routes), _grades_of=grades_of)


def _closed_form_log(a: np.ndarray, dev: float, tol: Tolerances) -> np.ndarray | None:
    """principal_log of a unitary a as c0 1 + c1 a + c2 a^2, made skew; None if not vouched for.

    a's eigenvalues come from its characteristic cubic
    (``_cubic_eigenvalues``), and ``_least_norm_phases`` and
    ``_det_one`` act on them as on the eigen path's eigenvalues.  The
    log is the interpolating polynomial of i theta at the nodes
    e^(i theta) (Higham, Functions of Matrices, 2008, ch. 1), in
    Newton's form

        i theta_u 1 + f[u,v] (a - u) + f[u,v,w] (a - u)(a - v),

    v the node off the widest pair, and
    f[e_i,e_j] = (h / sin h) e^(-i (theta_i + theta_j)/2),
    h = (theta_j - theta_i)/2, free of cancellation.

    None leaves a to the eigen path (``_log_sum``): where two raw roots
    are closer than _CF_MIN_GAP (f[u,v,w] is a difference quotient of
    nearly equal terms), where some h / sin h exceeds _CF_MAX_FACTOR
    (two close eigenvalues on phases nearly 2 pi apart, across the cut
    at -1, whose log the polynomial splits), where the phase rules
    raise, so the eigen path refuses with its own error, and where
    ``_cubic_eigenvalues`` cannot take dev as the proof that a is
    normal.
    """
    roots = _cubic_eigenvalues(a, dev, tol, _CF_MIN_GAP)
    if roots is None:
        return None
    try:
        theta = _least_norm_phases(roots[1], tol)
        _det_one(theta, tol)
    except NumericalError:
        return None
    e = [cmath.exp(1j * th) for th in theta]
    # v the node off the widest pair, so f[u,v,w] divides by the widest gap
    iv = max(range(3), key=lambda i: abs(e[i - 1] - e[i - 2]))
    iu, iw = (iv + 1) % 3, (iv + 2) % 3
    factors = []
    for i, j in ((iu, iv), (iv, iw), (iu, iw)):
        h = 0.5 * (theta[j] - theta[i])
        factors.append(h / math.sin(h) if h else 1.0)
    if not max(factors) <= _CF_MAX_FACTOR:
        return None
    u, v, w = e[iu], e[iv], e[iw]
    f_uv = factors[0] * cmath.exp(-0.5j * (theta[iu] + theta[iv]))
    f_uvw = (factors[1] * cmath.exp(-0.5j * (theta[iv] + theta[iw])) - f_uv) / (w - u)
    c1 = f_uv - f_uvw * (u + v)
    c0 = 1j * theta[iu] - f_uv * u + f_uvw * u * v
    m = (a @ a) * f_uvw + a * c1 + _EYE3 * c0
    return (m - m.conj().T) * complex(0.5)


def _log_sum(a: np.ndarray, dev: float, k, tol: Tolerances) -> np.ndarray:
    """The eigen path: the principal part logs plus 2 pi k_i turns along part i, made exactly skew.

    The principal parts are (i theta_i / 2)(2 P_i - 1), theta the
    least-norm traceless selection of U's eigenphases, so U's
    eigenvalues alone decide whether it has a log.  Two within
    sin_zero_tol of -1 are AmbiguousDirection (``_least_norm_phases``),
    and a det other than 1 is FactorizationFailed (``_det_one``).  A
    turn of 2 pi k_i carries an absolute error of about 2 pi |k_i| eps,
    which exp of the log passes on to u, so a winding whose error
    passes fact_tol is FactorizationFailed too.  dev is a's measured
    unitarity residual (``_normal_norm``).
    """
    e, p, ph = _eigen_normal3(a, _normal_norm(a, tol, dev), tol)
    theta = _least_norm_phases(e.tolist(), tol)
    _det_one(theta, tol)
    miss = 2.0 * math.pi * max(map(abs, k)) * _EPS
    if not miss <= tol.fact_tol:
        raise FactorizationFailed("branch %s is past double precision: the log's factors "
                                  "miss u by up to %.3e" % (list(k), miss))
    t = [0.0, 0.0, 0.0]
    for (beta, w), ki in zip(_phase_parts(theta), k):
        if ki != 0 and not _directed(beta, tol):
            raise MissingDirection("branch %d requested on a part with no direction" % ki)
        turn = beta + 2.0 * math.pi * ki
        t = [x + turn * y for x, y in zip(t, w)]
    m = (p * (1j * np.array(t))) @ ph
    return (m - m.conj().T) * complex(0.5)


def principal_log(u, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Principal matrix log of u as a traceless anti-Hermitian matrix.

    The traceless log of least norm, taken from u's eigenphases: the
    sum of the parts of the eigen route.  It is computed in closed
    form, as a degree-2 polynomial in u whose coefficients come from
    the roots of u's characteristic cubic (``_closed_form_log``).
    Where that cannot vouch for itself (two eigenvalues within
    _CF_MIN_GAP, a divided difference h / sin h above _CF_MAX_FACTOR,
    or a phase rule refusing), the eigen path (``_log_sum``) runs as
    it would alone, so both accept the same u and refuse it with the
    same error.
    """
    a, dev = _unitary_array(u, tol)
    m = _closed_form_log(a, dev, tol)
    return ComplexMat._wrap(_log_sum(a, dev, (0, 0, 0), tol) if m is None else m)


def branch_log(u, branch: LogBranch, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Non-principal log: adds 2 pi k_i turns along each part direction, on u's eigenbasis.

    A part with no recoverable direction (beta near 0) only admits the
    principal branch; asking for k != 0 there is refused.
    """
    if not isinstance(branch, LogBranch):
        branch = LogBranch(k=tuple(branch))
    return ComplexMat._wrap(_log_sum(*_unitary_array(u, tol), branch.k, tol))
