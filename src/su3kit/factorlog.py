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
closing factor U3 = U1^dag U2^dag U absorbs the net sign, and the
principal log rebalances the pair of pi-complements it causes.

The cascade, closing factor, sign selection and log sum run on plain
complex128 arrays; a factor's log is (beta, unit), unit None without a
direction.  Scalars multiply as Python complex numbers, as ``ComplexMat``
scales, and residual gates read "not x <= tol" so NaN is refused.  Public
functions take a ``GroupElement``, ``ComplexMat`` or raw entries and wrap
each result once, after one finiteness check.
"""

from __future__ import annotations

import dataclasses
import math

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
from .expmap import _EYE3, _factor_array, _group_residuals
from .grades import GradeDecomposition, _decomposition, _halves, _split_HS
from .invdec import SimplePart
from .smallmat import ComplexMat, _as_mat, _finite_mat, _inverse, _scalar_residual
from .tolerances import DEFAULT_TOL, Tolerances


def rms_norm(m) -> float:
    """sqrt(tr(M M^dag) / 3); equals 1 for a 3x3 unitary."""
    return _rms(_as_mat(m).array)


def _rms(a: np.ndarray) -> float:
    return float(np.linalg.norm(a)) / math.sqrt(3.0)


def normalize(m, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    return _finite_mat(_normalize(_as_mat(m).array, tol))


def _normalize(a: np.ndarray, tol: Tolerances) -> np.ndarray:
    nrm = _rms(a)
    if nrm <= tol.norm_zero_tol:
        raise ZeroMatrix("cannot normalize a matrix with norm %.3e" % nrm)
    return a * complex(1.0 / nrm)


@dataclasses.dataclass(frozen=True)
class Factorization:
    factors: tuple[ComplexMat, ComplexMat, ComplexMat]
    parts: tuple[SimplePart, SimplePart, SimplePart]
    routes: tuple[str, str, str]
    grades: GradeDecomposition


@dataclasses.dataclass(frozen=True)
class LogBranch:
    k: tuple[int, int, int]

    def __post_init__(self):
        if len(self.k) != 3 or not all(isinstance(x, int) for x in self.k):
            raise InputError("branch must be three integers")


def _part_mat(beta: float, unit: np.ndarray | None) -> np.ndarray:
    return np.zeros((3, 3), dtype=np.complex128) if unit is None else unit * complex(beta)


def _simple_part(beta: float, unit: np.ndarray | None) -> SimplePart:
    return SimplePart(mat=_finite_mat(_part_mat(beta, unit)), lam=complex(-beta * beta),
                      beta=beta, unit=None if unit is None else _finite_mat(unit))


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
    return _simple_part(*_log_factor(a, tol))


def _log_factor(a: np.ndarray, tol: Tolerances) -> tuple[float, np.ndarray | None]:
    """principal_log_factor on a 3x3 array: (beta, unit), unit None without a direction."""
    ccos, ssin = _halves(a)
    bound = tol.fact_tol * max(1.0, float(np.linalg.norm(a)))
    residual = _scalar_residual(ccos)
    if not residual <= bound:
        raise NotSimpleFactor("Hermitian half is not scalar (residual %.3e)" % residual)
    c = complex(np.trace(a)).real / 3.0
    if not abs(c) <= 1.0 + 1e-8:
        raise NotSimpleFactor("cosine out of range by %.3e" % (abs(c) - 1.0))
    sn = _rms(ssin)
    beta = math.atan2(sn, c)
    if sn <= tol.sin_zero_tol:
        if beta > math.pi / 2.0:
            raise AmbiguousDirection(
                "factor is at the antipode (beta = %.6f); direction lost" % beta)
        unit = None
        # a sub-threshold sine is discarded by design; allow exactly
        # the discarded magnitude on top of the usual bound
        bound += math.sqrt(3.0) * tol.sin_zero_tol
    else:
        unit = ssin * complex(1.0 / sn)
    miss = float(np.linalg.norm(_factor_array(unit, beta) - a))
    if not miss <= bound:
        raise NotSimpleFactor("exp of recovered part misses the factor by %.3e" % miss)
    return beta, unit


def _route_exprs(g0, g6, H, S, i: int, tol: Tolerances):
    """Candidate expressions for factor i, lazily evaluated.

    Each constituent is a scalar times an exact involution, so a
    constituent that is numerically zero still inverts cleanly and the
    dirt/dirt ratio yields a well-formed but wrong factor that passes
    every shape check.  Routes therefore refuse inputs whose norm is
    below the effectively-zero floor instead of trusting the algebra.
    """
    j, k = [t for t in range(3) if t != i]
    floor = tol.g0_zero_tol

    def usable(name: str, m: np.ndarray) -> np.ndarray:
        if _rms(m) <= floor:
            raise ZeroMatrix("%s input is effectively zero (%.3e)" % (name, _rms(m)))
        return m

    def simple():
        return g0 + S[i]

    def inv_a():
        return _EYE3 + usable("H", H[k]) @ _inverse(usable("S", S[j]), tol)

    def inv_b():
        return _EYE3 + usable("H", H[j]) @ _inverse(usable("S", S[k]), tol)

    def inv2():
        return _EYE3 + usable("g6", g6) @ _inverse(usable("H", H[i]), tol)

    return {"simple": simple, "inv_a": inv_a, "inv_b": inv_b, "inv2": inv2}


def _factor_candidate(g0, g6, H, S, i: int, order, tol: Tolerances):
    exprs = _route_exprs(g0, g6, H, S, i, tol)
    notes = []
    ambiguous = None
    for name in order:
        try:
            cand = _normalize(exprs[name](), tol)
        except NumericalError as exc:
            notes.append("%s: %s" % (name, exc))
            continue
        udev = _group_residuals(cand)[0]
        if not udev <= 100.0 * tol.fact_tol:
            notes.append("%s: candidate not unitary (%.3e)" % (name, udev))
            continue
        try:
            part = _log_factor(cand, tol)
        except AmbiguousDirection as exc:
            ambiguous = exc
            notes.append("%s: %s" % (name, exc))
            continue
        except NotSimpleFactor as exc:
            notes.append("%s: %s" % (name, exc))
            continue
        return cand, part, name, notes, ambiguous
    return None, None, None, notes, ambiguous


def factorize(u, tol: Tolerances = DEFAULT_TOL) -> Factorization:
    """Split u into three commuting Euler factors.

    Route order depends on whether the scalar grade is usable: when
    every cos(beta_i) is nonzero the direct g0 + S_i route is cheapest
    and most accurate; when g0 vanishes (some cos is zero) the inverse
    routes go first, with g0 + S_i kept as a last resort since it still
    works when only one cosine vanishes.  The grade decomposition the
    routes used comes with the result.
    """
    factors, parts, routes, grades = _factorize(_as_mat(u).array, tol)
    return Factorization(factors=tuple(map(_finite_mat, factors)),
                         parts=tuple(_simple_part(*p) for p in parts),
                         routes=tuple(routes), grades=_decomposition(grades))


def _factorize(a: np.ndarray, tol: Tolerances):
    """factorize on an array: (factors, (beta, unit) parts, routes, grades), all arrays."""
    grades = _split_HS(a, tol)
    g0, _, _, g6, _, _, H, S = grades
    if _rms(g0) > tol.g0_zero_tol:
        order = ("simple", "inv_a", "inv_b", "inv2")
    else:
        order = ("inv_a", "inv_b", "inv2", "simple")
    factors = []
    parts = []
    routes = []
    ambiguous = None
    for i in (0, 1):
        cand, part, name, notes, amb = _factor_candidate(g0, g6, H, S, i, order, tol)
        ambiguous = ambiguous or amb
        if cand is None:
            if ambiguous is not None:
                raise ambiguous
            raise FactorizationFailed(
                "no route recovered factor %d: %s" % (i + 1, "; ".join(notes)))
        factors.append(cand)
        parts.append(part)
        routes.append(name)
    u3 = factors[0].conj().T @ factors[1].conj().T @ a
    try:
        parts.append(_log_factor(u3, tol))
    except NotSimpleFactor as exc:
        # the first two factors validated individually but are mutually
        # inconsistent; report as a factorization failure, not a shape error
        raise FactorizationFailed("closing factor is not simple: %s" % exc) from exc
    factors.append(u3)
    routes.append("closing")
    return factors, parts, routes, grades


def _canonical_parts(a: np.ndarray, tol: Tolerances):
    """Factor parts re-signed so their matrix logs sum to the principal log.

    Each factor admits two part representations, (beta, bhat) and its
    pi-complement (pi - beta, -bhat); the recovered factors carry
    arbitrary signs, so the raw sum of part logs may not be traceless
    (flips come in pairs and each pair shifts the trace by 0 or
    +-2 pi i), and even a traceless raw sum need not be the principal
    branch.  A single flip shifts the trace by pi in magnitude, so the
    traceless selections are cleanly separated: enumerate all sign
    choices, keep the traceless ones, and take the one of least norm,
    i.e. least sum of squared part angles.  Pairs of flips leave the
    product of the factor exponentials unchanged, and odd flip counts
    are never traceless, so the selection still multiplies out to u.
    """
    _, parts, _, _ = _factorize(a, tol)
    flippable = [i for i, (_, unit) in enumerate(parts) if unit is not None]
    best = None
    for mask in range(1 << len(flippable)):
        sel = list(parts)
        for bit, i in enumerate(flippable):
            if mask >> bit & 1:
                # principal log of -U_i instead of U_i: beta -> pi - beta, unit -> -unit
                sel[i] = (math.pi - parts[i][0], parts[i][1] * complex(-1.0))
        if not abs(sum(complex(np.trace(_part_mat(*p))).imag for p in sel)) <= 1.0:
            continue
        cost = sum(beta * beta for beta, _ in sel)
        key = (cost, mask.bit_count(), mask)
        if best is None or key < best[0]:
            best = (key, sel)
    if best is None:
        raise FactorizationFailed("no traceless sign selection for the factor logs")
    return best[1]


def _log_sum(a: np.ndarray, k, tol: Tolerances) -> np.ndarray:
    """Sum of the canonical part logs plus 2 pi k_i turns along part i, made skew."""
    total = np.zeros((3, 3), dtype=np.complex128)
    for (beta, unit), ki in zip(_canonical_parts(a, tol), k):
        total = total + _part_mat(beta, unit)
        if ki != 0:
            if unit is None:
                raise MissingDirection(
                    "branch %d requested on a part with no direction" % ki)
            total = total + unit * complex(2.0 * math.pi * ki)
    return (total - total.conj().T) * complex(0.5)


def principal_log(u, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Principal matrix log of u as a traceless anti-Hermitian matrix.

    Sum of the canonicalized factor logs.  Each factor contributes
    beta_i in [0, pi] along its own direction, so the result is the
    branch whose part angles are all principal.
    """
    total = _log_sum(_as_mat(u).array, (0, 0, 0), tol)
    trace = abs(complex(np.trace(total)))
    if not trace <= tol.log_tol:
        raise FactorizationFailed("log trace %.3e after canonicalization" % trace)
    return _finite_mat(total)


def branch_log(u, branch: LogBranch, tol: Tolerances = DEFAULT_TOL) -> ComplexMat:
    """Non-principal log: adds 2 pi k_i turns along each part direction.

    A part with no recoverable direction (beta near 0) only admits the
    principal branch; asking for k != 0 there is refused.
    """
    if not isinstance(branch, LogBranch):
        branch = LogBranch(k=tuple(branch))
    return _finite_mat(_log_sum(_as_mat(u).array, branch.k, tol))
