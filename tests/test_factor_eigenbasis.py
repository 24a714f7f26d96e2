"""The factor cascade on U's eigenbasis against the matrix cascade it replaced.

``matrix_factorize`` below is the route cascade as it ran on 3x3
matrices, frozen as the specification: it builds every constituent
and candidate as a matrix, inverts with ``spec_inverse.inverse``, checks
each candidate with a 3x3 unitarity residual and recovers each factor
with ``principal_log_factor``.  Wherever it succeeds, ``factorize``
must take the same routes and return the same factors within 1e-12.
Where it fails, on the near-cos-zero band, the ``eigen`` route must
return a factorization and logs within the acceptance levels.  The
cascade no longer runs the candidate checks the spec runs, since on
U's spectrum every route is an Euler factor by construction, so the
spec also judges spectra that hypothesis draws, near -1 among them
(``test_drawn_spectra_match_matrix_cascade``).
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spec_inverse import inverse
from su3kit import factorlog, grades
from su3kit.errors import (
    AmbiguousDirection,
    FactorizationFailed,
    MissingDirection,
    NotSimpleFactor,
    NotUnitary,
    NumericalError,
    ZeroMatrix,
)
from su3kit.expmap import GroupElement, _unitarity_residual
from su3kit.factorlog import (
    LogBranch,
    branch_log,
    factorize,
    normalize,
    principal_log,
    principal_log_factor,
    rms_norm,
)
from su3kit.grades import split_HS
from su3kit.oracle import compare, exp_reference, random_algebra, random_group
from su3kit.smallmat import _EYE3, eigen_normal3
from su3kit.tolerances import DEFAULT_TOL

# -- the specification ----------------------------------------------------------


def _route_exprs(g0, g6, H, S, i, tol):
    j, k = [t for t in range(3) if t != i]

    def usable(name, m):
        if rms_norm(m) <= tol.g0_zero_tol:
            raise ZeroMatrix("%s input is effectively zero" % name)
        return m

    return {
        "simple": lambda: g0 + S[i],
        "inv_a": lambda: _EYE3 + usable("H", H[k]) @ inverse(usable("S", S[j])),
        "inv_b": lambda: _EYE3 + usable("H", H[j]) @ inverse(usable("S", S[k])),
        "inv2": lambda: _EYE3 + usable("g6", g6) @ inverse(usable("H", H[i])),
    }


def _factor_candidate(g0, g6, H, S, i, order, tol):
    exprs = _route_exprs(g0, g6, H, S, i, tol)
    ambiguous = None
    for name in order:
        try:
            cand = normalize(exprs[name](), tol).array
        except NumericalError:
            continue
        if not _unitarity_residual(cand) <= 100.0 * tol.fact_tol:
            continue
        try:
            principal_log_factor(cand, tol)
        except AmbiguousDirection as exc:
            ambiguous = exc
            continue
        except NumericalError:
            continue
        return cand, name, ambiguous
    return None, None, ambiguous


def matrix_factorize(a, tol=DEFAULT_TOL):
    """(factors, routes) of the matrix cascade; raises as it raised."""
    g = split_HS(a, tol)
    g0, g6, H, S = g.g0.array, g.g6.array, [m.array for m in g.H], [m.array for m in g.S]
    if rms_norm(g0) > tol.g0_zero_tol:
        order = ("simple", "inv_a", "inv_b", "inv2")
    else:
        order = ("inv_a", "inv_b", "inv2", "simple")
    factors, routes = [], []
    ambiguous = None
    for i in (0, 1):
        cand, name, amb = _factor_candidate(g0, g6, H, S, i, order, tol)
        ambiguous = ambiguous or amb
        if cand is None:
            raise ambiguous or FactorizationFailed("no route recovered factor %d" % (i + 1))
        factors.append(cand)
        routes.append(name)
    u3 = factors[0].conj().T @ factors[1].conj().T @ a
    try:
        principal_log_factor(u3, tol)
    except NotSimpleFactor as exc:
        raise FactorizationFailed("closing factor is not simple") from exc
    return factors + [u3], routes + ["closing"]


# -- inputs -----------------------------------------------------------------------


def _haar_basis(rng):
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _from_phases(phases, rng):
    """U = P diag(e^{i phases}) P^H in a Haar basis P drawn from rng."""
    p = _haar_basis(rng)
    return (p * np.exp(1j * np.asarray(phases, dtype=float))) @ p.conj().T


def _boundary(rng):
    # one part angle within 1e-3 of pi
    delta = rng.uniform(1e-6, 1e-3)
    s = rng.choice((-1.0, 1.0))
    p1, p2 = s * (2.0 * math.pi - 2.0 * delta), -s * rng.uniform(0.3, 1.5)
    return (p1, p2, -p1 - p2)


def _cos_zero(rng, offset=0.0):
    # one part angle pi/2 + offset: cos(beta_1), and with it g0, (nearly) vanish
    s = rng.choice((-1.0, 1.0))
    p1, p2 = s * (math.pi + 2.0 * offset), -s * rng.uniform(0.3, 1.5)
    return (p1, p2, -p1 - p2)


def _near_cos_zero(rng):
    off = 10.0 ** rng.uniform(math.log10(5e-8), math.log10(5e-6))
    return _cos_zero(rng, off * rng.choice((-1.0, 1.0)))


def _engineered_vanishing_g0(rng):
    # eigenphases (+-pi, phi, -+pi - phi) through the series exponential
    phi = rng.uniform(-2.0, 2.0)
    s = rng.choice((-1.0, 1.0))
    q = _haar_basis(rng)
    b = q @ np.diag(1j * np.array([s * math.pi, phi, -s * math.pi - phi])) @ q.conj().T
    return exp_reference((b - b.conj().T) / 2.0).array


def _family(name):
    rng = np.random.default_rng(["boundary", "cos_zero", "vanishing_g0"].index(name) + 40)
    for _ in range(50):
        if name == "vanishing_g0":
            yield _engineered_vanishing_g0(rng)
        else:
            yield _from_phases((_boundary if name == "boundary" else _cos_zero)(rng), rng)


def near_cos_zero_stream():
    """The 100 inputs of the benchmark's fixed near-cos-zero stream.

    perfbench's hard-regimes workload draws its near-cos-zero family
    from SeedSequence(3, spawn_key=(0,)), the phases and the basis of
    each input in turn; this reproduces that stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,)))
    return [_from_phases(_near_cos_zero(rng), rng) for _ in range(100)]


# -- tests ------------------------------------------------------------------------


def _same_as_spec(u):
    want, routes = matrix_factorize(u)
    fz = factorize(u)
    assert fz.routes == tuple(routes)
    for f, w in zip(fz.factors, want):
        assert np.linalg.norm(f.array - w) < 1e-12


@pytest.mark.parametrize("seed", range(200))
def test_haar_matches_matrix_cascade(seed):
    _same_as_spec(random_group(seed).mat.array)


@pytest.mark.parametrize("family", ["boundary", "cos_zero", "vanishing_g0"])
def test_hard_families_match_matrix_cascade(family):
    for u in _family(family):
        _same_as_spec(u)


def _drawn(band, a, b, offset, seed):
    """U of eigenphases drawn by hypothesis, in a Haar basis drawn from seed.

    "haar" takes the phases (a, b, -a - b).  The other two bands put
    the first phase offset from +-pi, an eigenvalue near -1 where a
    cos(beta_i), and with it g0, nearly vanishes: "near-cos-zero" as
    P diag(e^{i phases}) P^H, "vanishing-g0" through the series
    exponential, as ``_engineered_vanishing_g0``.
    """
    rng = np.random.default_rng(seed)
    if band == "haar":
        return _from_phases((a, b, -a - b), rng)
    p1 = math.copysign(math.pi + offset, a)
    if band == "near-cos-zero":
        return _from_phases((p1, b, -p1 - b), rng)
    q = _haar_basis(rng)
    x = q @ np.diag(1j * np.array([p1, b, -p1 - b])) @ q.conj().T
    return exp_reference((x - x.conj().T) / 2.0).array


def _from_minus_one(phase) -> float:
    return abs(math.remainder(phase - math.pi, 2.0 * math.pi))


@settings(max_examples=200, deadline=None)
@given(
    band=st.sampled_from(["haar", "near-cos-zero", "vanishing-g0"]),
    a=st.floats(min_value=-math.pi, max_value=math.pi),
    b=st.floats(min_value=0.1, max_value=math.pi - 0.1),
    side=st.sampled_from((-1.0, 1.0)),
    offset=st.one_of(st.just(0.0), st.floats(min_value=-16.0, max_value=-8.0).map(
        lambda x: 10.0**x)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_drawn_spectra_match_matrix_cascade(band, a, b, side, offset, seed):
    """Where the spec accepts, its routes and factors; where it refuses, a refusal or the eigen route.

    One phase at most is within 0.1 of +-pi, and that one within 1e-8.
    Between 1e-8 and about 0.1 the spec's own factors carry its
    cascade's error, up to about 2e-10 where the cosine nearly vanishes, which
    factorize's pinned phases remove, and rounding decides its route
    (``test_fixed_near_cos_zero_stream`` covers that band).
    """
    b *= side
    assume(band != "haar" or min(map(_from_minus_one, (a, b, -a - b))) >= 0.1)
    u = _drawn(band, a, b, offset, seed)
    try:
        matrix_factorize(u)
    except NumericalError:
        try:
            routes = factorize(u).routes
        except NumericalError:
            return
        assert routes == ("eigen",) * 3
        return
    _same_as_spec(u)


def _round_trips(u):
    fz = factorize(u)
    f1, f2, f3 = (f.array for f in fz.factors)
    assert compare(f1 @ f2 @ f3, u) <= 1e-10
    assert compare(exp_reference(principal_log(u)), u) <= 1e-9
    return fz


_WINDINGS = [k for k in itertools.product((-1, 0, 1), repeat=3) if k != (0, 0, 0)]


@settings(max_examples=40, deadline=None)
@given(
    exponent=st.floats(min_value=-8.0, max_value=-5.0),
    side=st.sampled_from((-1.0, 1.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_near_cos_zero_round_trips(exponent, side, seed):
    """Part angle pi/2 +- 10^exponent: factors multiply back, every log round-trips."""
    rng = np.random.default_rng(seed)
    u = _from_phases(_cos_zero(rng, side * 10.0 ** exponent), rng)
    _round_trips(u)
    for k in _WINDINGS:
        assert compare(exp_reference(branch_log(u, LogBranch(k))), u) <= 1e-9


def test_fixed_near_cos_zero_stream():
    """All 100 inputs of the formerly failing band return, by the cascade or the eigen route.

    The log's phases are U's own eigenphases, so it round-trips far
    inside the 1e-9 level even where the cascade's factors carry 1e-10
    errors.
    """
    routes = []
    for u in near_cos_zero_stream():
        fz = _round_trips(u)
        assert compare(exp_reference(principal_log(u)), u) <= 1e-13
        assert fz.routes in (("eigen",) * 3, ("simple", "simple", "closing"))
        routes.append(fz.routes[0])
        try:
            matrix_factorize(u)
        except FactorizationFailed:
            assert fz.routes == ("eigen",) * 3
    assert "eigen" in routes


def test_eigen_route_only_after_factorization_failed(monkeypatch):
    """AmbiguousDirection from the cascade is final: -1 never reaches the eigen route."""
    calls = []
    route = factorlog._least_norm_phases
    monkeypatch.setattr(factorlog, "_least_norm_phases", lambda *a: calls.append(1) or route(*a))
    with pytest.raises(AmbiguousDirection):
        factorize(-np.eye(3, dtype=complex))
    assert calls == []
    factorize(near_cos_zero_stream()[0])
    assert calls == [1]


def test_eigen_route_refuses_two_phases_at_pi():
    rng = np.random.default_rng(5)
    u = _from_phases([math.pi, -math.pi, 0.0], rng)
    with pytest.raises(FactorizationFailed):
        matrix_factorize(u)
    with pytest.raises(AmbiguousDirection, match="not unique"):
        factorize(u)


def test_eigen_route_failure_names_both_routes():
    """A unitary with det != 1 has no su(3) log: the message holds the cascade's notes and the miss."""
    u = np.exp(0.2j) * random_group(4).mat.array
    with pytest.raises(FactorizationFailed, match="; eigen route: factors miss u by") as info:
        factorize(u)
    assert not str(info.value).startswith(";")


def test_eigen_parts_are_the_invariant_decomposition():
    u = near_cos_zero_stream()[0]
    fz = factorize(u)
    assert fz.routes == ("eigen",) * 3
    total = sum(p.mat.array for p in fz.parts)
    assert compare(total, principal_log(u)) < 1e-12
    for p in fz.parts:
        assert np.linalg.norm(p.unit.array @ p.unit.array + np.eye(3)) < 1e-12


def _parts_selection(u):
    """(routes, theta, sum of parts, principal log) of u; the parts sum to P diag(i theta) P^H."""
    fz = factorize(u)
    total = sum(p.mat.array for p in fz.parts)
    p = eigen_normal3(u).vectors.array
    on_p = p.conj().T @ total @ p
    assert np.linalg.norm(on_p - np.diag(np.diag(on_p))) < 1e-12
    assert np.linalg.norm(np.diag(on_p).real) < 1e-12
    assert compare(exp_reference(total), u) < 1e-12
    return fz.routes, np.diag(on_p).imag, total, principal_log(u).array


def _vanishing_g0_fixture():
    doc = json.loads((Path(__file__).parent / "golden" / "factor-vanishing-g0.json").read_text())
    return np.array([[complex(*x) for x in row] for row in json.loads(doc["stdin"])["entries"]])


def test_parts_are_the_eigen_route_selection_or_the_pinned_phases():
    """The eigen route's parts sum to principal_log; the cascade's phases may sum to +-2 pi."""
    routes, theta, total, log = _parts_selection(near_cos_zero_stream()[0])
    assert routes == ("eigen",) * 3
    assert abs(theta.sum()) < 1e-12 and compare(total, log) < 1e-12
    routes, theta, total, log = _parts_selection(_vanishing_g0_fixture())
    assert routes == ("inv_b", "inv_b", "closing")
    assert abs(theta.sum()) < 1e-12 and compare(total, log) < 1e-12
    windings = []
    for seed in range(300):
        routes, theta, total, log = _parts_selection(random_group(seed).mat.array)
        assert "eigen" not in routes
        turns = theta.sum() / (2.0 * math.pi)
        assert abs(turns - round(turns)) < 1e-12 and abs(round(turns)) <= 1
        if round(turns) == 0:
            assert compare(total, log) < 1e-12
        else:
            windings.append(seed)
            assert compare(total, log) > 1.0
    assert windings == [61, 76, 138, 147, 179, 216, 240, 263]


@pytest.mark.parametrize("scale", [1e-6, 1e-10, 1e-12])
def test_near_identity(scale):
    """A factor whose sine is below sin_zero_tol keeps it: the factors still multiply back.

    Its part has no direction, so a winding along it is refused, and no
    log of these inputs fails at the log trace gate.
    """
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        u = _from_phases(scale * np.array([a, b, -a - b]), rng)
        fz = _round_trips(u)
        if any(p.unit is None for p in fz.parts):
            with pytest.raises(MissingDirection):
                branch_log(u, LogBranch(tuple(int(p.unit is None) for p in fz.parts)))


def test_center_element_keeps_a_log():
    """omega 1 has a continuum of least-norm logs; the log path picks one, as before."""
    u = np.exp(2j * math.pi / 3) * np.eye(3)
    assert compare(exp_reference(principal_log(u)), u) <= 1e-13


def test_tiny_logs_pass_the_trace_gate():
    """Logs of exp(B), ||B|| about 1e-9, pass the log trace gate and the normal kernel."""
    rng = np.random.default_rng(3)
    for seed in range(200):
        b = random_algebra(seed).mat.array
        b = b / np.linalg.norm(b) * 10.0 ** rng.uniform(-9.5, -8.5)
        principal_log(GroupElement(exp_reference(b)))


_EPS = float(np.finfo(np.float64).eps)


def _round_trip_constant(seed, norm):
    """C in ||principal_log(exp(B)) - B|| / ||B|| = C eps max(1, 1 / ||B||).

    B is random_algebra(seed) scaled to norm.  eps / ||B|| is the
    conditioning limit of the log of a unitary near the identity.
    """
    b = random_algebra(seed).mat.array
    b = b * (norm / np.linalg.norm(b))
    log = principal_log(exp_reference(b)).array
    return np.linalg.norm(log - b) / norm / (_EPS * max(1.0, 1.0 / norm))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exponent=st.floats(min_value=-12.0, max_value=math.log10(math.pi)),
)
def test_log_round_trip_at_every_norm(seed, exponent):
    """exp then the principal log gives B back to 8 eps, relative above norm 1."""
    assert _round_trip_constant(seed, 10.0**exponent) <= 8.0


@pytest.mark.parametrize(
    "seed, exponent",
    [
        (413, -6.5),  # shrunk counterexample under the cubic + adjugate seed: C = 97
        (23, math.log10(math.pi)),  # worst of seeds 0..199 at norm pi under that seed: C = 86
        (5, -9.0),  # EigenFailure under that seed
    ],
)
def test_log_round_trip_pinned(seed, exponent):
    assert _round_trip_constant(seed, 10.0**exponent) <= 8.0


# -- the logs read U's eigenvalues only -------------------------------------------


def test_logs_never_run_the_factorization(monkeypatch):
    """principal_log and branch_log return without the cascade, its pinning or the grades."""

    def refuse(*args):
        raise AssertionError("a log ran the factorization")

    for name in ("_factor_parts", "_cascade", "_pinned", "_eigen_spectrum"):
        monkeypatch.setattr(factorlog, name, refuse)
    monkeypatch.setattr(grades, "_grades", refuse)
    us = [random_group(seed).mat.array for seed in range(20)] + near_cos_zero_stream()[:10]
    us += [u for name in ("boundary", "cos_zero", "vanishing_g0")
           for u in itertools.islice(_family(name), 10)]
    for u in us:
        assert compare(exp_reference(principal_log(u)), u) <= 1e-13
        assert compare(exp_reference(branch_log(u, LogBranch((1, 0, -1)))), u) <= 1e-13


def _double_near_minus_one(eps, rng):
    """An exact double eigenvalue e^{i(pi - eps)} and e^{2 i eps} in a Haar basis."""
    return _from_phases([math.pi - eps, math.pi - eps, 2.0 * eps], rng)


@pytest.mark.parametrize("eps", [1e-8, 10.0**-3.5, 1e-3])
def test_double_eigenvalue_near_minus_one_has_a_log(eps):
    """Every basis gets a log and a factorization, round-tripping to 1e-13.

    The cascade's refusals here depended on the basis: at 10^-3.5 it
    refused almost every one, at 1e-3 a few, at 1e-8 all of them.
    """
    rng = np.random.default_rng(61)
    for _ in range(20):
        u = _double_near_minus_one(eps, rng)
        f1, f2, f3 = (f.array for f in factorize(u).factors)
        assert compare(f1 @ f2 @ f3, u) <= 1e-13
        assert compare(exp_reference(principal_log(u)), u) <= 1e-13
        for k in _WINDINGS:
            assert compare(exp_reference(branch_log(u, LogBranch(k))), u) <= 1e-13


@pytest.mark.parametrize("eps", [10.0**-9.5, 1e-12, 0.0])
def test_double_eigenvalue_at_minus_one_is_ambiguous(eps):
    """Within sin_zero_tol of -1 every basis is refused, by both logs and factorize."""
    rng = np.random.default_rng(62)
    for _ in range(20):
        u = _double_near_minus_one(eps, rng)
        for op in (principal_log, lambda u: branch_log(u, LogBranch((0, 1, 0))), factorize):
            with pytest.raises(AmbiguousDirection):
                op(u)


def test_log_refuses_det_other_than_one():
    """det u = e^{i phi}: the traceless log misses u by sqrt(3)/2 phi, held to fact_tol."""
    for seed in range(10):
        u = random_group(seed).mat.array
        for op in (principal_log, lambda u: branch_log(u, LogBranch((1, 0, 0)))):
            op(np.exp(1e-10j / 3.0) * u)
            with pytest.raises(FactorizationFailed, match="det u is not 1"):
                op(np.exp(1e-9j / 3.0) * u)


@pytest.mark.parametrize("exponent", [-11.0 + 0.25 * i for i in range(11)])
def test_factorize_and_logs_accept_the_same_det(exponent):
    """det u = e^{i phi}: factorize succeeds exactly where principal_log does.

    Before the two shared one det rule, the cascade's closing factor
    absorbed a det error the logs refuse, at phi = 10^-9.5 and 10^-9.75.
    """
    for seed in range(20):
        u = np.exp(1j * 10.0**exponent / 3.0) * random_group(seed).mat.array
        accepted = []
        for op in (principal_log, factorize):
            try:
                op(u)
                accepted.append(True)
            except FactorizationFailed:
                accepted.append(False)
        assert accepted[0] == accepted[1]


# -- eigenphases at the branch cut ------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    delta=st.floats(min_value=0.0, max_value=1e-12),
    phi=st.floats(min_value=0.1, max_value=math.pi - 0.1),
    side=st.sampled_from((-1.0, 1.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.sampled_from(_WINDINGS),
)
def test_eigenphases_within_1e_12_of_pi(delta, phi, side, seed, k):
    """Eigenphases (pi - delta, phi, -pi + delta - phi) in a Haar basis.

    Where the matrix cascade succeeds, factorize takes its routes and
    its factors within 1e-12: the cascade's angles, which ``_pinned``
    keeps, pick the side of the phase at pi (U's principal phases would
    flip two factors).  The factors multiply back and both logs
    round-trip.
    """
    phi *= side
    u = _from_phases([math.pi - delta, phi, -math.pi + delta - phi], np.random.default_rng(seed))
    fz = factorize(u)
    try:
        want, routes = matrix_factorize(u)
    except NumericalError:
        pass
    else:
        assert fz.routes == tuple(routes)
        for f, w in zip(fz.factors, want):
            assert np.linalg.norm(f.array - w) < 1e-12
    f1, f2, f3 = (f.array for f in fz.factors)
    assert compare(f1 @ f2 @ f3, u) <= 1e-10
    assert compare(exp_reference(principal_log(u)), u) <= 1e-9
    assert compare(exp_reference(branch_log(u, LogBranch(k))), u) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(
    delta=st.floats(min_value=1e-12, max_value=1e-3),
    side=st.sampled_from((-1.0, 1.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_det_near_minus_one_refused(delta, side, seed):
    """Raw e^{i phi/3} V, V Haar SU(3), det e^{i phi} within 1e-12..1e-3 of -1.

    No traceless log reaches such a U, so factorize and principal_log
    refuse it as a numerical failure of the two kinds that say so, and
    GroupElement refuses it as not special.  2000 examples found no
    counterexample.
    """
    u = np.exp(1j * (math.pi + side * delta) / 3.0) * random_group(seed).mat.array
    for op in (factorize, principal_log):
        with pytest.raises((FactorizationFailed, AmbiguousDirection)):
            op(u)
    with pytest.raises(NotUnitary):
        GroupElement(u)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_all_27_nearby_branches(seed):
    """branch_log(U, k) for every k in {-1, 0, 1}^3 round-trips or has no direction.

    2000 seeded Haar U found no counterexample; the worst round trip
    was 1.2e-14.
    """
    u = random_group(seed)
    for k in itertools.product((-1, 0, 1), repeat=3):
        try:
            log = branch_log(u, LogBranch(k))
        except MissingDirection:
            continue
        assert compare(exp_reference(log), u) <= 1e-9


# -- the grades are output only ---------------------------------------------------


def _grade_bytes(g):
    mats = (g.g0, g.g2, g.g4, g.g6, g.ccosU, g.ssinU, *g.H, *g.S)
    return b"".join(m.array.tobytes() for m in mats)


def test_grades_built_only_on_request(monkeypatch):
    """factorize returns without the grade decomposition or a grade array.

    Reading .grades of an eigen-path factorization gives split_HS's
    bytes; the closed form's grades are checked against split_HS in
    test_closed_factorize.
    """

    def refuse(*args):
        raise AssertionError("factorize built the grades")

    for module in (factorlog, grades):
        monkeypatch.setattr(module, "_decomposition", refuse)
    monkeypatch.setattr(grades, "_grades", refuse)
    haar = [random_group(seed).mat.array for seed in range(10)]
    eigen = near_cos_zero_stream()[:10] + list(itertools.islice(_family("vanishing_g0"), 10))
    fzs = [factorize(u) for u in haar + eigen]
    assert ("eigen",) * 3 in [fz.routes for fz in fzs]
    monkeypatch.undo()
    for u, fz in zip(eigen, fzs[len(haar):]):
        assert _grade_bytes(fz.grades) == _grade_bytes(split_HS(u))
    for fz in fzs:
        assert fz.grades is fz.grades
