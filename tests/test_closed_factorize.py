"""factorize's closed form: agreement with the eigen path, its fallbacks, its grades."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_boundary
from su3kit import factorlog, smallmat
from su3kit.errors import Su3KitError
from su3kit.factorlog import factorize
from su3kit.grades import split_HS
from su3kit.oracle import _haar_unitary, random_group
from su3kit.smallmat import _EPS
from su3kit.tolerances import DEFAULT_TOL

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))


def _unitary(phases, rng):
    """P diag(e^{i phases}) P^H, P Haar."""
    q = _haar_unitary(rng)
    return (q * np.exp(1j * np.asarray(phases, dtype=float))) @ q.conj().T


def _phases(family, rng):
    """Three phases summing to 0 from one of the families factorize must match or leave."""
    s = rng.choice((-1.0, 1.0))
    if family == "boundary":  # one part angle within 1e-3 of pi
        p1, p2 = s * (2.0 * math.pi - 2.0 * rng.uniform(1e-6, 1e-3)), -s * rng.uniform(0.3, 1.5)
    elif family == "cos-zero":  # an eigenvalue at -1: g0 = 0
        p1, p2 = s * math.pi, -s * rng.uniform(0.3, 1.5)
    elif family == "near-cos-zero":  # an eigenvalue 1e-8..1e-2 from -1
        p1, p2 = s * (math.pi + 10.0 ** rng.uniform(-8.0, -2.0)), -s * rng.uniform(0.3, 1.5)
    else:  # near-double: two phases 1e-12..1 apart
        p1 = rng.uniform(-2.5, 2.5)
        p2 = p1 + 10.0 ** rng.uniform(-12.0, 0.0)
    return [p1, p2, -p1 - p2]


def boundary_u(seed):
    """The boundary family's U of one seed: eigenvalues near 1 and e^{+-i r}, r 0.3 to 1.5."""
    rng = np.random.default_rng(seed)
    return _unitary(_phases("boundary", rng), rng)


def _outcome(f, *args):
    try:
        return f(*args)
    except Su3KitError as exc:
        return (exc.code, str(exc))


def _eigen_path(u):
    """The eigen path's (factors, units, parts, routes, grades) of u, factorize's fallback."""
    a, dev = factorlog._unitary_array(u, DEFAULT_TOL)
    factors, units, parts, routes, (t, e) = factorlog._factor_parts(a, dev, DEFAULT_TOL)
    return (factors, units, parts, routes,
            lambda: factorlog._unit_decomposition(a, t, e, units, parts))


def _closed_form(u):
    return factorlog._closed_form_factors(*factorlog._unitary_array(u, DEFAULT_TOL), DEFAULT_TOL)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["haar", "boundary", "cos-zero", "near-cos-zero", "near-double"]))
def test_agrees_with_the_eigen_path(seed, family):
    """The eigen path's routes, and factors within 16 eps max(1, ||U||), or its refusal."""
    rng = np.random.default_rng(seed)
    u = random_group(seed).mat.array if family == "haar" else _unitary(_phases(family, rng), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(factorize, u)
        want = _outcome(_eigen_path, u)
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return
    assert got.routes == tuple(want[3])
    bound = 16.0 * _EPS * max(1.0, np.linalg.norm(u))
    for f, w in zip(got.factors, want[0]):
        assert np.linalg.norm(f.array - w) <= bound


# g0 = (1 + Re tr U) / 4 at the near-cos-zero band's outer edge (factorlog._near_cos_zero)
_MARGIN = factorlog._CF_G0_MARGIN * _EPS / DEFAULT_TOL.fact_tol
_BAND_EDGES = [0.0] + [edge * (1.0 + side * 2.0**-20) for edge in (DEFAULT_TOL.g0_zero_tol, _MARGIN)
                       for side in (-1.0, 1.0)]


def _with_g0(g0, p, rng):
    """P diag(e^{i phases}) P^H, P Haar, phases (pi + d, p, -pi - d - p) with d solved for g0.

    (1 + Re tr U) / 4 = sin(d/2) (sin(d/2) + sin(d/2 + p)) / 2, whose
    slope at d = 0 is sin(p) / 2; Newton's steps from 0 find d.
    """
    d = 0.0
    for _ in range(8):
        h = 0.5 * d
        d -= (math.sin(h) * (math.sin(h) + math.sin(h + p)) / 2.0 - g0) / (
            (math.sin(d) + math.sin(d + p)) / 4.0)
    return _unitary([math.pi + d, p, -math.pi - d - p], rng)


def _unit_alignment(h, unit) -> float:
    """||H unit - tr(H unit) / 3||: zero when H is a real multiple of the involution along unit."""
    x = h @ unit
    return float(np.linalg.norm(x - np.trace(x) / 3.0 * np.eye(3)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edge=st.sampled_from(_BAND_EDGES),
       sign=st.sampled_from((-1.0, 1.0)), p=st.floats(0.3, 1.4))
def test_band_edges_agree_with_the_eigen_path(seed, edge, sign, p):
    """At g0 = 0 and on both sides of the near-cos-zero band's two edges, g0_zero_tol and
    the margin, 2^-20 relative from each: the eigen path's routes, the eigen route exactly
    in the band, factors within 16 eps max(1, ||U||), and split_HS's H_i along the units."""
    rng = np.random.default_rng(seed)
    u = _with_g0(sign * edge, rng.choice((-1.0, 1.0)) * p, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(factorize, u)
        want = _outcome(_eigen_path, u)
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return
    in_band = DEFAULT_TOL.g0_zero_tol < edge < _MARGIN
    assert (got.routes == ("eigen",) * 3) == in_band
    assert got.routes == tuple(want[3])
    bound = 16.0 * _EPS * max(1.0, np.linalg.norm(u))
    for f, w in zip(got.factors, want[0]):
        assert np.linalg.norm(f.array - w) <= bound
    for h, part in zip(split_HS(u).H, got.parts):
        if part.unit is not None:
            assert _unit_alignment(h.array, part.unit.array) <= bound


def test_refusal_table_gives_the_eigen_paths_refusals():
    """The 12 raw inputs of the refusal table: the same code and message, or both succeed."""
    for name, u in test_boundary.INPUTS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda x: factorize(x).routes, u)
            want = _outcome(lambda x: tuple(_eigen_path(x)[3]), u)
        assert got == want, name


def _factorization_bytes(fz):
    yield from (f.array.tobytes() for f in fz.factors)
    for p in fz.parts:
        yield p.mat.array.tobytes()
        yield np.array([p.beta, p.lam]).tobytes()
        yield b"-" if p.unit is None else p.unit.array.tobytes()
    yield " ".join(fz.routes).encode()
    g = fz.grades
    yield from (m.array.tobytes() for m in (g.g0, g.g2, g.g4, g.g6, g.ccosU, g.ssinU, *g.H, *g.S))


def _eigen_bytes(u):
    factors, units, parts, routes, grades_of = _eigen_path(u)
    yield from (f.tobytes() for f in factors)
    for unit, (beta, _) in zip(units, parts):
        directed = factorlog._directed(beta, DEFAULT_TOL)
        yield (unit * complex(beta)).tobytes() if directed else np.zeros((3, 3), complex).tobytes()
        yield np.array([beta, complex(-beta * beta)]).tobytes()
        yield unit.tobytes() if directed else b"-"
    yield " ".join(routes).encode()
    g = grades_of()
    yield from (m.array.tobytes() for m in (g.g0, g.g2, g.g4, g.g6, g.ccosU, g.ssinU, *g.H, *g.S))


def _fallback_inputs():
    rng = np.random.default_rng(12)
    out = [np.eye(3) * z for z in (1.0, _OMEGA, _OMEGA.conjugate())]
    for _ in range(10):
        a = rng.uniform(-math.pi, math.pi)
        out.append(_unitary([a, a, -2.0 * a], rng))  # an exact double
        out.append(_unitary([a, a + 1e-7, -2.0 * a - 1e-7], rng))  # near-degenerate
    return out


@pytest.mark.parametrize("u", _fallback_inputs())
def test_clustered_spectra_fall_back_bit_for_bit(u):
    """1, omega 1, exact doubles and near-degenerate U take the eigen path and give its bits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _closed_form(u) is None
        assert list(_factorization_bytes(factorize(u))) == list(_eigen_bytes(u))


def test_haar_u_run_no_eigensolver(monkeypatch):
    """factorize and its grades call no eigh where the closed form is taken: 99% of Haar U."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(smallmat.np.linalg, "eigh", lambda g: calls.append(1) or eigh(g))
    taken = 0
    for seed in range(200):
        g = random_group(seed)
        closed = _closed_form(g) is not None
        calls.clear()
        fz = factorize(g)
        fz.grades
        assert (calls == []) == closed
        taken += closed
    assert taken >= 196


def test_closed_form_grades():
    """The grades of a closed-form factorization: H sums to g4, S to g2, and both match split_HS.

    H_i is exactly Hermitian and S_i exactly skew, as split_HS's, and
    each is within 32 eps of split_HS's (13 eps at worst on 3000 Haar U).
    """
    for seed in range(100):
        g = random_group(seed)
        if _closed_form(g) is None:
            continue
        got, want = factorize(g).grades, split_HS(g)
        for x, y in zip((got.g0, got.g2, got.g4, got.g6, got.ccosU, got.ssinU),
                        (want.g0, want.g2, want.g4, want.g6, want.ccosU, want.ssinU)):
            assert x.array.tobytes() == y.array.tobytes()
        assert np.linalg.norm(sum(h.array for h in got.H) - got.g4.array) <= 16.0 * _EPS
        assert np.linalg.norm(sum(s.array for s in got.S) - got.g2.array) <= 16.0 * _EPS
        for x, y in zip((*got.H, *got.S), (*want.H, *want.S)):
            assert np.linalg.norm(x.array - y.array) <= 32.0 * _EPS
        for h, s in zip(got.H, got.S):
            assert np.array_equal(h.array, h.array.conj().T)
            assert np.array_equal(s.array, -s.array.conj().T)


def _near_minus_one(rng, n, lo, hi):
    """n unitaries with an eigenvalue 10^lo..10^hi (0 for lo None) in phase from -1."""
    out = []
    for _ in range(n):
        s, p = rng.choice((-1.0, 1.0)), rng.uniform(0.3, 1.5)
        d = 0.0 if lo is None else 10.0 ** rng.uniform(lo, hi)
        out.append(_unitary([s * (math.pi + d), -s * p, -s * (math.pi + d - p)], rng))
    return out


def test_share_per_family():
    """The closed form takes Haar U, boundary U, cos-zero U and the benchmark's
    near-cos-zero band (5e-8..5e-6 from -1), the last by the eigen route: of 1000
    cos-zero and 1000 near-cos-zero U it took about 97% each."""
    rng = np.random.default_rng(9)
    assert sum(_closed_form(random_group(s)) is not None for s in range(100)) >= 95
    assert all(_closed_form(_unitary(_phases("boundary", rng), rng)) is not None for _ in range(20))
    assert sum(_closed_form(u) is not None for u in _near_minus_one(rng, 20, None, None)) >= 18
    band = [_closed_form(u) for u in _near_minus_one(rng, 20, -7.3, -5.3)]
    assert sum(got is not None for got in band) >= 18
    assert all(got[3] == ["eigen"] * 3 for got in band if got is not None)


def test_cheap_declines(monkeypatch):
    """Near-double spectra decline from tr U, before the cubic, and a raw input's
    unitarity is checked once, whichever path runs."""
    cubic = factorlog._complex_cubic_roots
    solved = []
    monkeypatch.setattr(factorlog, "_complex_cubic_roots",
                        lambda *args: solved.append(1) or cubic(*args))
    checks = []
    check = factorlog._check_group
    monkeypatch.setattr(factorlog, "_check_group",
                        lambda *a, **k: checks.append(1) or check(*a, **k))
    rng = np.random.default_rng(10)
    cos_zero = _near_minus_one(rng, 10, None, None) + _near_minus_one(rng, 20, -12.0, -4.0)
    for us, cubics in ((cos_zero, [1]), (_fallback_inputs(), [])):
        for u in us:
            checks.clear()
            solved.clear()
            factorize(u)
            assert checks == [1] and solved == cubics

