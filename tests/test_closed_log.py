"""The logs' closed forms: agreement with the eigen path, their shares, their fallbacks."""

import cmath
import itertools
import math
import os
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_closed_factorize import boundary_u

from su3kit import factorlog
from su3kit.errors import AmbiguousDirection, Su3KitError
from su3kit.expmap import GroupElement
from su3kit.factorlog import _complex_cubic_roots, branch_log, principal_log
from su3kit.oracle import _haar_unitary, random_group
from su3kit.smallmat import _EPS
from su3kit.tolerances import DEFAULT_TOL

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import gen  # noqa: E402  (numpy only: the benchmark's hard families)

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))


def _group(phases, rng):
    """GroupElement P diag(e^{i phases}) P^H, P Haar."""
    q = _haar_unitary(rng)
    return GroupElement((q * np.exp(1j * np.asarray(phases, dtype=float))) @ q.conj().T)


def _phases(family, rng):
    """Three phases summing to 0 from one of the families the closed form must match or leave."""
    if family == "generic":
        a, b = rng.uniform(-math.pi, math.pi, 2)
        return [a, b, -a - b]
    if family == "near-double":
        a, gap = rng.uniform(-2.5, 2.5), 10.0 ** rng.uniform(-12.0, -2.0)
        return [a, a + gap, -2.0 * a - gap]
    if family == "near-cut":  # a pair on both sides of -1
        d1, d2 = 10.0 ** rng.uniform(-12.0, -1.0, 2)
        return [math.pi - d1, -math.pi + d2, d1 - d2]
    x = rng.standard_normal(3)  # near the identity
    return list(10.0 ** rng.uniform(-12.0, -2.0) * (x - x.mean()))


def _eigen_log(g):
    """The eigen path's principal log of a GroupElement: what principal_log falls back to."""
    return factorlog._log_sum(g.mat.array, g._dev, (0, 0, 0), DEFAULT_TOL)


def _outcome(f, g):
    try:
        return f(g)
    except Su3KitError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["haar", "generic", "near-double", "near-cut", "near-identity"]))
def test_agrees_with_the_eigen_path(seed, family):
    """Within 16 eps max(1, ||L||) of the eigen path, or the same refusal."""
    rng = np.random.default_rng(seed)
    g = random_group(seed) if family == "haar" else _group(_phases(family, rng), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda x: principal_log(x).array, g)
        want = _outcome(_eigen_log, g)
    if isinstance(want, str):
        assert got == want
        return
    assert np.linalg.norm(got - want) <= 16.0 * _EPS * max(1.0, np.linalg.norm(want))


def test_most_haar_u_skip_the_eigensolver(monkeypatch):
    """At least 90% of seeded Haar U never reach the normal kernel."""
    calls = []
    kernel = factorlog._eigen_normal3

    def spy(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(factorlog, "_eigen_normal3", spy)
    for seed in range(200):
        principal_log(random_group(seed))
    assert len(calls) <= 20


# a pair of eigenvalues on both sides of -1 and a third at 1, and neighbours:
# the phases of the pair are nearly 2 pi apart, their eigenvalues about 1 apart
_STRADDLING = [(2.6, -2.6, 0.0), (2.5, -2.6, 0.1), (2.7, -2.6, -0.1), (2.6, -2.5, -0.1),
               (2.8, -2.8, 0.0), (2.4, -2.4, 0.0)]


@pytest.mark.parametrize("phases", _STRADDLING)
def test_straddling_pair_takes_the_closed_form(phases):
    """A pair across the cut takes the closed form, within 16 eps max(1, ||L||) of the eigen path."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = _group(phases, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = factorlog._closed_form_log(g.mat.array, g._dev, DEFAULT_TOL)
            want = _eigen_log(g)
        assert got is not None
        assert np.linalg.norm(got - want) <= 16.0 * _EPS * max(1.0, np.linalg.norm(want))


def _fallback_inputs():
    rng = np.random.default_rng(11)
    scalars = [GroupElement(np.eye(3) * z) for z in (1.0, _OMEGA, _OMEGA.conjugate())]
    doubles = []
    for _ in range(10):
        a = rng.uniform(-math.pi, math.pi)
        doubles.append(_group([a, a, -2.0 * a], rng))
        doubles.append(_group([a, a + 1e-9, -2.0 * a - 1e-9], rng))
    return scalars + doubles


@pytest.mark.parametrize("g", _fallback_inputs())
def test_clustered_spectra_fall_back_bit_for_bit(g):
    """1, omega 1 and (near-)doubles go to the eigen path and give its bits, with no exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factorlog._closed_form_log(g.mat.array, g._dev, DEFAULT_TOL) is None
        got = _outcome(lambda x: principal_log(x).array.tobytes(), g)
        assert got == _outcome(lambda x: _eigen_log(x).tobytes(), g)


_WINDINGS = list(itertools.product((-1, 0, 1), repeat=3))


def _eigen_branch(g, k):
    """The eigen path's branch log of a GroupElement: what branch_log falls back to."""
    return factorlog._log_sum(g.mat.array, g._dev, k, DEFAULT_TOL)


def _branch_condition(log) -> float:
    """max(1, ||L||, max |t_i - t_j| / |e^{i t_i} - e^{i t_j}|) over the eigenvalues i t of a log L.

    An eps in U moves L = sum i t_j P_j by up to about this times eps
    (the divided differences of the log, Daleckii and Krein), whichever
    method computes it, and each turned phase carries eps |t_j| itself.
    """
    t = np.linalg.eigvals(log).imag
    e = np.exp(1j * t)
    return max([1.0, np.linalg.norm(log)]
               + [abs(t[i] - t[j]) / abs(e[i] - e[j]) for i, j in ((0, 1), (0, 2), (1, 2))])


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from(_WINDINGS),
       family=st.sampled_from(["haar", "generic", "near-double", "near-cut", "near-identity"]))
def test_branch_log_agrees_with_the_eigen_path(seed, k, family):
    """The closed form within 8 eps max(1, ||L||) of the eigen path; declined, the eigen path's bits.

    Off the Haar draws max(1, ||L||) becomes the branch log's condition
    (``_branch_condition``): the generic family's clusters and pairs
    straddling -1 move either path's log by more than eps ||L||.  At
    k = 0 branch_log gives principal_log's bits instead.
    """
    rng = np.random.default_rng(seed)
    g = random_group(seed) if family == "haar" else _group(_phases(family, rng), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = factorlog._closed_form_branch(g.mat.array, g._dev, k, DEFAULT_TOL)
        got = _outcome(lambda x: branch_log(x, k).array.tobytes(), g)
        want = _outcome(lambda x: _eigen_branch(x, k), g)
        plain = _outcome(lambda x: principal_log(x).array.tobytes(), g)
    if not any(k):
        assert got == plain
    elif closed is None:
        assert got == (want if isinstance(want, str) else want.tobytes())
    else:
        assert got == closed.tobytes()
    if closed is None:
        return
    scale = max(1.0, np.linalg.norm(want)) if family == "haar" else _branch_condition(want)
    assert np.linalg.norm(closed - want) <= 8.0 * _EPS * scale


def _g0_zero(rng):
    return _group([math.pi, 1.3, -math.pi - 1.3], rng)  # cos-zero: an eigenvalue at -1


def _near_double(rng):
    return _group([1.0, 1.0 + 1e-3, -2.0 - 1e-3], rng)


def _small_phase(d):
    # the eigenvalue e^{i d} is second in the kernel's order, so k_1 turns its part
    return lambda rng: _group([1.0, d, -1.0 - d], rng)


# (input, winding, the gate that declines); past each gate the eigen path gives the outcome
_DECLINES = {
    "g0 order gate": (_g0_zero, (1, 0, -1),
                      lambda a: not factorlog._g0_orders(np.trace(a), DEFAULT_TOL)),
    "root gap": (_near_double, (1, 0, -1), lambda a: factorlog._cubic_eigenvalues(
        a, 0.0, DEFAULT_TOL) is None),
    "direction margin, no direction": (_small_phase(1.5e-9), (0, 1, 0), None),
    "direction margin, within twice sin_zero_tol": (_small_phase(3e-9), (0, 1, 0), None),
    "winding miss": (lambda rng: random_group(3), (10**5, 0, 0), None),
    "reconstruction gate": (lambda rng: random_group(3), (1, 0, -1), None),  # at a miss of 0
}


@pytest.mark.parametrize("case", _DECLINES)
def test_branch_log_declines_to_the_eigen_path(case, monkeypatch):
    """Each gate of the closed branch log leaves U to the eigen path, which gives its bits or error."""
    make, k, gate = _DECLINES[case]
    if case == "reconstruction gate":
        monkeypatch.setattr(factorlog, "_CF_BRANCH_MISS", 0.0)
    g = make(np.random.default_rng(5))
    a = g.mat.array
    assert gate is None or gate(a)
    assert factorlog._g0_orders(np.trace(a), DEFAULT_TOL) or case == "g0 order gate"
    calls = []
    kernel = factorlog._eigen_normal3
    monkeypatch.setattr(factorlog, "_eigen_normal3", lambda *args: calls.append(1) or kernel(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factorlog._closed_form_branch(a, g._dev, k, DEFAULT_TOL) is None
        got = _outcome(lambda x: branch_log(x, k).array.tobytes(), g)
        want = _outcome(lambda x: _eigen_branch(x, k).tobytes(), g)
    assert got == want and len(calls) == 2
    if case.startswith("direction margin, no"):
        assert got.startswith("MissingDirection")
    if case == "winding miss":
        assert got.startswith("FactorizationFailed")


def test_branch_log_skips_the_eigensolver_on_haar_u(monkeypatch):
    """At most 2 of 200 seeded Haar U, each with its own winding, reach the normal kernel."""
    calls = []
    kernel = factorlog._eigen_normal3
    monkeypatch.setattr(factorlog, "_eigen_normal3", lambda *args: calls.append(1) or kernel(*args))
    for seed in range(200):
        branch_log(random_group(seed), _WINDINGS[seed % 27])
    assert len(calls) <= 2


def test_branch_log_takes_the_closed_form_on_boundary_u():
    """At least 396 of 400 boundary U, each with its own winding, pass the rebuild gate:
    the roots of the shifted cubic carry a few eps there (tests/test_digits.py)."""
    taken = 0
    for seed in range(400):
        g = GroupElement(boundary_u(seed))
        taken += factorlog._closed_form_branch(g.mat.array, g._dev, _WINDINGS[seed % 27],
                                               DEFAULT_TOL) is not None
    assert taken >= 396


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cubic_roots(seed):
    """Cardano's roots are those of the cubic, to rounding for well-separated unit roots."""
    rng = np.random.default_rng(seed)
    z = np.exp(1j * rng.uniform(-math.pi, math.pi, 3))
    x = z - z.mean()
    s, d = x[0] * x[1] + x[0] * x[2] + x[1] * x[2], x.prod()
    roots = _complex_cubic_roots(complex(s), complex(d))
    gap = min(abs(z[0] - z[1]), abs(z[0] - z[2]), abs(z[1] - z[2]))
    for r in roots:
        assert min(abs(r - x)) <= 1e-13 / gap**2


def test_cubic_triple_root():
    """s = d = 0 gives 0 with no division; rounded coefficients split it by about eps^(1/3)."""
    assert _complex_cubic_roots(0.0, 0.0) == [0.0, 0.0, 0.0]
    for c in (_OMEGA, 0.3 - 2j):
        # s and d of the size rounding leaves in a cubic whose roots are of size |c|
        for s, d in ((_EPS * c * c, _EPS * c**3), (-_EPS * c * c, 1j * _EPS * c**3)):
            for r in _complex_cubic_roots(s, d):
                assert abs(r) <= 1e-4 * abs(c)


def test_near_doubles_decline_before_the_cubic(monkeypatch):
    """A near-double spectrum is declined from tr U alone: the gaps' product is below 0.1^3."""
    monkeypatch.setattr(factorlog, "_complex_cubic_roots",
                        lambda *args: pytest.fail("the cubic ran"))
    rng = np.random.default_rng(13)
    for _ in range(20):
        a, gap = rng.uniform(-2.5, 2.5), 10.0 ** rng.uniform(-12.0, -5.0)
        g = _group([a, a + gap, -2.0 * a - gap], rng)
        assert factorlog._closed_form_log(g.mat.array, g._dev, DEFAULT_TOL) is None


def _unit_triple(kind, rng):
    """Three unit eigenvalues: uniform phases, an exact double, a pair near -1, or omega 1."""
    if kind == "uniform":
        return np.exp(1j * rng.uniform(-math.pi, math.pi, 3)).tolist()
    if kind == "double":
        a = rng.uniform(-math.pi, math.pi)
        z = cmath.exp(1j * a)
        zs = [z, z, cmath.exp(-2j * a)]
        return [zs[i] for i in rng.permutation(3)]
    if kind == "near-pi":
        d = 10.0 ** rng.uniform(-14.0, -1.0, 2) * rng.choice((-1.0, 1.0), 2)
        ph = [math.pi - d[0], -math.pi + d[1], rng.uniform(-math.pi, math.pi)]
        return [cmath.exp(1j * ph[i]) for i in rng.permutation(3)]
    return [_OMEGA if kind == "omega" else _OMEGA.conjugate()] * 3


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform", "double", "near-pi", "omega", "omega-bar"]))
def test_least_norm_phases_is_the_least_norm_selection(seed, kind):
    """The selection's sum is the nearest 0 of all 27 shifts k in {-1, 0, 1}^3, its norm the least.

    The norm is judged against the 27-shift minimum at 40 digits, to
    8 eps ||theta||^2.  At an exact tie, two bitwise-equal eigenvalues,
    the first of the equal largest phases moves down, or the last of
    the equal smallest up.
    """
    z = _unit_triple(kind, np.random.default_rng(seed))
    try:
        theta = factorlog._least_norm_phases(z, DEFAULT_TOL)
    except AmbiguousDirection:
        assert sum(abs(v + 1.0) <= DEFAULT_TOL.sin_zero_tol for v in z) >= 2
        return
    phi = [cmath.phase(v) for v in z]
    k = [round((t - f) / (2.0 * math.pi)) for t, f in zip(theta, phi)]
    assert all(abs(n) <= 1 for n in k)
    with mpmath.workdps(40):
        shifts = list(itertools.product((-1, 0, 1), repeat=3))

        def total(ks):
            return abs(mpmath.fsum(mpmath.mpf(f) + 2 * mpmath.pi * n for f, n in zip(phi, ks)))

        def norm2(ks):
            return mpmath.fsum((mpmath.mpf(f) + 2 * mpmath.pi * n) ** 2 for f, n in zip(phi, ks))

        nearest = min(total(ks) for ks in shifts)
        assert total(k) <= nearest + 1e-30
        best = min(norm2(ks) for ks in shifts if total(ks) <= nearest + 1e-30)
        got = math.fsum(t * t for t in theta)
        assert abs(got - best) <= 8.0 * _EPS * got
    moved = [i for i, n in enumerate(k) if n]
    if moved:
        (i,) = moved
        ties = [j for j, v in enumerate(z) if v == z[i]]
        if len(ties) > 1:
            assert i == (ties[0] if k[i] < 0 else ties[-1])


def test_centre_elements_take_the_tie_rule():
    """omega 1 moves the first of its equal phases down by 2 pi, omega-bar 1 the last one up.

    Their phases +-2 pi / 3 sum to +-2 pi, and every single move is a
    least-norm selection; a search by the selections' norm sums would
    pick one by the rounding of those sums.
    """
    f = cmath.phase(_OMEGA)
    assert factorlog._least_norm_phases([_OMEGA] * 3, DEFAULT_TOL) == [f - 2.0 * math.pi, f, f]
    assert factorlog._least_norm_phases([_OMEGA.conjugate()] * 3, DEFAULT_TOL) == [
        -f, -f, 2.0 * math.pi - f]
    third = 2.0 * math.pi / 3.0
    for z, phases in ((_OMEGA, [-2.0 * third, third, third]),
                      (_OMEGA.conjugate(), [-third, -third, 2.0 * third])):
        log = principal_log(np.eye(3) * z).array
        np.testing.assert_allclose(log, np.diag(phases) * 1j, atol=1e-14)


def _branch_zero_inputs():
    us = [random_group(seed).mat.array for seed in range(200)]
    for name, phases in gen.HARD_FAMILIES:
        rng = np.random.default_rng(["near_degenerate", "boundary", "cos_zero",
                                     "near_cos_zero"].index(name) + 60)
        us += [gen.from_phases(phases(rng), rng)[1] for _ in range(100)]
    return us


def test_branch_log_at_zero_is_principal_log():
    """branch_log(u, (0, 0, 0)) gives principal_log's bytes, or its error, on Haar and hard U."""
    for u in _branch_zero_inputs():
        want = _outcome(lambda x: principal_log(x).array.tobytes(), u)
        assert _outcome(lambda x: branch_log(x, (0, 0, 0)).array.tobytes(), u) == want
