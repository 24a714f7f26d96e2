"""Boundary checks of raw input: refusal order, the Frobenius norm they measure, and the
library's contract on finite inputs of every scale, NaN and +-inf."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit.errors import NonFiniteEntries, Overflow, Su3KitError
from su3kit.expmap import (GroupElement, exp_simple, exp_su3, family_element,
                           invariant_combination)
from su3kit.factorlog import (LogBranch, branch_log, factorize, normalize, principal_log,
                              principal_log_factor, rms_norm)
from su3kit.bench import run_bench
from su3kit.gellmann import (equilibrium_point, exp_gellmann, exp_gellmann8, lam,
                             reconstruct_lambda, rho)
from su3kit.grades import ccos_ssin, grade0, grade2, grade4, grade6, split_HS
from su3kit.invdec import (AlgebraElement, decompose_closed_form, decompose_nxn,
                           decompose_via_eigen, lambda_roots)
from su3kit.oracle import compare, exp_reference, log_reference, random_algebra, random_group
from su3kit.smallmat import ComplexMat, _fro, eigen_general, eigen_normal3, scalar_residual

_B = np.array([[0.3j, 1 + 0.5j, -0.2 + 0.1j], [-1 + 0.5j, -0.1j, 0.4 - 0.7j],
               [0.2 + 0.1j, -0.4 - 0.7j, -0.2j]])


def _with(a, idx, value):
    a = np.array(a, dtype=complex)
    a[idx] = value
    return a


INPUTS = {
    "non-square": np.ones((2, 3)),
    "1x1": [[1.0]],
    "9x9": np.eye(9),
    "4x4 NaN": _with(np.eye(4), (1, 2), np.nan),
    "3x3 NaN": _with(_B, (0, 1), np.nan),
    "3x3 inf": _with(_B, (2, 0), complex(0, np.inf)),
    "3x3 5e153": 5e153 * _B,
    "3x3 1e200": 1e200 * _B,
    "Hermitian": 1j * _B,
    "traced skew": _B + 0.5j * np.eye(3),
    "non-unitary": np.diag([2.0, 0.5, 1.0]),
    "det -1 unitary": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
}

OPS = {
    "exp_su3": exp_su3,
    "AlgebraElement": AlgebraElement,
    "GroupElement": GroupElement,
    "lambda_roots": lambda_roots,
    "principal_log": principal_log,
    "factorize": factorize,
    "eigen_normal3": eigen_normal3,
}

# (code, message) of each refusal, None where the input is accepted, in
# the order of OPS: exp_su3, AlgebraElement, GroupElement, lambda_roots,
# principal_log, factorize, eigen_normal3; recorded before the boundary
# checks proved finiteness from their own norms
_SHAPE = ("dimension_mismatch", "expected a square matrix, got shape (2, 3)")
_FINITE = ("non_finite_entries", "matrix entries must be finite")
_OVERFLOW = ("overflow", "matrix norm inf is too large: its square overflows")
_HERMITIAN = ("invalid_algebra_element",
              "Hermitian residual 4.020e+00 exceeds alg_tol, matrix is not skew-Hermitian")


def _trace(t):
    return ("invalid_algebra_element", f"trace {t} is not zero within alg_tol")


def _unitary(dev):
    return ("not_unitary", f"unitarity residual {dev} exceeds grp_tol")


def _algebra_group(alg, grp, eig):
    """Outcomes where the su(3) entries give alg, the unitary ones grp, eigen_normal3 eig."""
    return [alg, alg, grp, alg, grp, grp, eig]


EXPECTED = {
    "non-square": 7 * [_SHAPE],
    "1x1": 7 * [("dimension_mismatch", "dimension must be in [2, 8], got 1")],
    "9x9": 7 * [("dimension_mismatch", "dimension must be in [2, 8], got 9")],
    "4x4 NaN": 7 * [_FINITE],
    "3x3 NaN": 7 * [_FINITE],
    "3x3 inf": 7 * [_FINITE],
    "3x3 5e153": _algebra_group(None, _unitary("inf"), None),
    "3x3 1e200": _algebra_group(_OVERFLOW, _unitary("nan"), _OVERFLOW),
    "Hermitian": _algebra_group(_HERMITIAN, _unitary("1.755e+00"), None),
    "traced skew": _algebra_group(_trace("0.000e+00+1.500e+00j"), _unitary("2.920e+00"), None),
    "non-unitary": _algebra_group(_trace("3.500e+00+0.000e+00j"), _unitary("3.092e+00"), None),
    "det -1 unitary": [
        _trace("1.000e+00+0.000e+00j"),
        _trace("1.000e+00+0.000e+00j"),
        ("not_unitary", "determinant is off 1 by 2.000e+00, matrix is not special"),
        _trace("1.000e+00+0.000e+00j"),
        ("factorization_failed", "det u is not 1: the log's factors miss u by 2.721e+00"),
        ("factorization_failed", "closing factor is not simple: Hermitian half is not scalar"
                                 " (residual 1.633e+00); eigen route: factors miss u by 2.721e+00"),
        None,
    ],
}

@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name", INPUTS)
def test_refusal_order(name, op):
    """Each raw input gets the same code and message from every entry, with no warning.

    Shape comes first, then finiteness, then the entry's own check
    (Overflow, InvalidAlgebraElement, NotUnitary), however the check
    itself proves the entries finite.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            OPS[op](INPUTS[name])
            got = None
        except Su3KitError as exc:
            got = (exc.code, str(exc))
    assert got == EXPECTED[name][list(OPS).index(op)]


def _layout(a, layout):
    """a itself, its transpose, or a view of it with a stride of two along its last axis."""
    if layout == "transposed":
        return a.T
    if layout == "strided":
        return np.repeat(a, 2, axis=-1)[..., ::2]
    return a


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shape=st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(1, 8), st.integers(1, 8))),
    complex_=st.booleans(),
    layout=st.sampled_from(("C", "transposed", "strided")),
    exponent=st.floats(min_value=-300.0, max_value=300.0),
    errstate=st.sampled_from(("warn", "ignore")),
)
def test_fro_is_numpy_norm_bit_for_bit(seed, shape, complex_, layout, exponent, errstate):
    """_fro gives np.linalg.norm's bits and warnings on any float or complex array.

    Entries spread over six decades around 10^exponent, so the sums
    also underflow, and from about 1e154 up overflow to inf; both run
    under the same errstate, which decides whether that overflow warns.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** (exponent + rng.uniform(-3.0, 3.0, shape))
    if complex_:
        a = a + 1j * rng.standard_normal(shape) * 10.0 ** exponent
    a = _layout(a, layout)
    results = []
    for norm in (_fro, np.linalg.norm):
        with warnings.catch_warnings(record=True) as caught, np.errstate(over=errstate):
            warnings.simplefilter("always")
            value = norm(a)
        results.append((np.float64(value).tobytes(), [str(w.message) for w in caught]))
    assert results[0] == results[1]


# -- the library's contract -------------------------------------------------------


def _gauss(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale


def _parts(seed, scale=1.0):
    return decompose_via_eigen(random_algebra(seed, scale=scale)).parts


_BIG = 1.7e308

# finite inputs whose results overflow: Overflow, with no RuntimeWarning
LIBRARY_OVERFLOWS = {
    "grade0 of a trace that overflows": lambda: grade0(np.diag([_BIG, _BIG, 0.0, 0.0])),
    "grade2 of a 4x4 Gaussian x 7.4e307": lambda: grade2(_gauss(0, 4, 7.4e307)),
    "ccos_ssin of a 4x4 Gaussian x 7.4e307": lambda: ccos_ssin(_gauss(0, 4, 7.4e307)),
    "grade4 of a symmetric pair x 1.7e308": lambda: grade4([[0.0, _BIG], [_BIG, 0.0]]),
    "grade6 of an imaginary trace that overflows":
        lambda: grade6(np.diag([_BIG * 1j, _BIG * 1j, 0.0])),
    "scalar_residual of an 8x8 Gaussian x 1.5e300": lambda: scalar_residual(_gauss(0, 8, 1.5e300)),
    "compare of 3x3 Gaussians x 7.8e168": lambda: compare(_gauss(1, 3, 7.8e168),
                                                          _gauss(2, 3, 7.8e168)),
    "ComplexMat @ of 4x4 Gaussians x 2.9e224": lambda: ComplexMat(_gauss(1, 4, 2.9e224))
        @ ComplexMat(_gauss(2, 4, 2.9e224)),
    "exp_gellmann8 at 1.7e308": lambda: exp_gellmann8(_BIG),
    "family_element at 1.7e308 on betas above 1": lambda: family_element(_parts(0, 10.0),
                                                                         (_BIG, 0.0, 0.0)),
}

NON_FINITE_ANGLES = {
    "exp_gellmann at inf": lambda: exp_gellmann(1, math.inf),
    "exp_gellmann at nan": lambda: exp_gellmann(4, math.nan),
    "exp_gellmann8 at -inf": lambda: exp_gellmann8(-math.inf),
    "family_element at inf": lambda: family_element(_parts(0), (math.inf, 0.0, 0.0)),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_OVERFLOWS))
def test_overflowing_result_refused(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow):
            LIBRARY_OVERFLOWS[case]()


@pytest.mark.parametrize("case", sorted(NON_FINITE_ANGLES))
def test_non_finite_angle_refused(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntries):
            NON_FINITE_ANGLES[case]()


_SCALES = [5e-324, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e100, 1e150, 1e154, 1e300, _BIG]
_EDGES = [math.nan, math.inf, -math.inf]


_WINDING = st.integers(-1, 1)
# branch arguments: three windings, or what is not three integers
_BRANCHES = st.one_of(
    st.tuples(_WINDING, _WINDING, _WINDING),
    st.tuples(_WINDING, _WINDING, _WINDING).map(list),
    st.integers(-2, 2), st.none(), st.text(max_size=3), st.floats(allow_nan=True),
    st.booleans(), st.tuples(_WINDING, _WINDING), st.tuples(*4 * [_WINDING]),
    st.tuples(st.tuples(_WINDING, _WINDING, _WINDING)),
    st.tuples(_WINDING, st.tuples(_WINDING), _WINDING),
    st.tuples(_WINDING, st.sampled_from([0.5, None, True, "1", 2**60]), _WINDING))
# what a seed, count, scale, index or angle may be beside its valid values: no integer, or a
# small one (of which most counts, some indices and no scale are valid)
_NOT_INT = st.one_of(st.booleans(), st.text(max_size=3),
                     st.sampled_from([1.5, math.nan, math.inf, -math.inf, None, 1j, 1.0 + 0j]))
# 10**5000 has no repr under the default digit limit, so a message must not print it whole
_ODD = st.one_of(st.integers(-3, 3), st.sampled_from([10**5000, -10**5000]), _NOT_INT)
# run_bench's (n, seed): an invalid n, or n = 100 and an invalid seed, so that no run is timed
_BENCH_ARGS = st.one_of(
    st.tuples(st.one_of(st.integers(-3, 99), _NOT_INT), st.one_of(st.integers(0, 9), _ODD)),
    st.tuples(st.just(100), st.one_of(st.integers(-3, -1), st.integers(2**63, 2**64), _NOT_INT)))


@st.composite
def _library_calls(draw):
    """A call of one library name on inputs from 5e-324 to 1.7e308, NaN or +-inf.

    Matrices are Gaussian, or su(3) for the 3x3 decompositions and the
    exponentials, times a scale.  The logs, factorize, split_HS,
    eigen_normal3 and principal_log_factor take a Gaussian or a Haar U,
    the U at times unscaled, so that their closed forms run.
    exp_simple and invariant_combination take the parts of a seeded
    su(3) element.  An entry or an angle at times takes an edge value.
    decompose_closed_form takes the element's own lambdas where
    lambda_roots gives them, or lambdas in the scale's square.
    branch_log and LogBranch take three windings, or a branch that is
    not three integers: an int, None, a string, a float, a bool, a
    nested tuple, or two or four windings.  The seeds of random_group
    and random_algebra, the latter's scale, run_bench's n and seed, the
    Gell-Mann indices and the angles of exp_gellmann, exp_gellmann8 and
    family_element take valid values, or at times ints, bools, 1.5,
    NaN, +-inf, None, strings and complex numbers (``_ODD``).
    """
    name = draw(st.sampled_from(sorted(_LIBRARY_NAMES)))
    scale = draw(st.one_of(st.sampled_from(_SCALES), st.floats(5e-324, _BIG)))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 8))
    with np.errstate(over="ignore", invalid="ignore"):
        b = random_algebra(seed).mat.array * scale
        m = _gauss(seed, n, scale)
        u = random_group(seed).mat.array * draw(st.sampled_from([1.0, scale]))
        m2 = _gauss(seed + 1, n, draw(st.sampled_from([1.0, scale])))
        lams = [-scale * scale, -2.0 * scale * scale, -3.0 * scale * scale]
    edge = draw(st.one_of(st.none(), st.sampled_from(_EDGES)))
    if edge is not None and draw(st.booleans()):
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        b[i, j] = m[i, j] = u[i, j] = edge
    if draw(st.booleans()):
        try:
            lams = lambda_roots(b)
        except Su3KitError:
            pass
    angle = draw(st.sampled_from([scale, -scale] + ([edge] if edge is not None else [])))
    parts = _parts(seed % 1000, draw(st.sampled_from([1e-3, 1.0, 10.0, 1e3])))
    return name, SimpleNamespace(b=b, m=m, m2=m2, lams=lams, angle=angle, parts=parts,
                                 a=1 + seed % 7, u=draw(st.sampled_from([u, m])),
                                 k=draw(_BRANCHES), theta=draw(st.one_of(st.just(angle), _ODD)),
                                 index=draw(st.one_of(st.integers(-9, 9), _ODD)),
                                 seed=draw(st.one_of(st.integers(-2, 2**64), _ODD)),
                                 scale=draw(st.one_of(st.sampled_from(_SCALES + [0.0, -1.0]),
                                                      _ODD)),
                                 bench=draw(_BENCH_ARGS))


_LIBRARY_NAMES = {
    "decompose_closed_form": lambda x: decompose_closed_form(x.b, x.lams),
    "lambda_roots": lambda x: lambda_roots(x.b),
    "ccos_ssin": lambda x: ccos_ssin(x.m),
    "grade0": lambda x: grade0(x.m),
    "grade2": lambda x: grade2(x.m),
    "grade4": lambda x: grade4(x.m),
    "grade6": lambda x: grade6(x.m),
    "scalar_residual": lambda x: scalar_residual(x.m),
    "compare": lambda x: compare(x.m, x.m2),
    "exp_gellmann": lambda x: exp_gellmann(x.index, x.theta),
    "exp_gellmann8": lambda x: exp_gellmann8(x.theta),
    "family_element": lambda x: family_element(x.parts, (x.theta, 1.0, -x.angle)),
    "lam": lambda x: lam(x.index),
    "rho": lambda x: rho(x.index),
    "equilibrium_point": lambda x: equilibrium_point(x.index),
    "reconstruct_lambda": lambda x: reconstruct_lambda(x.index),
    "random_group": lambda x: random_group(x.seed),
    "random_algebra": lambda x: random_algebra(x.seed, x.scale),
    "run_bench": lambda x: run_bench("exp", "generic", *x.bench),
    "principal_log": lambda x: principal_log(x.u),
    "branch_log": lambda x: branch_log(x.u, x.k),
    "LogBranch": lambda x: LogBranch(x.k),
    "factorize": lambda x: factorize(x.u),
    "exp_su3": lambda x: exp_su3(x.b),
    "exp_simple": lambda x: exp_simple(x.parts[x.a % 3]),
    "decompose_via_eigen": lambda x: decompose_via_eigen(x.b),
    "decompose_nxn": lambda x: decompose_nxn(x.m),
    "eigen_normal3": lambda x: eigen_normal3(x.u),
    "eigen_general": lambda x: eigen_general(x.m),
    "split_HS": lambda x: split_HS(x.u),
    "normalize": lambda x: normalize(x.m),
    "rms_norm": lambda x: rms_norm(x.m),
    "principal_log_factor": lambda x: principal_log_factor(x.u),
    "invariant_combination": lambda x: invariant_combination(x.parts, (x.angle, 1.0, -x.angle)),
    "oracle.exp_reference": lambda x: exp_reference(x.b),
    "oracle.log_reference": lambda x: log_reference(x.u),
}


@settings(max_examples=620, deadline=None, database=None, derandomize=True)
@given(_library_calls())
def test_library_returns_or_refuses(call):
    """Each call returns, or raises an Su3KitError, and warns nothing."""
    name, inputs = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _LIBRARY_NAMES[name](inputs)
        except Su3KitError:
            pass
