"""Boundary checks of raw input: refusal order and the Frobenius norm they measure."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit.errors import Su3KitError
from su3kit.expmap import GroupElement, exp_su3
from su3kit.factorlog import factorize, principal_log
from su3kit.invdec import AlgebraElement, lambda_roots
from su3kit.smallmat import _fro, eigen_normal3

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
