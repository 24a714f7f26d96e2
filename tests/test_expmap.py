"""Exponential map: Euler factors, group validation, commuting families."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su3kit.expmap
import su3kit.invdec
from su3kit.errors import (InputError, NonCommutingParts, NonFiniteEntries, NotUnitary, Overflow,
                           Su3KitError)
from su3kit.expmap import (
    _check_group,
    GroupElement,
    exp_simple,
    exp_su3,
    family_element,
    invariant_combination,
)
from su3kit.factorlog import principal_log
from su3kit.invdec import decompose_nxn, decompose_via_eigen
from su3kit.oracle import compare, exp_reference, random_algebra, random_group
from su3kit.smallmat import ComplexMat, _det3
from su3kit.tolerances import DEFAULT_TOL

# real symmetric, so its parts are not su(3) parts: their lambdas
# (about 1.22, 0.157 and 2.25) are positive and they carry no angle
NOT_SU3 = ComplexMat([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, -3.0]])


class TestGroupElement:
    def test_accepts_identity(self):
        GroupElement(ComplexMat.identity(3))

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            GroupElement(np.eye(3) * 1.5)

    def test_rejects_unit_determinant_violation(self):
        # unitary, but det = -1
        with pytest.raises(NotUnitary):
            GroupElement(ComplexMat(np.diag([1.0, 1.0, -1.0]).astype(complex)))


class TestCheckGroup:
    """The outcomes of _check_group, which reads the unitarity residual before finiteness."""

    @pytest.mark.parametrize("special", [True, False])
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf])
    def test_non_finite_entries(self, bad, special):
        a = np.eye(3, dtype=np.complex128)
        a[1, 2] = bad
        with pytest.raises(NonFiniteEntries):
            _check_group(a, DEFAULT_TOL, special)

    @pytest.mark.parametrize("special", [True, False])
    def test_huge_entries_are_not_unitary_without_a_warning(self, special):
        # the residual overflows to NaN, which "not <=" refuses
        a = np.full((3, 3), 1e200, dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitary, match="unitarity residual nan exceeds grp_tol"):
                _check_group(a, DEFAULT_TOL, special)

    def test_det_minus_one_needs_special(self):
        a = np.diag([1.0, 1.0, -1.0]).astype(np.complex128)
        with pytest.raises(NotUnitary, match="determinant is off 1 by 2.000e"):
            _check_group(a, DEFAULT_TOL)
        _check_group(a, DEFAULT_TOL, special=False)

    def test_det3_equals_the_numpy_scalar_form(self):
        def numpy_scalars(a):
            return complex(
                a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
            )

        rng = np.random.default_rng(13)
        for _ in range(10_000):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a = a * 10.0 ** rng.integers(-90, 90)
            # exact and signed zeros, as on diagonal and permutation inputs
            a[rng.random((3, 3)) < 0.2] = 0.0
            a.imag[rng.random((3, 3)) < 0.2] = -0.0
            want = numpy_scalars(a)
            got = _det3(a)
            assert type(got) is complex
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestExpSimple:
    def test_zero_part(self):
        dec = decompose_via_eigen(ComplexMat(np.zeros((3, 3))))
        f = exp_simple(dec.parts[0])
        np.testing.assert_allclose(f.mat.array, np.eye(3), atol=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_each_factor_matches_oracle(self, seed):
        b = random_algebra(seed, scale=1.2)
        for p in decompose_via_eigen(b).parts:
            f = exp_simple(p)
            assert compare(f.mat, exp_reference(p.mat)) < 1e-13

    def test_part_without_angle_refused(self):
        part = decompose_via_eigen(NOT_SU3).parts[0]
        assert part.beta is None
        with pytest.raises(InputError, match="no angle"):
            exp_simple(part)

    def test_cos_sin_form(self):
        b = random_algebra(3, scale=0.9)
        p = decompose_via_eigen(b).parts[0]
        want = (math.cos(p.beta) * np.eye(3)
                + math.sin(p.beta) * p.unit.array)
        np.testing.assert_allclose(exp_simple(p).mat.array, want, atol=1e-15)


class TestExpSu3:
    def test_zero(self):
        u = exp_su3(ComplexMat(np.zeros((3, 3))))
        np.testing.assert_allclose(u.mat.array, np.eye(3), atol=0)

    def test_half_turn_diagonal(self):
        b = ComplexMat(np.diag([1j * math.pi, -1j * math.pi, 0.0]))
        u = exp_su3(b)
        np.testing.assert_allclose(
            u.mat.array, np.diag([-1.0, -1.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        b = random_algebra(seed, scale=0.5 + 0.25 * (seed % 8))
        u = exp_su3(b)
        assert compare(u.mat, exp_reference(b.mat)) < 1e-10

    def test_output_is_group_element(self):
        u = exp_su3(random_algebra(11))
        arr = u.mat.array
        assert np.linalg.norm(arr.conj().T @ arr - np.eye(3)) < 1e-11
        assert abs(np.linalg.det(arr) - 1.0) < 1e-11


    def test_overflowing_norm_is_numerical_error(self):
        b = np.zeros((3, 3), dtype=complex)
        b[0, 1], b[1, 0] = 1e308, -1e308
        with pytest.raises(Overflow):
            exp_su3(b)


def _skew_with_phases(phases, seed):
    q = random_group(seed).mat.array
    b = q @ np.diag(1j * np.asarray(phases)) @ q.conj().T
    return (b - b.conj().T) / 2.0


def _nearly_normal():
    # an su(3) element plus a traceless Hermitian perturbation of norm
    # 1e-12: still a valid algebra element, but its commutator with its
    # adjoint fails the normality test
    b = random_algebra(7, scale=1e-3).mat.array
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2.0
    h -= np.trace(h) / 3.0 * np.eye(3)
    return b + h * (1e-12 / np.linalg.norm(h))


def _public_route(b) -> ComplexMat:
    out = ComplexMat.identity(3)
    for part in decompose_via_eigen(b).parts:
        if part.unit is not None:
            out = out @ exp_simple(part).mat
    return out


_EPS = float(np.finfo(np.float64).eps)


def _factor_product_gap(u: ComplexMat, b: np.ndarray) -> float:
    """||u - product of the Euler factors of b|| in units of eps max(1, ||b||)."""
    scale = _EPS * max(1.0, float(np.linalg.norm(b)))
    return float(np.linalg.norm(u.array - _public_route(b).array)) / scale


class TestExpMatchesPublicRoute:
    """exp_su3 is the product of the Euler factors of decompose_via_eigen + exp_simple.

    The closed form and the factor product are two roundings of the
    same identity, so they agree to 8 eps max(1, ||B||), not bit for bit.
    """

    @pytest.mark.parametrize("b", [
        random_algebra(3).mat.array,
        random_algebra(4, scale=1e-6).mat.array,
        _skew_with_phases([0.4, 0.4 - 1e-7, -0.8 + 1e-7], 5),
        _skew_with_phases([2 * math.pi - 1e-3, -math.pi + 0.2, -math.pi - 0.2 + 1e-3], 6),
        np.zeros((3, 3), dtype=complex),
    ], ids=["generic", "small", "near_degenerate", "angle_near_pi", "zero"])
    def test_bit_identical(self, b):
        assert _factor_product_gap(exp_su3(b).mat, b) <= 8.0

    def test_angle_near_pi_input(self):
        b = _skew_with_phases([2 * math.pi - 1e-3, -math.pi + 0.2, -math.pi - 0.2 + 1e-3], 6)
        betas = [p.beta for p in decompose_via_eigen(b).parts]
        assert abs(max(betas) - math.pi) < 1e-3

    @pytest.mark.parametrize("validated", [False, True])
    def test_norm_computed_once(self, validated, monkeypatch):
        b = random_algebra(3)
        calls = []
        norm = su3kit.invdec._finite_norm

        def counting(arr):
            calls.append(1)
            return norm(arr)

        monkeypatch.setattr(su3kit.invdec, "_finite_norm", counting)
        monkeypatch.setattr(su3kit.expmap, "_finite_norm", counting)
        exp_su3(b if validated else b.mat.array)
        assert len(calls) == 1

    def test_general_branch_bit_identical(self, monkeypatch):
        """A nearly normal input: its parts come from the general kernel, its exp from none."""
        calls = []
        kernel = su3kit.invdec._eigen_general

        def spy(arr, tol):
            calls.append(arr)
            return kernel(arr, tol)

        monkeypatch.setattr(su3kit.invdec, "_eigen_general", spy)
        b = _nearly_normal()
        u = exp_su3(b)
        assert len(calls) == 0
        assert _factor_product_gap(u.mat, b) <= 8.0
        assert len(calls) == 1
        assert compare(u.mat, exp_reference(b)) < 1e-14


class TestClosedForm:
    """The closed form needs no eigensolver and no cut-off at small angles."""

    def test_runs_no_eigensolver(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exp_su3 ran an eigensolver")

        for name in ("_eigen_normal3", "_eigen_general", "_eigen_parts"):
            monkeypatch.setattr(su3kit.invdec, name, refuse)
        for b in (random_algebra(3).mat.array, _nearly_normal(), _skew_with_phases([0.4, 0.4, -0.8], 5)):
            assert compare(exp_su3(b).mat, exp_reference(b)) < 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_every_finite_norm_gives_a_group_element(self, seed):
        """From 1e-320 up to 1e154, where the squared norm still is finite."""
        b = random_algebra(seed).mat.array
        b = b / np.linalg.norm(b)
        off = ~np.eye(3, dtype=bool)
        for e in range(-320, 155, 3):
            x = b * 10.0**e
            u = exp_su3(x).mat.array
            if e <= -17:
                # exp(B) is 1 + B in double precision; off the diagonal, B to the last bits
                assert np.max(np.abs(u - np.eye(3) - x)) <= _EPS
                if e >= -300:
                    assert np.max(np.abs((u - x)[off])) <= 4.0 * _EPS * 10.0**e


def _exp_round_trip_constant(seed, norm):
    """C in ||principal_log(exp_su3(B)) - B|| / ||B|| = C eps max(1, 1 / ||B||).

    B is random_algebra(seed) scaled to norm.
    """
    b = random_algebra(seed).mat.array
    b = b * (norm / np.linalg.norm(b))
    log = principal_log(exp_su3(b)).array
    return np.linalg.norm(log - b) / norm / (_EPS * max(1.0, 1.0 / norm))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exponent=st.floats(min_value=-12.0, max_value=math.log10(math.pi)),
)
def test_exp_log_round_trip_at_every_norm(seed, exponent):
    """exp_su3 then the principal log gives B back to 8 eps, relative above norm 1."""
    assert _exp_round_trip_constant(seed, 10.0**exponent) <= 8.0


@pytest.mark.parametrize(
    "seed, exponent",
    [
        # failing draws while exp_su3 skipped parts of angle below 1e-12
        (0, -12.0),  # C = 4504: the result was the identity
        (1, -11.0),  # C = 3154
        (12, -10.0),  # C = 429
        (12, -9.0),  # C = 4290
    ],
)
def test_exp_log_round_trip_pinned(seed, exponent):
    assert _exp_round_trip_constant(seed, 10.0**exponent) <= 8.0


class TestFamilyElement:
    def test_all_zero_thetas(self):
        parts = decompose_via_eigen(random_algebra(5)).parts
        u = family_element(parts, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(u.array, np.eye(3), atol=0)

    def test_unit_thetas_reproduce_exp(self):
        b = random_algebra(5, scale=0.8)
        parts = decompose_via_eigen(b).parts
        u = family_element(parts, (1.0, 1.0, 1.0))
        assert compare(u, exp_su3(b).mat) < 1e-12

    def test_partial_thetas_match_combination(self):
        b = random_algebra(9, scale=0.7)
        parts = decompose_via_eigen(b).parts
        thetas = (0.3, -1.2, 2.0)
        u = family_element(parts, thetas)
        combo = invariant_combination(parts, thetas)
        assert compare(u, exp_reference(combo)) < 1e-12

    def test_length_mismatch(self):
        parts = decompose_via_eigen(random_algebra(5)).parts
        with pytest.raises(InputError):
            family_element(parts, (1.0, 2.0))

    def test_zero_part_gives_identity(self):
        parts = decompose_via_eigen(ComplexMat(np.zeros((3, 3)))).parts
        assert parts[0].beta == 0.0 and parts[0].unit is None
        u = family_element(parts, (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(u.array, np.eye(3))

    def test_parts_without_angle_refused(self):
        with pytest.raises(InputError, match="no angle"):
            family_element(decompose_via_eigen(NOT_SU3).parts, (1.0, 1.0, 1.0))

    def test_nxn_parts_refused_as_input(self):
        parts = decompose_nxn(ComplexMat(np.diag([1.0, 2.0, 3.0, 4.0])))
        with pytest.raises(InputError, match="no angle"):
            family_element(parts, (1.0, 1.0, 1.0, 1.0))

    def test_non_commuting_refused(self):
        pa = decompose_via_eigen(random_algebra(1)).parts
        pb = decompose_via_eigen(random_algebra(2)).parts
        mixed = (pa[0], pb[1], pa[2])
        with pytest.raises(NonCommutingParts):
            family_element(mixed, (1.0, 1.0, 1.0))


class TestInvariantCombination:
    def test_unit_coefficients_restore_source(self):
        b = random_algebra(21, scale=1.1)
        parts = decompose_via_eigen(b).parts
        total = invariant_combination(parts, (1.0, 1.0, 1.0))
        np.testing.assert_allclose(total.array, b.mat.array, atol=1e-12)

    def test_scaling_each_part(self):
        b = random_algebra(22)
        parts = decompose_via_eigen(b).parts
        total = invariant_combination(parts, (2.0, 0.0, 0.0))
        np.testing.assert_allclose(
            total.array, 2.0 * parts[0].mat.array, atol=1e-13)


def _parts_3():
    return decompose_via_eigen(random_algebra(5)).parts


def _parts_4():
    return decompose_nxn(np.diag([1.0, 2.0, 3.0, 4.0]))


def _non_commuting():
    pa = decompose_via_eigen(random_algebra(1)).parts
    pb = decompose_via_eigen(random_algebra(2)).parts
    return pa, pb


# code and message of each refusal: lengths, then sizes, then values
PINNED_REFUSALS = {
    "family mixed 3 vs 4": (
        lambda: family_element((_parts_3()[0], _parts_4()[0]), (1.0, 1.0)),
        "dimension_mismatch", "dimension mismatch: 3 vs 4"),
    "family mixed 4 vs 3": (
        lambda: family_element((_parts_4()[0], _parts_3()[0]), (1.0, 1.0)),
        "dimension_mismatch", "dimension mismatch: 4 vs 3"),
    "family no angle, 3x3": (
        lambda: family_element(decompose_nxn(np.diag([1.0, 2.0, 3.0])), (1.0, 1.0, 1.0)),
        "invalid_input",
        "part has no angle: only the parts of an su(3) element have an Euler factor"),
    "family no angle, 4x4": (
        lambda: family_element(_parts_4(), (1.0, 1.0, 1.0, 1.0)),
        "invalid_input",
        "part has no angle: only the parts of an su(3) element have an Euler factor"),
    "family pair 0, 1": (
        lambda: family_element(
            (_non_commuting()[0][0], _non_commuting()[1][1], _non_commuting()[0][2]),
            (1.0, 1.0, 1.0)),
        "non_commuting_parts", "parts 0 and 1 do not commute"),
    "family pair 0, 2": (
        lambda: family_element(
            (_non_commuting()[0][0], _non_commuting()[0][1], _non_commuting()[1][2]),
            (1.0, 1.0, 1.0)),
        "non_commuting_parts", "parts 0 and 2 do not commute"),
    "family length": (
        lambda: family_element(_parts_3(), (1.0, 2.0)),
        "invalid_input", "3 parts but 2 angles"),
    "combination length": (
        lambda: invariant_combination(_parts_3(), (1.0, 2.0)),
        "invalid_input", "3 parts but 2 coefficients"),
    "combination empty": (
        lambda: invariant_combination([], []),
        "invalid_input", "no parts given"),
    "combination mixed 3 vs 4": (
        lambda: invariant_combination((_parts_3()[0], _parts_4()[0]), (1.0, 1.0)),
        "dimension_mismatch", "dimension mismatch: 3 vs 4"),
    "combination mixed 4 vs 3": (
        lambda: invariant_combination((_parts_4()[0], _parts_3()[0]), (1.0, 1.0)),
        "dimension_mismatch", "dimension mismatch: 4 vs 3"),
    "combination NaN coefficient": (
        lambda: invariant_combination(_parts_3(), (1.0, float("nan"), 1.0)),
        "non_finite_entries", "matrix entries must be finite"),
}

# finite inputs whose results overflow: Overflow, not NonCommutingParts
# or NonFiniteEntries, and no RuntimeWarning on the way
OVERFLOW_REFUSALS = {
    "family x 1.6e86": (
        lambda: family_element(decompose_via_eigen(random_algebra(0, scale=1.6e86)).parts,
                               (1.0, 1.0, 1.0)),
        "residual norm overflows: its entries are finite but too large"),
    "combination 1e300 on norm 1e9": (
        lambda: invariant_combination(decompose_via_eigen(random_algebra(3, scale=1e9)).parts,
                                      (1e300, 1e300, 1e300)),
        "linear combination overflows: its inputs are finite but too large"),
}


class TestPinnedRefusals:
    @pytest.mark.parametrize("case", sorted(PINNED_REFUSALS))
    def test_code_and_message(self, case):
        call, code, message = PINNED_REFUSALS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Su3KitError) as info:
                call()
        assert (info.value.code, str(info.value)) == (code, message)

    @pytest.mark.parametrize("case", sorted(OVERFLOW_REFUSALS))
    def test_overflow_refused_as_overflow(self, case):
        call, message = OVERFLOW_REFUSALS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match=f"^{message}$"):
                call()

    def test_overflowing_pair_after_a_failing_pair(self):
        # pair (0, 1) fails its bound, pair (1, 2) overflows: the first
        # pair in order decides
        small = decompose_via_eigen(random_algebra(1)).parts
        big = decompose_via_eigen(random_algebra(2, scale=1.6e86)).parts
        with pytest.raises(NonCommutingParts, match="parts 0 and 1"):
            family_element((small[0], big[1], big[2]), (1.0, 1.0, 1.0))
