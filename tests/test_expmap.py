"""Exponential map: Euler factors, group validation, commuting families."""

import math

import numpy as np
import pytest

import su3kit.invdec
from su3kit.errors import InputError, NonCommutingParts, NotUnitary, Overflow
from su3kit.expmap import (
    GroupElement,
    exp_simple,
    exp_su3,
    family_element,
    invariant_combination,
)
from su3kit.invdec import decompose_nxn, decompose_via_eigen
from su3kit.oracle import compare, exp_reference, random_algebra, random_group
from su3kit.smallmat import ComplexMat

# real symmetric, so its parts are not su(3) parts: their lambdas
# (about 1.22, 0.157 and 2.25) are positive and they carry no angle
NOT_SU3 = ComplexMat([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, -3.0]])


class TestGroupElement:
    def test_accepts_identity(self):
        GroupElement(ComplexMat.identity(3))

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            GroupElement(ComplexMat.identity(3) * 1.5)

    def test_rejects_unit_determinant_violation(self):
        # unitary, but det = -1
        with pytest.raises(NotUnitary):
            GroupElement(ComplexMat(np.diag([1.0, 1.0, -1.0]).astype(complex)))


class TestExpSimple:
    def test_zero_part(self):
        dec = decompose_via_eigen(ComplexMat.zeros(3))
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
        u = exp_su3(ComplexMat.zeros(3))
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


class TestExpMatchesPublicRoute:
    """exp_su3 on arrays gives the bits of decompose_via_eigen + exp_simple."""

    @pytest.mark.parametrize("b", [
        random_algebra(3).mat.array,
        random_algebra(4, scale=1e-6).mat.array,
        _skew_with_phases([0.4, 0.4 - 1e-7, -0.8 + 1e-7], 5),
        _skew_with_phases([2 * math.pi - 1e-3, -math.pi + 0.2, -math.pi - 0.2 + 1e-3], 6),
        np.zeros((3, 3), dtype=complex),
    ], ids=["generic", "small", "near_degenerate", "angle_near_pi", "zero"])
    def test_bit_identical(self, b):
        assert exp_su3(b).mat.array.tobytes() == _public_route(b).array.tobytes()

    def test_angle_near_pi_input(self):
        b = _skew_with_phases([2 * math.pi - 1e-3, -math.pi + 0.2, -math.pi - 0.2 + 1e-3], 6)
        betas = [p.beta for p in decompose_via_eigen(b).parts]
        assert abs(max(betas) - math.pi) < 1e-3

    def test_general_branch_bit_identical(self, monkeypatch):
        calls = []
        kernel = su3kit.invdec._eigen_general

        def spy(arr, tol):
            calls.append(arr)
            return kernel(arr, tol)

        monkeypatch.setattr(su3kit.invdec, "_eigen_general", spy)
        b = _nearly_normal()
        u = exp_su3(b)
        assert len(calls) == 1
        assert u.mat.array.tobytes() == _public_route(b).array.tobytes()
        assert len(calls) == 2
        assert compare(u.mat, exp_reference(b)) < 1e-14


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
        parts = decompose_via_eigen(ComplexMat.zeros(3)).parts
        assert parts[0].beta == 0.0 and parts[0].unit is None
        u = family_element(parts, (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(u.array, np.eye(3))

    def test_parts_without_angle_refused(self):
        with pytest.raises(InputError, match="no angle"):
            family_element(decompose_via_eigen(NOT_SU3).parts, (1.0, 1.0, 1.0))

    def test_nxn_parts_refused_as_input(self):
        parts = decompose_nxn(ComplexMat.diag([1.0, 2.0, 3.0, 4.0]))
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
