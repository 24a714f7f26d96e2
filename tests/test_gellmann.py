"""Gell-Mann generators, their involution completions, closed-form exponentials."""

import math

import numpy as np
import pytest

from su3kit.errors import InputError
from su3kit.gellmann import (
    BASIS,
    LAMBDAS,
    equilibrium_point,
    exp_gellmann,
    exp_gellmann8,
    lam,
    reconstruct_lambda,
    rho,
)
from su3kit.invdec import decompose_via_eigen
from su3kit.oracle import compare, exp_reference
from su3kit.smallmat import ComplexMat, _fro

RHO_INDICES = [0] + [s * a for a in range(1, 8) for s in (1, -1)]


class TestConstants:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_hermitian_traceless(self, a):
        g = lam(a).array
        np.testing.assert_array_equal(g, g.conj().T)
        assert abs(np.trace(g)) < 1e-15

    def test_trace_orthogonality(self):
        for a in range(1, 9):
            for b in range(1, 9):
                got = np.trace(lam(a).array @ lam(b).array)
                want = 2.0 if a == b else 0.0
                assert abs(got - want) < 1e-14

    @pytest.mark.parametrize("idx", RHO_INDICES)
    def test_rho_squares_to_identity_exactly(self, idx):
        r = rho(idx).array
        np.testing.assert_array_equal(r @ r, np.eye(3))

    @pytest.mark.parametrize("idx", RHO_INDICES)
    def test_rho_hermitian(self, idx):
        r = rho(idx).array
        np.testing.assert_array_equal(r, r.conj().T)

    def test_fifteen_distinct_rhos(self):
        mats = [rho(i).array.tobytes() for i in RHO_INDICES]
        assert len(set(mats)) == 15

    def test_bad_indices(self):
        with pytest.raises(InputError):
            lam(9)
        with pytest.raises(InputError):
            lam(0)
        with pytest.raises(InputError):
            rho(8)
        with pytest.raises(InputError):
            reconstruct_lambda(9)
        with pytest.raises(InputError):
            equilibrium_point(0)

    def test_basis_container(self):
        assert len(BASIS.lambdas) == 8
        assert len(BASIS.rhos) == 15
        assert len(LAMBDAS) == 8


class TestReconstruction:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_reconstruct(self, a):
        got = reconstruct_lambda(a).array
        np.testing.assert_allclose(got, lam(a).array, atol=1e-15)


class TestExponentials:
    @pytest.mark.parametrize("a", range(1, 8))
    def test_theta_zero(self, a):
        np.testing.assert_allclose(
            exp_gellmann(a, 0.0).mat.array, np.eye(3), atol=0)

    def test_half_turn_lambda1(self):
        u = exp_gellmann(1, math.pi)
        np.testing.assert_allclose(
            u.mat.array, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_quarter_turn_lambda1(self):
        u = exp_gellmann(1, math.pi / 2.0)
        want = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=complex)
        np.testing.assert_allclose(u.mat.array, want, atol=1e-15)

    @pytest.mark.parametrize("a", range(1, 8))
    def test_matches_oracle(self, a):
        for theta in np.linspace(-2 * math.pi, 2 * math.pi, 21):
            closed = exp_gellmann(a, float(theta)).mat
            ref = exp_reference(ComplexMat(1j * theta * lam(a).array))
            assert compare(closed, ref) < 1e-12

    def test_inverse_pairing(self):
        for a in range(1, 8):
            u = exp_gellmann(a, 0.83).mat
            v = exp_gellmann(a, -0.83).mat
            np.testing.assert_allclose((u @ v).array, np.eye(3), atol=1e-14)

    def test_exp8_half_turn(self):
        u = exp_gellmann8(math.sqrt(3.0) * math.pi)
        np.testing.assert_allclose(
            u.mat.array, np.diag([-1.0, -1.0, 1.0]), atol=1e-13)

    def test_exp8_matches_oracle(self):
        for theta in (-2.3, -0.4, 0.0, 0.9, 3.7):
            closed = exp_gellmann8(theta).mat
            ref = exp_reference(ComplexMat(1j * theta * lam(8).array))
            assert compare(closed, ref) < 1e-13

    def test_bad_index(self):
        with pytest.raises(InputError):
            exp_gellmann(8, 1.0)   # a = 8 has its own diagonal form


class TestEquilibrium:
    @pytest.mark.parametrize("a", range(1, 8))
    def test_closed_forms_agree(self, a):
        direct = equilibrium_point(a).array
        via_rho = 0.5 * (np.eye(3) - rho(a).array @ rho(-a).array)
        np.testing.assert_allclose(direct, via_rho, atol=1e-14)

    def test_lambda1_value(self):
        np.testing.assert_allclose(
            equilibrium_point(1).array, np.diag([0.0, 0.0, 1.0]), atol=0)

    def test_lambda4_value(self):
        np.testing.assert_allclose(
            equilibrium_point(4).array, np.diag([0.0, 1.0, 0.0]), atol=0)

    @pytest.mark.parametrize("a", range(1, 8))
    def test_is_ccos_at_quarter_turn(self, a):
        u = exp_gellmann(a, math.pi / 2.0).mat.array
        ccos = (u + u.conj().T) * 0.5
        np.testing.assert_allclose(
            ccos, equilibrium_point(a).array, atol=1e-15)


class TestRhoHalves:
    """iθλₐ decomposes into parts along iρ₊ₐ and iρ₋ₐ for a ≤ 7."""

    @pytest.mark.parametrize("a", range(1, 8))
    def test_parts_align_with_rho_pair(self, a):
        theta = 0.77
        b = ComplexMat(1j * theta * lam(a).array)
        dec = decompose_via_eigen(b)
        live = [p for p in dec.parts if _fro(p.mat.array) > 1e-12]
        assert len(live) == 2
        targets = [ComplexMat(0.5j * theta * rho(a).array),
                   ComplexMat(0.5j * theta * rho(-a).array)]
        for t in targets:
            best = min(_fro(p.mat.array - t.array) for p in live)
            assert best < 1e-10
