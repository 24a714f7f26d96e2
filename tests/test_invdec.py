"""Invariant decomposition: frozen examples and property sweeps."""

import math

import numpy as np
import pytest

from su3kit.errors import (
    DegenerateLambdas,
    DimensionMismatch,
    InvalidAlgebraElement,
    Overflow,
)
from su3kit.invdec import (
    AlgebraElement,
    decompose_closed_form,
    decompose_nxn,
    decompose_via_eigen,
    lambda_roots,
)
from su3kit.oracle import random_algebra
from su3kit.smallmat import ComplexMat, commutator, scalar_residual


def _diag(*vals):
    return ComplexMat(np.diag(np.asarray(vals, dtype=np.complex128)))


# The worked diagonal example: B = diag(0.3i, -0.1i, -0.2i), whose parts
# are coef_i (2 E_i - 1) with coef_i = alpha_i / 2 and lam_i = coef_i^2.
B_EXAMPLE = _diag(0.3j, -0.1j, -0.2j)
LAMBDAS_EXAMPLE = (-0.0225, -0.0025, -0.01)


class TestAlgebraElement:
    def test_accepts_skew_traceless(self):
        AlgebraElement(B_EXAMPLE)

    def test_rejects_hermitian(self):
        with pytest.raises(InvalidAlgebraElement):
            AlgebraElement(_diag(1.0, 2.0, -3.0))

    def test_rejects_traceful(self):
        with pytest.raises(InvalidAlgebraElement):
            AlgebraElement(_diag(0.1j, 0.1j, 0.1j))

    def test_overflowing_norm_refused(self):
        # the skew bound alg_tol * max(1, norm) would be inf here
        b = np.zeros((3, 3), dtype=complex)
        b[0, 1], b[1, 0] = 1e308, -1e308
        with pytest.raises(Overflow):
            AlgebraElement(b)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InvalidAlgebraElement):
            AlgebraElement(ComplexMat(np.diag([0.1j, -0.1j])))


class TestDecomposeViaEigen:
    def test_worked_example_parts(self):
        dec = decompose_via_eigen(B_EXAMPLE)
        got = sorted((p.lam.real for p in dec.parts))
        np.testing.assert_allclose(got, sorted(LAMBDAS_EXAMPLE), atol=1e-15)
        # each part is diagonal with the +1 slot carrying the eigenvalue half
        total = dec.parts[0].mat + dec.parts[1].mat + dec.parts[2].mat
        np.testing.assert_allclose(total.array, B_EXAMPLE.array, atol=1e-14)

    def test_worked_example_betas(self):
        dec = decompose_via_eigen(B_EXAMPLE)
        got = sorted(p.beta for p in dec.parts)
        np.testing.assert_allclose(got, [0.05, 0.1, 0.15], atol=1e-14)

    def test_zero_matrix(self):
        dec = decompose_via_eigen(ComplexMat.zeros(3))
        for p in dec.parts:
            assert p.beta == 0.0
            assert p.unit is None
            np.testing.assert_allclose(p.mat.array, 0, atol=0)

    @pytest.mark.parametrize("seed", range(40))
    def test_invariants_random(self, seed):
        b = random_algebra(seed, scale=1.0 + 0.5 * (seed % 4))
        dec = decompose_via_eigen(b)
        assert dec.sum_residual() < 1e-10 * max(1.0, b.mat.frobenius_norm())
        assert dec.max_commutator_residual() < 1e-10
        for p in dec.parts:
            # part squares to lam * identity
            sq = (p.mat @ p.mat).array
            np.testing.assert_allclose(
                sq, p.lam * np.eye(3), atol=1e-10 * max(1.0, abs(p.lam)))
            if p.unit is not None:
                usq = (p.unit @ p.unit).array
                np.testing.assert_allclose(usq, -np.eye(3), atol=1e-9)

    def test_unit_square_is_minus_identity(self):
        dec = decompose_via_eigen(B_EXAMPLE)
        for p in dec.parts:
            np.testing.assert_allclose(
                (p.unit @ p.unit).array, -np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("m", [
        ComplexMat.identity(4),                # normal
        ComplexMat([[1, 1], [0, 2]]),          # not normal
    ], ids=["normal_4x4", "general_2x2"])
    def test_wrong_dimension_refused(self, m):
        with pytest.raises(DimensionMismatch):
            decompose_via_eigen(m)


class TestLambdaRoots:
    def test_worked_example(self):
        roots = lambda_roots(B_EXAMPLE)
        assert roots == tuple(sorted(roots, reverse=True))
        np.testing.assert_allclose(
            sorted(roots), sorted(LAMBDAS_EXAMPLE), atol=1e-12)

    def test_native_floats(self):
        roots = lambda_roots(B_EXAMPLE)
        assert all(type(r) is float for r in roots)

    def test_zero(self):
        assert lambda_roots(ComplexMat.zeros(3)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_eigen_route(self, seed):
        b = random_algebra(seed, scale=2.0)
        dec = decompose_via_eigen(b)
        eig_lams = sorted(p.lam.real for p in dec.parts)
        np.testing.assert_allclose(
            sorted(lambda_roots(b)), eig_lams, atol=1e-9, rtol=1e-7)


class TestClosedForm:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_eigen_route(self, seed):
        b = random_algebra(seed, scale=1.5)
        lams = lambda_roots(b)
        top = max(abs(l) for l in lams)
        sep = min(abs(lams[i] - lams[j])
                  for i in range(3) for j in range(i + 1, 3))
        if top == 0.0 or sep < 1e-4 * top or min(abs(l) for l in lams) < 1e-4 * top:
            pytest.skip("lambda spectrum too clustered for the closed form")
        parts = decompose_closed_form(b, lams).parts
        dec = decompose_via_eigen(b)
        for cf in parts:
            best = min((cf.mat - p.mat).frobenius_norm() for p in dec.parts)
            assert best < 1e-8 * max(1.0, b.mat.frobenius_norm())

    def test_caller_order_preserved(self):
        lams = lambda_roots(B_EXAMPLE)
        rev = tuple(reversed(lams))
        a = decompose_closed_form(B_EXAMPLE, lams).parts
        b = decompose_closed_form(B_EXAMPLE, rev).parts
        for x, y in zip(a, reversed(b)):
            np.testing.assert_allclose(x.mat.array, y.mat.array, atol=1e-12)

    def test_degenerate_lambdas_refused(self):
        with pytest.raises(DegenerateLambdas):
            decompose_closed_form(B_EXAMPLE, (-0.01, -0.01, -0.0225))

    def test_all_zero_refused(self):
        with pytest.raises(DegenerateLambdas):
            decompose_closed_form(ComplexMat.zeros(3), (0.0, 0.0, 0.0))


class TestDecomposeNxn:
    def test_diag_1234(self):
        m = ComplexMat(np.diag([1.0, 2.0, 3.0, 4.0]).astype(np.complex128))
        parts = decompose_nxn(m)
        # part for eigenvalue 1: coef = (1 - 10/2)/2 = -2
        want = np.diag([-2.0, 2.0, 2.0, 2.0])
        best = min(np.linalg.norm(p.mat.array - want) for p in parts)
        assert best < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_invariants(self, n):
        rng = np.random.default_rng(n * 17)
        m = ComplexMat(rng.standard_normal((n, n))
                       + 1j * rng.standard_normal((n, n)))
        parts = decompose_nxn(m)
        assert len(parts) == n
        total = parts[0].mat
        for p in parts[1:]:
            total = total + p.mat
        nrm = max(1.0, m.frobenius_norm())
        assert (total - m).frobenius_norm() < 1e-9 * nrm
        for i, p in enumerate(parts):
            assert scalar_residual(p.mat @ p.mat) < 1e-9 * nrm * nrm
            for q in parts[i + 1:]:
                assert commutator(p.mat, q.mat).frobenius_norm() < 1e-9 * nrm * nrm

    def test_too_small(self):
        with pytest.raises(InvalidAlgebraElement):
            decompose_nxn(ComplexMat(np.diag([1.0 + 0j, 2.0])))
