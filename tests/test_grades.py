"""Grade projections and the H/S constituent split."""

import math
import warnings

import numpy as np
import pytest

from su3kit.errors import Overflow
from su3kit.expmap import exp_su3
from su3kit.grades import (
    ccos_ssin,
    grade0,
    grade2,
    grade4,
    grade6,
    split_HS,
    traceless_projection,
)
from su3kit.invdec import decompose_via_eigen
from su3kit.oracle import random_algebra, random_group
from su3kit.smallmat import ComplexMat


def _fro(m):
    return np.linalg.norm(m.array if isinstance(m, ComplexMat) else m)


# Frozen example: U = diag(i, -i, 1).
U_EXAMPLE = ComplexMat(np.diag([1j, -1j, 1.0 + 0j]))


class TestGradeProjections:
    def test_example_halves(self):
        ccos, ssin = ccos_ssin(U_EXAMPLE)
        np.testing.assert_allclose(ccos.array, np.diag([0.0, 0.0, 1.0]), atol=0)
        np.testing.assert_allclose(ssin.array, np.diag([1j, -1j, 0.0]), atol=0)

    def test_example_grades(self):
        np.testing.assert_allclose(
            grade0(U_EXAMPLE).array, 0.5 * np.eye(3), atol=0)
        np.testing.assert_allclose(grade6(U_EXAMPLE).array, 0, atol=0)
        np.testing.assert_allclose(
            grade2(U_EXAMPLE).array, np.diag([1j, -1j, 0.0]), atol=0)
        np.testing.assert_allclose(
            grade4(U_EXAMPLE).array, np.diag([-0.5, -0.5, 0.5]), atol=0)

    @pytest.mark.parametrize("seed", range(30))
    def test_reconstruction(self, seed):
        u = random_group(seed)
        total = grade0(u).array + grade2(u).array + grade4(u).array + grade6(u).array
        assert _fro(total - u.mat.array) < 1e-14

    @pytest.mark.parametrize("seed", range(30))
    def test_g6_imaginary_scalar(self, seed):
        g6 = grade6(random_group(seed)).array
        assert abs(g6[0, 0].real) < 1e-10
        assert _fro(g6 - g6[0, 0] * np.eye(3)) < 1e-15

    def test_grades_not_traceless_in_general(self):
        # grade-2 keeps a trace component unless tr(ssin) vanishes
        u = random_group(8)
        assert abs(np.trace(grade2(u).array)) > 1e-6


class TestTracelessProjection:
    def test_removes_trace(self):
        m = random_group(4).mat
        assert abs(np.trace(traceless_projection(m).array)) < 1e-15

    def test_overflow_refused_as_overflow(self):
        # finite entries whose trace overflows: Overflow, not
        # NonFiniteEntries, and no RuntimeWarning on the way
        g = np.random.default_rng(5).standard_normal((4, 4))
        assert np.abs(g).max() < 1.79
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="traceless projection overflows"):
                traceless_projection(g * 1e308)

    def test_differs_from_grade2_by_scalar(self):
        u = random_group(12)
        _, ssin = ccos_ssin(u)
        diff = traceless_projection(ssin).array - grade2(u).array
        want = (-complex(np.trace(ssin.array)) / 12.0) * np.eye(3)
        np.testing.assert_allclose(diff, want, atol=1e-15)


class TestSplitHS:
    def test_example(self):
        g = split_HS(U_EXAMPLE)
        np.testing.assert_allclose(g.g0.array, 0.5 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(g.g6.array, 0, atol=1e-15)
        np.testing.assert_allclose(
            g.H[0].array + g.H[1].array + g.H[2].array, g.g4.array, atol=1e-14)
        np.testing.assert_allclose(
            g.S[0].array + g.S[1].array + g.S[2].array, g.g2.array, atol=1e-14)

    @pytest.mark.parametrize("seed", range(30))
    def test_sums_and_exact_symmetry(self, seed):
        g = split_HS(random_group(seed))
        assert _fro(g.H[0].array + g.H[1].array + g.H[2].array - g.g4.array) < 1e-12
        assert _fro(g.S[0].array + g.S[1].array + g.S[2].array - g.g2.array) < 1e-12
        for i in range(3):
            h = g.H[i].array
            s = g.S[i].array
            # exactly Hermitian / skew by construction, not just within tolerance
            np.testing.assert_array_equal(h, h.conj().T)
            np.testing.assert_array_equal(s, -s.conj().T)

    @pytest.mark.parametrize("seed", range(25))
    def test_product_forms(self, seed):
        """H_i and S_i match their per-part product expressions."""
        b = random_algebra(seed, scale=1.0 + seed % 3)
        parts = decompose_via_eigen(b).parts
        g = split_HS(exp_su3(b))
        cc = []
        sv = []
        for p in parts:
            cc.append(math.cos(p.beta) * np.eye(3))
            if p.unit is None:
                sv.append(np.zeros((3, 3), dtype=complex))
            else:
                sv.append(math.sin(p.beta) * p.unit.array)
        for i, j, k in [(0, 1, 2), (1, 0, 2), (2, 0, 1)]:
            hp = cc[i] @ sv[j] @ sv[k]
            sp = sv[i] @ cc[j] @ cc[k]
            # association order may differ; match to the nearest constituent
            assert min(_fro(hp - g.H[t].array) for t in range(3)) < 1e-10
            assert min(_fro(sp - g.S[t].array) for t in range(3)) < 1e-10

    @pytest.mark.parametrize("seed", range(25))
    def test_scalar_grades_product_forms(self, seed):
        b = random_algebra(seed, scale=0.9)
        parts = decompose_via_eigen(b).parts
        g = split_HS(exp_su3(b))
        c_all = 1.0
        s_prod = np.eye(3).astype(complex)
        for p in parts:
            c_all *= math.cos(p.beta)
            s_prod = s_prod @ (
                math.sin(p.beta) * p.unit.array if p.unit is not None
                else np.zeros((3, 3)))
        assert _fro(g.g0.array - c_all * np.eye(3)) < 1e-12
        assert _fro(g.g6.array - s_prod) < 1e-12
