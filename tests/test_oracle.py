"""Reference algorithms and samplers. These anchor every other test."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from su3kit import smallmat
from su3kit.errors import InputError, NotUnitary, Overflow
from su3kit.oracle import (
    EXP_NORM_MAX,
    compare,
    exp_reference,
    log_reference,
    random_algebra,
    random_group,
)
from su3kit.smallmat import ComplexMat


class TestExpReference:
    def test_zero(self):
        np.testing.assert_allclose(
            exp_reference(ComplexMat.zeros(3)).array, np.eye(3), atol=0)

    def test_half_turn_diagonal(self):
        b = ComplexMat(np.diag([1j * math.pi, -1j * math.pi, 0.0]))
        np.testing.assert_allclose(
            exp_reference(b).array, np.diag([-1.0, -1.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_inverse_identity(self, seed):
        b = random_algebra(seed, scale=1.0 + (seed % 5)).mat
        if b.frobenius_norm() > 5.0:
            b = b * (5.0 / b.frobenius_norm())
        prod = exp_reference(b) @ exp_reference(b * (-1.0))
        assert compare(prod, ComplexMat.identity(3)) < 1e-12

    def test_against_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for seed in range(10):
            b = random_algebra(seed, scale=2.5).mat
            want = scipy_linalg.expm(b.array)
            assert np.linalg.norm(exp_reference(b).array - want) < 1e-12

    def test_large_norm_scaling(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = ComplexMat((a - a.conj().T) / 2 * 3.0)
        scipy_linalg = pytest.importorskip("scipy.linalg")
        want = scipy_linalg.expm(a.array)
        assert np.linalg.norm(exp_reference(a).array - want) < 1e-11

    @pytest.mark.parametrize("seed", range(4))
    def test_norm_limit(self, seed):
        # just under EXP_NORM_MAX the result is off by a few ||b|| eps, about
        # half its digits; just over, and up to norms whose square
        # overflows, it is refused before the series runs, with no warning
        b = random_algebra(seed).mat.array
        unit = b / np.linalg.norm(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = exp_reference(unit * (0.99 * EXP_NORM_MAX)).array
            assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 8.0 * EXP_NORM_MAX * smallmat._EPS
            for scale in (1.01 * EXP_NORM_MAX, 1e20, 1e92, 1e145, 1e200):
                with pytest.raises(Overflow):
                    exp_reference(unit * scale)

    def test_overflowing_exponential_refused(self):
        # finite arguments under EXP_NORM_MAX whose exponential overflows a
        # double: refused as Overflow, not as their squarings' inf entries
        rng = np.random.default_rng(8)
        gaussian = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (800.0 * np.eye(3), np.diag([710.0, 0.0, 0.0]),
                      random_group(3).mat.array * 1.9e6, gaussian * 3.3e4):
                with pytest.raises(Overflow):
                    exp_reference(a)
            # e^-800 underflows to 0 and e^700 is finite: both are results
            assert not exp_reference(-800.0 * np.eye(3)).array.any()
            u = exp_reference(700.0 * np.eye(3)).array
        assert hashlib.sha256(u.tobytes()).hexdigest() == \
            "58e68bd7a9732e9dda2f4a4846ea24481d801e92ea911cebb2ac564c466c8494"

    def test_deterministic(self):
        b = random_algebra(7).mat
        x = exp_reference(b).array.tobytes()
        y = exp_reference(b).array.tobytes()
        assert x == y


class TestLogReference:
    def test_identity(self):
        got = log_reference(ComplexMat.identity(3))
        np.testing.assert_allclose(got.array, 0, atol=1e-15)

    def test_quarter_turn_diagonal(self):
        u = ComplexMat(np.diag([1j, -1j, 1.0 + 0j]))
        want = np.diag([1j * math.pi / 2, -1j * math.pi / 2, 0.0])
        np.testing.assert_allclose(log_reference(u).array, want, atol=1e-14)

    @pytest.mark.parametrize("seed", range(30))
    def test_round_trip_haar(self, seed):
        u = random_group(seed).mat
        back = exp_reference(log_reference(u))
        assert compare(back, u) < 1e-11

    @pytest.mark.parametrize("seed", range(15))
    def test_inverts_exp_for_principal_phases(self, seed):
        b = random_algebra(seed, scale=0.4).mat
        if max(abs(np.linalg.eigvals(b.array).imag)) > 3.0:
            pytest.skip("eigenphase too close to the branch cut")
        got = log_reference(exp_reference(b))
        assert np.linalg.norm(got.array - b.array) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            log_reference(ComplexMat.identity(3) * 2.0)

    def test_skew_hermitian_output(self):
        l = log_reference(random_group(3).mat).array
        np.testing.assert_allclose(l, -l.conj().T, atol=0)

    def test_shares_no_kernel_with_the_log(self, monkeypatch):
        """The normal kernel may fail: the oracle never calls it."""

        def broken(*args):
            raise AssertionError("the oracle called the normal kernel")

        monkeypatch.setattr(smallmat, "_eigen_normal3", broken)
        for seed in range(5):
            u = random_group(seed).mat
            assert compare(exp_reference(log_reference(u)), u) < 1e-11
        with pytest.raises(AssertionError):
            smallmat.eigen_normal3(random_group(0).mat)

    def test_shares_no_hermitian_solver_with_the_log(self, monkeypatch):
        """The normal kernel's seed is LAPACK's Hermitian solver; the oracle runs without it."""

        def broken(*args, **kwargs):
            raise AssertionError("the oracle called numpy.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        for seed in range(5):
            b = random_algebra(seed, scale=0.3).mat
            u = exp_reference(b)
            assert compare(log_reference(u), b) < 1e-13
        with pytest.raises(AssertionError):
            smallmat.eigen_normal3(random_group(0).mat)

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_residual_refused(self, scale):
        # the unitarity residual overflows to NaN, which must not pass the gate
        u = scale * random_group(1).mat.array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitary) as info:
                log_reference(u)
        assert type(info.value) is NotUnitary


class TestRandomAlgebra:
    def test_traceless_skew(self):
        for seed in range(20):
            b = random_algebra(seed, scale=1.3).mat.array
            assert abs(np.trace(b)) < 1e-15
            np.testing.assert_allclose(b, -b.conj().T, atol=1e-15)

    def test_deterministic(self):
        a = random_algebra(42).mat.array.tobytes()
        b = random_algebra(42).mat.array.tobytes()
        assert a == b

    def test_distinct_seeds_differ(self):
        a = random_algebra(1).mat.array.tobytes()
        b = random_algebra(2).mat.array.tobytes()
        assert a != b

    def test_scale_validation(self):
        with pytest.raises(InputError):
            random_algebra(0, scale=0.0)

    def test_seed_validation(self):
        with pytest.raises(InputError):
            random_algebra(-1)
        with pytest.raises(InputError):
            random_algebra(2 ** 64)


class TestRandomGroup:
    @pytest.mark.parametrize("seed", range(20))
    def test_special_unitary(self, seed):
        u = random_group(seed).mat.array
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-13
        assert abs(np.linalg.det(u) - 1.0) < 1e-13

    def test_deterministic(self):
        a = random_group(42).mat.array.tobytes()
        b = random_group(42).mat.array.tobytes()
        assert a == b

    def test_haar_trace_moment(self):
        # first moment of tr U vanishes under Haar measure
        total = 0.0 + 0.0j
        n = 4000
        for seed in range(n):
            total += np.trace(random_group(seed).mat.array)
        assert abs(total) / n < 0.05


class TestCompare:
    def test_equal(self):
        m = random_group(5).mat
        assert compare(m, m) == 0.0

    def test_identity_vs_zero(self):
        got = compare(ComplexMat.identity(3), ComplexMat.zeros(3))
        assert abs(got - math.sqrt(3.0)) < 1e-15

    def test_norm_floor(self):
        got = compare(ComplexMat.identity(3) * 2.0, ComplexMat.identity(3))
        assert abs(got - 1.0) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            compare(ComplexMat.identity(3), ComplexMat.identity(4))
