"""Factorization into commuting simple factors; principal and branch logs."""

import math
import warnings

import numpy as np
import pytest

from spec_inverse import inverse
from su3kit import factorlog
from su3kit.errors import (
    AmbiguousDirection,
    FactorizationFailed,
    InputError,
    MissingDirection,
    NotSimpleFactor,
    NotUnitary,
    Overflow,
    ZeroMatrix,
)
from su3kit.factorlog import (
    LogBranch,
    branch_log,
    factorize,
    normalize,
    rms_norm,
    principal_log,
    principal_log_factor,
)
from su3kit.grades import split_HS
from su3kit.oracle import compare, exp_reference, random_group
from su3kit.smallmat import ComplexMat

U_EXAMPLE = ComplexMat(np.diag([1j, -1j, 1.0 + 0j]))


def _haar_basis(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _skew_from_phases(phases, rng):
    q = _haar_basis(rng)
    b = q @ np.diag(1j * np.asarray(phases, dtype=float)) @ q.conj().T
    return ComplexMat((b - b.conj().T) / 2.0)


class TestNorms:
    def test_unitary_has_unit_norm(self):
        assert abs(rms_norm(ComplexMat.identity(3)) - 1.0) < 1e-15
        assert abs(rms_norm(random_group(3).mat) - 1.0) < 1e-13

    def test_normalize_scales(self):
        m = normalize(np.eye(3) * (2.0 - 1.0j))
        assert abs(rms_norm(m) - 1.0) < 1e-15

    def test_normalize_refuses_zero(self):
        with pytest.raises(ZeroMatrix):
            normalize(ComplexMat(np.zeros((3, 3))))

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_overflowing_norm_refused_without_a_warning(self, scale):
        """Once its norm overflows, normalize refuses instead of returning 1/inf = 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="too large"):
                normalize(scale * np.eye(3))
            assert abs(rms_norm(normalize(1e150 * np.eye(3))) - 1.0) < 1e-15

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_rms_norm_refuses_an_overflowing_norm_without_a_warning(self, scale):
        """rms_norm refuses as Overflow where it returned inf with an overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="too large"):
                rms_norm(scale * np.eye(3))
            assert rms_norm(1e150 * np.eye(3)) == 1e150


class TestPrincipalLogFactor:
    def test_identity(self):
        p = principal_log_factor(ComplexMat.identity(3))
        assert p.beta == 0.0
        assert p.unit is None
        np.testing.assert_allclose(p.mat.array, 0, atol=0)

    def test_quarter_turn(self):
        m = ComplexMat(1j * np.diag([1.0, -1.0, -1.0]))
        p = principal_log_factor(m)
        assert abs(p.beta - math.pi / 2.0) < 1e-15
        np.testing.assert_allclose(
            p.unit.array, 1j * np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_overflowing_norm_refused_without_a_warning(self, scale):
        factor = factorize(random_group(3)).factors[0].array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (scale * factor, scale * np.eye(3)):
                with pytest.raises(Overflow, match="too large"):
                    principal_log_factor(a)
            # below the limit the factor is refused for its shape, not its size
            with pytest.raises(NotSimpleFactor, match="cosine out of range"):
                principal_log_factor(1e150 * factor)

    def test_antipode_refused(self):
        with pytest.raises(AmbiguousDirection):
            principal_log_factor(ComplexMat(-np.eye(3, dtype=complex)))

    def test_non_simple_refused(self):
        # generic group element: Hermitian half is far from scalar
        with pytest.raises(NotSimpleFactor):
            principal_log_factor(random_group(0).mat)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        q = _haar_basis(rng)
        w = q @ np.diag([1.0, -1.0, -1.0]) @ q.conj().T
        beta = 1.234
        m = ComplexMat(math.cos(beta) * np.eye(3) + math.sin(beta) * 1j * w)
        p = principal_log_factor(m)
        assert abs(p.beta - beta) < 1e-12
        assert compare(exp_reference(p.mat), m) < 1e-12


class TestFactorize:
    def test_identity(self):
        fz = factorize(ComplexMat.identity(3))
        for f in fz.factors:
            np.testing.assert_allclose(f.array, np.eye(3), atol=1e-14)

    def test_example_product_and_routes(self):
        fz = factorize(U_EXAMPLE)
        assert fz.routes == ("simple", "simple", "closing")
        prod = fz.factors[0] @ fz.factors[1] @ fz.factors[2]
        np.testing.assert_allclose(prod.array, U_EXAMPLE.array, atol=1e-14)

    @pytest.mark.parametrize("seed", range(50))
    def test_haar_product_round_trip(self, seed):
        u = random_group(seed).mat
        fz = factorize(u)
        prod = (fz.factors[0] @ fz.factors[1] @ fz.factors[2]).array
        assert np.linalg.norm(prod - u.array) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_factors_commute_and_are_unitary(self, seed):
        fz = factorize(random_group(seed).mat)
        arrs = [f.array for f in fz.factors]
        for i in range(3):
            assert np.linalg.norm(arrs[i].conj().T @ arrs[i] - np.eye(3)) < 1e-10
            for j in range(i + 1, 3):
                assert np.linalg.norm(arrs[i] @ arrs[j] - arrs[j] @ arrs[i]) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_parts_reproduce_factors(self, seed):
        fz = factorize(random_group(seed).mat)
        for f, p in zip(fz.factors, fz.parts):
            got = math.cos(p.beta) * np.eye(3)
            if p.unit is not None:
                got = got + math.sin(p.beta) * p.unit.array
            assert np.linalg.norm(got - f.array) < 1e-10

    @pytest.mark.parametrize("trial", range(12))
    def test_engineered_vanishing_scalar_grade(self, trial):
        """One eigenphase at ±π kills grade 0; inverse routes take over."""
        rng = np.random.default_rng(1000 + trial)
        phi = rng.uniform(-2.0, 2.0)
        sgn = 1.0 if trial % 2 == 0 else -1.0
        u = ComplexMat(exp_reference(
            _skew_from_phases([sgn * math.pi, phi, -sgn * math.pi - phi], rng)).array)
        g = split_HS(u)
        assert rms_norm(g.g0) < 1e-12
        fz = factorize(u)
        prod = (fz.factors[0] @ fz.factors[1] @ fz.factors[2]).array
        assert np.linalg.norm(prod - u.array) < 1e-10
        assert any(r.startswith("inv") for r in fz.routes[:2])

    def test_pseudoscalar_route_identity(self):
        """1 + g6 H_i^{-1} recovers the same factor as the cascade."""
        rng = np.random.default_rng(77)
        u = ComplexMat(exp_reference(
            _skew_from_phases([math.pi, 1.3, -math.pi - 1.3], rng)).array)
        g = split_HS(u)
        fz = factorize(u)
        eye = np.eye(3, dtype=complex)
        for i in range(2):
            if rms_norm(g.H[i]) < 1e-8 or rms_norm(g.g6) < 1e-8:
                continue
            cand = normalize(eye + g.g6.array @ inverse(g.H[i].array))
            d = min(np.linalg.norm(cand.array - fz.factors[i].array),
                    np.linalg.norm(cand.array + fz.factors[i].array))
            assert d < 1e-10

    def test_double_boundary_refused(self):
        rng = np.random.default_rng(5)
        u = ComplexMat(exp_reference(
            _skew_from_phases([math.pi, math.pi, -2.0 * math.pi], rng)).array)
        with pytest.raises((FactorizationFailed, AmbiguousDirection)):
            factorize(u)


class TestPrincipalLog:
    def test_example(self):
        got = principal_log(U_EXAMPLE).array
        want = 1j * (math.pi / 2.0) * np.diag([1.0, -1.0, 0.0])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(
            principal_log(ComplexMat.identity(3)).array, 0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(50))
    def test_exp_round_trip(self, seed):
        u = random_group(seed).mat
        l = principal_log(u)
        assert abs(np.trace(l.array)) < 1e-9
        np.testing.assert_allclose(l.array, -l.array.conj().T, atol=1e-15)
        assert compare(exp_reference(l), u) < 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_inverts_exp_on_moderate_elements(self, seed):
        from su3kit.oracle import random_algebra
        from su3kit.expmap import exp_su3
        b = random_algebra(seed, scale=0.5)
        got = principal_log(exp_su3(b))
        assert np.linalg.norm(got.array - b.mat.array) < 1e-10

    def test_minimal_branch_chosen(self):
        """A source with an eigenphase beyond pi is not its own principal log."""
        rng = np.random.default_rng(5)
        b = _skew_from_phases([4.0, -3.0, -1.0], rng)
        u = ComplexMat(exp_reference(b).array)
        l = principal_log(u)
        assert np.linalg.norm(l.array - b.array) > 1.0
        assert compare(exp_reference(l), u) < 1e-12
        got = np.sort(np.imag(np.linalg.eigvals(l.array)))
        want = np.sort([4.0 - 2 * math.pi, -3.0 + 2 * math.pi, -1.0])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_boundary_raises_ambiguous(self):
        # -1 is unitary (though not special), with all three eigenvalues at -1
        with pytest.raises(AmbiguousDirection):
            principal_log(ComplexMat(-np.eye(3, dtype=complex)))


class TestBranchLog:
    def test_zero_branch_is_principal(self):
        u = random_group(9).mat
        a = principal_log(u).array
        b = branch_log(u, LogBranch(k=(0, 0, 0))).array
        np.testing.assert_allclose(a, b, atol=0)

    @pytest.mark.parametrize("k", [(1, 0, 0), (0, 1, 0), (0, 0, -1),
                                   (1, -1, 0), (1, 1, 1), (-1, 0, 1)])
    def test_round_trip(self, k):
        u = random_group(33).mat
        l = branch_log(u, LogBranch(k=k))
        bound = 1e-8 * (1.0 + 2.0 * math.pi * max(abs(x) for x in k))
        assert compare(exp_reference(l), u) < bound

    def test_branch_changes_log(self):
        u = random_group(14).mat
        a = branch_log(u, LogBranch(k=(0, 0, 0))).array
        b = branch_log(u, LogBranch(k=(1, 0, 0))).array
        assert np.linalg.norm(a - b) > 1.0

    def test_missing_direction(self):
        # the example's middle factor is the identity: no direction to wind
        with pytest.raises(MissingDirection):
            branch_log(U_EXAMPLE, LogBranch(k=(0, 1, 0)))

    def test_branch_validation(self):
        with pytest.raises(Exception):
            LogBranch(k=(1, 2))

    def test_winding_bounded_by_2_53(self):
        # beyond 2**53 a winding is not exact as a float, and 2 pi k overflows from 1e308
        assert LogBranch(k=(2**53, 0, -2**53)).k == (2**53, 0, -2**53)
        for k in (2**53 + 1, -2**53 - 1, 10**309):
            with pytest.raises(InputError, match="2\\*\\*53"):
                LogBranch(k=(0, k, 0))

    def test_numpy_integer_windings_kept_as_ints(self):
        k = LogBranch(k=(np.int64(1), np.int32(0), np.int8(-1))).k
        assert k == (1, 0, -1) and all(type(x) is int for x in k)
        u = random_group(33).mat
        assert _bytes(branch_log(u, (np.int64(1), 0, -1))) == _bytes(branch_log(u, (1, 0, -1)))

    def test_bool_windings_refused(self):
        for k in ((True, 0, 0), (0, False, 0), (np.bool_(True), 0, 0)):
            with pytest.raises(InputError, match="three integers"):
                LogBranch(k=k)

    def test_winding_within_double_precision_round_trips(self):
        u = random_group(3).mat
        for k in ((10**4, 0, 0), (0, -10**4, 0)):
            assert compare(exp_reference(branch_log(u, LogBranch(k=k))), u) <= 1e-9

    @pytest.mark.parametrize("k", [10**5, 10**6, 2**52])
    def test_winding_past_double_precision_refused(self, k):
        # 2 pi k eps passes fact_tol from |k| of about 7.2e4; unrefused,
        # the log round-tripped to 3.3e-10 at 1e5, 2.9e-9 at 1e6 and 74 at 2**52
        u = random_group(3).mat
        for ks in ((k, 0, 0), (0, 0, -k)):
            with pytest.raises(FactorizationFailed, match="the log's factors miss u by"):
                branch_log(u, LogBranch(k=ks))


def _bytes(*mats):
    return b"".join(m.array.tobytes() for m in mats)


def _grade_bytes(g):
    return _bytes(g.g0, g.g2, g.g4, g.g6, g.ccosU, g.ssinU, *g.H, *g.S)


class TestArrayBoundary:
    """A raw array is validated once and gives the GroupElement's bytes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_raw_array_same_bytes(self, seed):
        g = random_group(seed)
        raw = g.mat.array.copy()
        assert _bytes(principal_log(raw)) == _bytes(principal_log(g))
        assert _bytes(branch_log(raw, (1, 0, -1))) == _bytes(branch_log(g, (1, 0, -1)))
        fr, fg = factorize(raw), factorize(g)
        assert fr.routes == fg.routes
        assert _bytes(*fr.factors) == _bytes(*fg.factors)
        assert _bytes(*(p.mat for p in fr.parts)) == _bytes(*(p.mat for p in fg.parts))
        assert _grade_bytes(split_HS(raw)) == _grade_bytes(split_HS(g))
        assert _grade_bytes(fr.grades) == _grade_bytes(fg.grades)
        for f in fg.factors:
            assert _bytes(principal_log_factor(f.array.copy()).mat) == \
                _bytes(principal_log_factor(f).mat)

    def test_validated_only_at_the_boundary(self, monkeypatch):
        g = random_group(3)
        calls = []
        init = ComplexMat.__init__

        def counting(self, entries):
            calls.append(1)
            init(self, entries)

        monkeypatch.setattr(ComplexMat, "__init__", counting)
        # the logs and factorize copy raw entries unscanned: their unitarity
        # check proves them finite; split_HS validates them as a ComplexMat
        ops = {principal_log: 0, (lambda u: branch_log(u, (1, 0, 0))): 0, factorize: 0,
               split_HS: 1}
        for op, raw_inits in ops.items():
            calls.clear()
            op(g)
            assert len(calls) == 0
            op(g.mat.array)
            assert len(calls) == raw_inits


class TestUnitarityOnEntry:
    """Anything but a GroupElement is checked for unitarity once, on entry."""

    OPS = (principal_log, lambda u: branch_log(u, (1, 0, -1)), factorize)

    @pytest.mark.parametrize("wrap", [np.asarray, ComplexMat], ids=["array", "ComplexMat"])
    def test_non_unitary_refused(self, wrap):
        u = wrap(0.5 * random_group(1).mat.array)
        for op in self.OPS:
            with pytest.raises(NotUnitary, match="unitarity residual"):
                op(u)

    def test_det_minus_one_reaches_the_cascade(self):
        for op in self.OPS:
            with pytest.raises(AmbiguousDirection):
                op(-np.eye(3, dtype=complex))

    def test_group_element_not_checked_again(self, monkeypatch):
        calls = []
        check = factorlog._check_group

        def counting(arr, tol, special=True):
            calls.append(special)
            return check(arr, tol, special)

        monkeypatch.setattr(factorlog, "_check_group", counting)
        g = random_group(2)
        for op in self.OPS:
            calls.clear()
            op(g)
            assert calls == []
            op(g.mat)
            assert calls == [False]


# Outcome of s * U over Haar U (seeds 0..19).  principal_log and
# factorize check a raw input for unitarity on entry, so every scale is
# refused there as not unitary, overflowing residuals included.
# split_HS does not check: its normality test and normal kernel run on
# the input scaled by a power of two, so its grades stay finite up to
# 1e100, and from about 1e154 the squared norm overflows.
@pytest.mark.parametrize("scale", [1e-300, 1e-20, 0.5, 2.0, 1e50, 1e100, 1e160, 1e200])
def test_scale_sweep(scale):
    for seed in range(20):
        u = scale * random_group(seed).mat.array
        for op in (principal_log, factorize):
            with pytest.raises(NotUnitary) as info:
                op(u)
            assert type(info.value) is NotUnitary
        if scale <= 1e100:
            g = split_HS(u)
            assert all(np.all(np.isfinite(m.array)) for m in (g.g0, g.g2, g.g4, g.g6, *g.H, *g.S))
        else:
            with pytest.raises(Overflow) as info:
                split_HS(u)
            assert type(info.value) is Overflow
