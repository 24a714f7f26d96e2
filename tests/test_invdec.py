"""Invariant decomposition: frozen examples and property sweeps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit.errors import (
    DegenerateLambdas,
    DimensionMismatch,
    InvalidAlgebraElement,
    NonFiniteEntries,
    Overflow,
    Su3KitError,
)
from su3kit.invdec import (
    AlgebraElement,
    InvariantDecomposition,
    SimplePart,
    _cubic_roots,
    decompose_closed_form,
    decompose_nxn,
    decompose_via_eigen,
    lambda_roots,
)
from su3kit.expmap import exp_su3
from su3kit.oracle import compare, exp_reference, random_algebra
from su3kit.smallmat import ComplexMat, _det3, _fro, eigen_general, scalar_residual
from su3kit.tolerances import DEFAULT_TOL


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
        total = dec.parts[0].mat.array + dec.parts[1].mat.array + dec.parts[2].mat.array
        np.testing.assert_allclose(total, B_EXAMPLE.array, atol=1e-14)

    def test_worked_example_betas(self):
        dec = decompose_via_eigen(B_EXAMPLE)
        got = sorted(p.beta for p in dec.parts)
        np.testing.assert_allclose(got, [0.05, 0.1, 0.15], atol=1e-14)

    def test_zero_matrix(self):
        dec = decompose_via_eigen(ComplexMat(np.zeros((3, 3))))
        for p in dec.parts:
            assert p.beta == 0.0
            assert p.unit is None
            np.testing.assert_allclose(p.mat.array, 0, atol=0)

    @pytest.mark.parametrize("seed", range(40))
    def test_invariants_random(self, seed):
        b = random_algebra(seed, scale=1.0 + 0.5 * (seed % 4))
        dec = decompose_via_eigen(b)
        assert dec.sum_residual() < 1e-10 * max(1.0, _fro(b.mat.array))
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
        assert lambda_roots(ComplexMat(np.zeros((3, 3)))) == (0.0, 0.0, 0.0)

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
            best = min(_fro(cf.mat.array - p.mat.array) for p in dec.parts)
            assert best < 1e-8 * max(1.0, _fro(b.mat.array))

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
        with pytest.raises(DegenerateLambdas, match="expected 3 lambdas, got 2"):
            decompose_closed_form(B_EXAMPLE, lambda_roots(B_EXAMPLE)[:2])

    def test_all_zero_refused(self):
        with pytest.raises(DegenerateLambdas):
            decompose_closed_form(ComplexMat(np.zeros((3, 3))), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("lams", [(-1.0, -2.0, -3.0),
                                      tuple(2.0 * x for x in lambda_roots(B_EXAMPLE))])
    def test_lambdas_of_another_element_refused(self, lams):
        # the Lagrange parts sum to B and commute for any lambdas: only
        # b_i^2 = lambda_i 1 tells that these are not B's
        with pytest.raises(DegenerateLambdas, match="square to their lambdas"):
            decompose_closed_form(B_EXAMPLE, lams)

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    @pytest.mark.parametrize("seed", range(10))
    def test_large_norms_match_eigen_route(self, seed, scale):
        # the parts are built on B * 2^k: no B^2 or det B overflows near 1e150
        b = random_algebra(seed).mat.array * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parts = decompose_closed_form(b, lambda_roots(b)).parts
            eig = decompose_via_eigen(b).parts
        for p in parts:
            best = min(_fro((p.mat.array - q.mat.array) / scale) for q in eig)
            assert best <= 1e-13 * _fro(b / scale)


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
        total = parts[0].mat.array
        for p in parts[1:]:
            total = total + p.mat.array
        nrm = max(1.0, _fro(m.array))
        assert _fro(total - m.array) < 1e-9 * nrm
        for i, p in enumerate(parts):
            x = p.mat.array
            assert scalar_residual(x @ x) < 1e-9 * nrm * nrm
            for q in parts[i + 1:]:
                y = q.mat.array
                assert _fro(x @ y - y @ x) < 1e-9 * nrm * nrm

    def test_too_small(self):
        with pytest.raises(InvalidAlgebraElement):
            decompose_nxn(ComplexMat(np.diag([1.0 + 0j, 2.0])))


# The ComplexMat arithmetic that the array residuals and the array
# decompose_nxn replaced, one operation at a time, each result checked
# finite as that arithmetic checked it; the array versions must give
# the same bits.

def _checked(a):
    return ComplexMat(a).array


def _complexmat_sum_residual(dec):
    total = dec.parts[0].mat.array
    for p in dec.parts[1:]:
        total = _checked(total + p.mat.array)
    return _fro(_checked(total - dec.source.array))


def _complexmat_max_commutator(dec):
    worst = 0.0
    ps = [p.mat.array for p in dec.parts]
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            xy, yx = _checked(ps[i] @ ps[j]), _checked(ps[j] @ ps[i])
            worst = max(worst, _fro(_checked(xy - yx)))
    return worst


def _complexmat_nxn_parts(m):
    n = m.n
    es = eigen_general(m)
    t = complex(np.trace(m.array))
    parts = []
    for i in range(n):
        coef = (es.values[i] - t / (n - 2)) / 2.0
        proj = np.outer(es.vectors.array[:, i], es.inverse_vectors.array[i, :])
        parts.append((ComplexMat(coef * (2.0 * proj - np.eye(n))), complex(coef * coef)))
    return parts


def _diagonalizable(rng, n):
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ComplexMat(p @ d @ np.linalg.inv(p))


class TestArrayResiduals:
    """Array residuals and decompose_nxn parts match the ComplexMat arithmetic bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_nxn_same_bits(self, n, seed):
        m = _diagonalizable(np.random.default_rng(1000 * n + seed), n)
        parts = decompose_nxn(m)
        dec = InvariantDecomposition(parts=tuple(parts), source=m)
        assert dec.sum_residual().hex() == _complexmat_sum_residual(dec).hex()
        assert dec.max_commutator_residual().hex() == _complexmat_max_commutator(dec).hex()
        if n > 3:
            want = _complexmat_nxn_parts(m)
            assert [p.mat.array.tobytes() for p in parts] == [w.array.tobytes() for w, _ in want]
            assert [p.lam for p in parts] == [lam for _, lam in want]

    @pytest.mark.parametrize("seed", range(8))
    def test_su3_same_bits(self, seed):
        dec = decompose_via_eigen(random_algebra(seed))
        assert dec.sum_residual().hex() == _complexmat_sum_residual(dec).hex()
        assert dec.max_commutator_residual().hex() == _complexmat_max_commutator(dec).hex()

    @pytest.mark.parametrize("b", [
        *(random_algebra(seed) for seed in range(6)),
        # a part whose beta (5e-15) is below beta_zero_tol, and one that vanishes
        np.diag([1j, -1j + 1e-14j, -1e-14j]),
        np.diag([0.3j, -0.3j, 0.0]),
    ])
    def test_su3_units_same_bits(self, b):
        parts = decompose_via_eigen(b).parts
        assert any(p.unit is not None for p in parts)
        for p in parts:
            assert p.lam.imag == 0.0 and p.beta == math.sqrt(max(0.0, -p.lam.real))
            if p.beta < DEFAULT_TOL.beta_zero_tol:
                assert p.unit is None
            else:
                assert p.unit.array.tobytes() == (p.mat.array * complex(1.0 / p.beta)).tobytes()
        if isinstance(b, np.ndarray):
            assert [p.unit is None for p in parts].count(True) == 1

    def test_overflowing_commutator_norm_refused(self):
        # finite parts whose commutator is finite but whose squared norm
        # overflows: the ComplexMat arithmetic returns inf, the array way
        # refuses it as Overflow
        x = ComplexMat([[1e160, 0], [0, 0]])
        y = ComplexMat([[0, 1], [0, 0]])
        parts = tuple(SimplePart(mat=p, lam=0j, beta=None, unit=None) for p in (x, y))
        dec = InvariantDecomposition(parts=parts, source=ComplexMat(np.zeros((2, 2))))
        with np.errstate(over="ignore"):
            assert _complexmat_max_commutator(dec) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(Overflow):
                dec.max_commutator_residual()

    def test_overflowing_square_of_a_part_is_no_pair(self):
        # a @ a overflows, but no commutator does: the stacked products hold
        # [a, a] = inf - inf, which is no pair and must not be refused
        a = ComplexMat([[1e200, 0], [0, 0]])
        b = ComplexMat([[0, 1e-100], [0, 0]])
        parts = tuple(SimplePart(mat=p, lam=0j, beta=None, unit=None) for p in (a, b))
        dec = InvariantDecomposition(parts=parts, source=ComplexMat(np.zeros((2, 2))))
        assert dec.max_commutator_residual() == _complexmat_max_commutator(dec) == 1e100
        # nor does a alone, or no part at all
        for alone in (parts[:1], ()):
            dec = InvariantDecomposition(parts=alone, source=ComplexMat(np.zeros((2, 2))))
            assert dec.max_commutator_residual() == _complexmat_max_commutator(dec) == 0.0

    def test_first_failing_pair_decides_the_refusal(self):
        # [a, b] overflows only its norm, [a, c] has an inf entry: pairs
        # are judged in the order (0, 1), (0, 2), (1, 2)
        a = ComplexMat([[1e160, 0], [0, 0]])
        b = ComplexMat([[0, 1], [0, 0]])
        c = ComplexMat([[0, 0], [1e300, 0]])
        for order, error in (((a, b, c), Overflow), ((a, c, b), NonFiniteEntries)):
            parts = tuple(SimplePart(mat=p, lam=0j, beta=None, unit=None) for p in order)
            dec = InvariantDecomposition(parts=parts, source=ComplexMat(np.zeros((2, 2))))
            with pytest.raises(error):
                dec.max_commutator_residual()

    def test_overflowing_residuals_refused(self):
        # finite parts whose sum and products overflow: refused as the
        # ComplexMat arithmetic refuses them, not returned as inf or NaN
        x = ComplexMat([[1e308, 1e200], [0, 0]])
        y = ComplexMat([[1e308, 0], [1e200, 0]])
        parts = tuple(SimplePart(mat=p, lam=0j, beta=None, unit=None) for p in (x, y))
        dec = InvariantDecomposition(parts=parts, source=ComplexMat(np.zeros((2, 2))))
        for array_way, complexmat_way in ((dec.sum_residual, _complexmat_sum_residual),
                                          (dec.max_commutator_residual, _complexmat_max_commutator)):
            # the ComplexMat arithmetic also warns on the way
            with pytest.raises(NonFiniteEntries), np.errstate(over="ignore", invalid="ignore"):
                complexmat_way(dec)
            with pytest.raises(NonFiniteEntries):
                array_way()


def _unit_algebra(seed):
    """A random su(3) element of Frobenius norm 1 (up to rounding)."""
    b = random_algebra(seed).mat.array
    return b / np.linalg.norm(b)


class TestScaleFree:
    """Tiny and huge su(3) elements: the normal kernel runs on a power-of-two rescaling."""

    # norms are taken as 10^e, since np.linalg.norm underflows below about 1e-154
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-300.0, 3.0))
    def test_property_over_norms(self, seed, e):
        b = _unit_algebra(seed) * 10.0**e
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert compare(exp_su3(b), exp_reference(b)) <= 1e-10
            parts = decompose_via_eigen(b).parts
        total = sum(p.mat.array for p in parts)
        assert np.linalg.norm((total - b) * 10.0**-e) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_decomposes_at_every_norm(self, seed):
        bh = _unit_algebra(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(-320, 154):
                decompose_via_eigen(bh * 10.0**e)

    def test_squared_norm_overflow_still_refused(self):
        with pytest.raises(Overflow):
            decompose_via_eigen(_unit_algebra(0) * 1e155)


class TestArrayClosedForm:
    def _count_constructions(self, monkeypatch):
        calls = []
        init = ComplexMat.__init__

        def counting(self, entries):
            calls.append(1)
            init(self, entries)

        monkeypatch.setattr(ComplexMat, "__init__", counting)
        return calls

    @pytest.mark.parametrize("seed", range(5))
    def test_no_validated_arithmetic(self, seed, monkeypatch):
        b = random_algebra(seed)
        lams = lambda_roots(b)
        calls = self._count_constructions(monkeypatch)
        assert lambda_roots(b) == lams
        dec = decompose_closed_form(b, lams)
        assert calls == []
        assert len(dec.parts) == 3 and all(p.unit is not None for p in dec.parts)

    def test_overflowing_shift_refused(self):
        # lambdas this far below B's are not B's: the parts' squares
        # overflow, and the square gate refuses them without numpy's RuntimeWarning
        with pytest.raises(DegenerateLambdas):
            decompose_closed_form(B_EXAMPLE, (-1e-320, -2e-320, -3e-320))


class TestRelativeTraceGate:
    """The trace gate is alg_tol * max(1, ||B||), like the skew gate."""

    def test_large_elements_accepted(self):
        # trace round-off grows with the norm: about half of these were refused
        for seed in range(200):
            b = _unit_algebra(seed) * 1e8
            AlgebraElement(b)
            assert all(p.beta is not None for p in decompose_via_eigen(b).parts)

    def test_unit_norm_trace_still_refused(self):
        b = _unit_algebra(0) + (1e-8j / 3.0) * np.eye(3)
        with pytest.raises(InvalidAlgebraElement, match="trace"):
            AlgebraElement(b)


class TestLambdaRootsScaleFree:
    """The cubic runs on a power-of-two rescaling: no overflow up to the norm limit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_norms(self, seed):
        bh = _unit_algebra(seed)
        ref = np.array(lambda_roots(bh))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(154):
                try:
                    roots = np.array(lambda_roots(bh * 10.0**e))
                except Su3KitError:
                    continue
                assert np.all(np.isfinite(roots))
                assert np.max(np.abs(roots * 10.0 ** (-2 * e) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_same_bits_inside_the_plain_range(self):
        """Inside [2^-100, 2^100] the cubic is solved for B itself, bit for bit."""
        for scale in (2.0**-99, 1.0, 2.0**99):
            b = _unit_algebra(3) * scale
            nrm = float(np.linalg.norm(b))
            roots = _cubic_roots(0.5 * nrm * nrm, abs(_det3(b).imag))
            want = sorted((-0.25 * q * q for q in roots), reverse=True)
            assert lambda_roots(b) == tuple(want)
