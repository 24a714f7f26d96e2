"""Matrix value type and the two eigensolvers."""

import dataclasses
import hashlib
import platform
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit import factorlog, smallmat
from su3kit.errors import (
    DimensionMismatch,
    EigenFailure,
    InputError,
    NotDiagonalizable,
    NotNormal,
    NotUnitary,
    Su3KitError,
)
from su3kit.expmap import GroupElement, _check_group, exp_su3
from su3kit.factorlog import Factorization, LogBranch, branch_log, factorize, principal_log
from su3kit.grades import split_HS
from su3kit.invdec import decompose_via_eigen
from su3kit.oracle import compare, exp_reference, random_algebra, random_group
from su3kit.smallmat import (
    _EPS,
    ComplexMat,
    EigenSystem,
    _det3,
    _finite_norm,
    _fro,
    _normal_problem,
    _phase_fix_columns,
    _scaled,
    eigen_general,
    eigen_normal3,
    scalar_residual,
)
from su3kit.tolerances import DEFAULT_TOL

L1 = ComplexMat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
RHO_P1 = ComplexMat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def random_unitary3(rng):
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestComplexMat:
    """The boundary type, and the array helpers _fro and _det3 beside it."""

    def test_square_only(self):
        with pytest.raises(DimensionMismatch):
            ComplexMat([[1, 2, 3], [4, 5, 6]])

    def test_dimension_range(self):
        with pytest.raises(DimensionMismatch):
            ComplexMat([[1]])
        with pytest.raises(DimensionMismatch):
            ComplexMat(np.eye(9))

    def test_finite_entries(self):
        with pytest.raises(ValueError):
            ComplexMat([[np.inf, 0], [0, 1]])
        with pytest.raises(ValueError):
            ComplexMat([[np.nan, 0], [0, 1]])

    def test_non_finite_entries_are_input_errors(self):
        with pytest.raises(InputError):
            ComplexMat([[np.nan, 0], [0, 1]])

    def test_immutable(self):
        m = ComplexMat.identity(3)
        with pytest.raises(AttributeError):
            m._a = None
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_products(self):
        sq = L1 @ L1
        np.testing.assert_allclose(sq.array, np.diag([1.0, 1.0, 0.0]), atol=0)
        with pytest.raises(TypeError):
            L1 @ 3

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            L1 @ ComplexMat.identity(4)

    def test_frobenius_norm(self):
        assert _fro(L1.array) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_det_diagonal_imaginary(self):
        assert _det3(np.diag([0.3j, -0.1j, -0.2j])) == pytest.approx(-0.006j, abs=1e-18)

    def test_det_permutation(self):
        assert _det3(RHO_P1.array) == pytest.approx(-1.0)

    def test_det_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert _det3(a @ b) == pytest.approx(_det3(a) * _det3(b), rel=1e-10)

    def test_getitem(self):
        assert RHO_P1[0, 1] == 1.0
        assert np.array_equal(eval(repr(RHO_P1), {"ComplexMat": ComplexMat}).array, RHO_P1.array)

    def test_scalar_residual(self):
        assert scalar_residual(np.eye(3) * (2 + 1j)) == 0.0
        assert scalar_residual(L1) == pytest.approx(np.sqrt(2.0))


class TestEigenNormal3:
    def test_imaginary_pauli_like(self):
        es = eigen_normal3(ComplexMat(1j * L1.array))
        np.testing.assert_allclose(es.values, [1j, 0.0, -1j], atol=1e-15)

    def test_zero_matrix(self):
        es = eigen_normal3(ComplexMat(np.zeros((3, 3))))
        assert es.values == (0j, 0j, 0j)
        np.testing.assert_allclose(es.vectors.array, np.eye(3), atol=0)

    def test_identity_matrix(self):
        es = eigen_normal3(ComplexMat.identity(3))
        np.testing.assert_allclose(es.values, [1.0, 1.0, 1.0], atol=0)

    def test_rejects_general_matrix(self):
        with pytest.raises(NotNormal):
            eigen_normal3(ComplexMat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            eigen_normal3(ComplexMat.identity(4))

    def test_ordering_rule(self):
        # imag descending, then real descending
        es = eigen_normal3(ComplexMat(np.diag([-1j, 1j, 0.0])))
        np.testing.assert_allclose(es.values, [1j, 0.0, -1j], atol=0)
        es = eigen_normal3(ComplexMat(np.diag([1.0, 3.0, 2.0])))
        np.testing.assert_allclose(es.values, [3.0, 2.0, 1.0], atol=0)

    def test_ordering_permutation_invariant(self):
        rng = np.random.default_rng(5)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = eigen_normal3(ComplexMat(np.diag(d))).values
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            other = eigen_normal3(ComplexMat(np.diag(d[list(perm)]))).values
            np.testing.assert_allclose(other, base, atol=0)

    def test_phase_convention(self):
        rng = np.random.default_rng(17)
        q = random_unitary3(rng)
        a = ComplexMat(q @ np.diag([2.0, -1.0, 0.5]) @ q.conj().T)
        v = eigen_normal3(a).vectors.array
        for j in range(3):
            k = int(np.argmax(np.abs(v[:, j])))
            assert abs(v[k, j].imag) < 1e-14
            assert v[k, j].real > 0

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        q = random_unitary3(rng)
        a = ComplexMat(q @ np.diag([1j, -1j, 0.3]) @ q.conj().T)
        e1, e2 = eigen_normal3(a), eigen_normal3(a)
        assert e1.values == e2.values
        assert np.array_equal(e1.vectors.array, e2.vectors.array)

    def test_inverse_is_adjoint(self):
        rng = np.random.default_rng(29)
        q = random_unitary3(rng)
        a = ComplexMat(q @ np.diag([1.0, 2.0, 3.0]) @ q.conj().T)
        es = eigen_normal3(a)
        np.testing.assert_array_equal(es.inverse_vectors.array, es.vectors.array.conj().T)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_normal_residual(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(50):
            q = random_unitary3(rng)
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = ComplexMat(q @ np.diag(d) @ q.conj().T)
            es = eigen_normal3(a)
            rec = es.vectors.array @ np.diag(es.values) @ es.inverse_vectors.array
            assert np.linalg.norm(rec - a.array) <= DEFAULT_TOL.eig_tol * _fro(a.array)
            u = es.vectors.array
            assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-13

    @pytest.mark.parametrize("split", [1e-6, 1e-9, 1e-12, 0.0])
    def test_clustered_spectrum_residual(self, split):
        rng = np.random.default_rng(77)
        for _ in range(20):
            q = random_unitary3(rng)
            base = rng.standard_normal() + 1j * rng.standard_normal()
            d = np.array([base, base + split * (1 + 1j), rng.standard_normal() + 1j])
            a = ComplexMat(q @ np.diag(d) @ q.conj().T)
            es = eigen_normal3(a)
            rec = es.vectors.array @ np.diag(es.values) @ es.inverse_vectors.array
            assert np.linalg.norm(rec - a.array) <= DEFAULT_TOL.eig_tol * _fro(a.array)

    def test_triple_cluster(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            q = random_unitary3(rng)
            base = rng.standard_normal() + 1j * rng.standard_normal()
            d = base + 1e-10 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            a = ComplexMat(q @ np.diag(d) @ q.conj().T)
            es = eigen_normal3(a)
            rec = es.vectors.array @ np.diag(es.values) @ es.inverse_vectors.array
            assert np.linalg.norm(rec - a.array) <= DEFAULT_TOL.eig_tol * _fro(a.array)

    def test_skew_hermitian_spectrum_on_axis(self):
        # eigenvalues of a skew-Hermitian matrix are purely imaginary
        rng = np.random.default_rng(53)
        q = random_unitary3(rng)
        a = ComplexMat(q @ np.diag(1j * np.array([0.4, -0.1, -0.3])) @ q.conj().T)
        sk = (a.array - a.array.conj().T) / 2
        a = ComplexMat(sk)
        for val in eigen_normal3(a).values:
            assert abs(val.real) < 1e-13


_EPS = float(np.finfo(np.float64).eps)
_OMEGA = np.exp(2j * np.pi / 3)


def _clustered_phases(kind, a):
    """Eigenvalues of a unitary whose spectrum has the named cluster."""
    phases = {
        "h-double": [a, -a, 0.0],  # cos a twice: the Hermitian half H is double
        "k-double": [a, np.pi - a, -np.pi],  # sin a twice: K is double
        "double": [a, a, -2.0 * a],
        "near-double": [a, a + 1e-9, -2.0 * a - 1e-9],
    }
    if kind == "omega":
        return np.full(3, _OMEGA)
    return np.exp(1j * np.array(phases[kind]))


class TestClusteredSpectra:
    """The LAPACK seed plus polish on spectra where the seed's Hermitian half
    or U itself has a double or near-double eigenvalue.

    The polish stops once the off-diagonal mass is under 60 eps ||a||, so
    the reconstruction is checked at 100 eps; the basis is unitary to a few
    eps whatever the spectrum.
    """

    @staticmethod
    def _check_kernel(a):
        es = eigen_normal3(a)
        v = es.vectors.array
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) <= 16 * _EPS
        rec = v @ np.diag(es.values) @ es.inverse_vectors.array
        assert np.linalg.norm(rec - a) <= 100 * _EPS * np.linalg.norm(a)

    @pytest.mark.parametrize("kind", ["h-double", "k-double", "double", "near-double", "omega"])
    def test_unitary(self, kind):
        rng = np.random.default_rng(91)
        for _ in range(40):
            q = random_unitary3(rng)
            u = q @ np.diag(_clustered_phases(kind, rng.uniform(0.01, np.pi - 0.01))) @ q.conj().T
            self._check_kernel(u)
            assert compare(exp_reference(principal_log(u)), u) <= 100 * _EPS

    @pytest.mark.parametrize("scale", [2.0**120, 2.0**-120])
    def test_scaled_haar(self, scale):
        rng = np.random.default_rng(92)
        for _ in range(40):
            self._check_kernel(random_unitary3(rng) * scale)


def _clustered_inputs():
    """The inputs of TestClusteredSpectra, in its order."""
    out = []
    for kind in ["h-double", "k-double", "double", "near-double", "omega"]:
        rng = np.random.default_rng(91)
        for _ in range(40):
            q = random_unitary3(rng)
            out.append(q @ np.diag(_clustered_phases(kind, rng.uniform(0.01, np.pi - 0.01)))
                       @ q.conj().T)
    for scale in [2.0**120, 2.0**-120]:
        rng = np.random.default_rng(92)
        out += [random_unitary3(rng) * scale for _ in range(40)]
    return out


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _eigen_bytes(inputs):
    for a in inputs:
        es = eigen_normal3(a)
        yield np.array(es.values)
        yield es.vectors.array


def _hard_phases(family, rng):
    """Three phases summing to zero from one of the four hard families of the benchmark."""
    s = rng.choice((-1.0, 1.0))
    if family == "near_degenerate":
        a = rng.uniform(0.4, 1.2)
        eps = rng.uniform(1.0, 4.0) * 2e-7 / a
        return (s * a, s * (a + eps), -s * (2.0 * a + eps))
    if family == "boundary":
        p1 = s * (2.0 * np.pi - 2.0 * rng.uniform(1e-6, 1e-3))
    elif family == "cos_zero":
        p1 = s * np.pi
    else:  # near_cos_zero
        off = 10.0 ** rng.uniform(np.log10(5e-8), np.log10(5e-6))
        p1 = s * (np.pi + 2.0 * off * rng.choice((-1.0, 1.0)))
    p2 = -s * rng.uniform(0.3, 1.5)
    return (p1, p2, -p1 - p2)


def _hard_inputs():
    """50 unitaries P diag(e^{i phases}) P^H of each hard family, P Haar."""
    out = []
    for i, family in enumerate(["near_degenerate", "boundary", "cos_zero", "near_cos_zero"]):
        rng = np.random.default_rng(60 + i)
        for _ in range(50):
            ph = np.array(_hard_phases(family, rng))
            p = random_unitary3(rng)
            out.append((p * np.exp(1j * ph)) @ p.conj().T)
    return out


def _outcome(f, *args):
    """f's result as bytes, or its error's class and message."""
    try:
        return f(*args)
    except Su3KitError as exc:
        return f"{type(exc).__name__}: {exc}".encode()


def _parts_bytes(decomposition):
    for part in decomposition.parts:
        yield part.mat.array
        yield np.array([part.beta, part.lam])
        yield b"-" if part.unit is None else part.unit.array


def _factorization_bytes(fz):
    if isinstance(fz, bytes):
        yield fz
        return
    for f in fz.factors:
        yield f.array
    yield from _parts_bytes(fz)
    yield " ".join(fz.routes).encode()
    g = fz.grades
    for m in (g.g0, g.g2, g.g4, g.g6, g.ccosU, g.ssinU, *g.H, *g.S):
        yield m.array


def _log_bytes(m):
    return m if isinstance(m, bytes) else m.array


def _exp_inputs():
    """su(3) inputs of exp_su3: 200 generic (raw and validated), 200 small, 151 norms.

    The small ones are scaled log-uniformly over 1e-6..1e-2 as the
    benchmark's step-size family is; the last set is one direction at
    the Frobenius norms 10^e, e = -300, -297, ..., 150.
    """
    generic = [random_algebra(seed) for seed in range(200)]
    small = [random_algebra(seed, scale=10.0 ** (-6.0 + 4.0 * seed / 199)).mat.array
             for seed in range(200)]
    unit = generic[0].mat.array / np.linalg.norm(generic[0].mat.array)
    norms = [unit * 10.0**e for e in range(-300, 151, 3)]
    return generic + [b.mat.array for b in generic] + small + norms


def _exp_bytes(b):
    u = _outcome(exp_su3, b)
    if isinstance(u, bytes):
        yield u
        return
    yield u.mat.array
    yield np.array([u._dev])


def _digests():
    haar = [random_group(seed).mat.array for seed in range(200)]
    algebra = [random_algebra(seed, scale=1.5).mat.array for seed in range(200)]
    hard = _hard_inputs()
    return {
        "exp_su3 and its _dev": _sha256(b for x in _exp_inputs() for b in _exp_bytes(x)),
        "GroupElement _dev haar": _sha256(np.array([GroupElement(u)._dev]) for u in haar),
        "decompose_via_eigen algebra": _sha256(
            b for x in algebra for b in _parts_bytes(decompose_via_eigen(x))),
        "eigen_normal3 haar": _sha256(_eigen_bytes(haar)),
        "eigen_normal3 algebra": _sha256(_eigen_bytes(algebra)),
        "eigen_normal3 clustered": _sha256(_eigen_bytes(_clustered_inputs())),
        "principal_log haar": _sha256(principal_log(u).array for u in haar),
        "factorize haar": _sha256(f.array for u in haar for f in factorize(u).factors),
        "factorize parts, routes and grades haar": _sha256(
            b for u in haar for b in _factorization_bytes(factorize(u))),
        "branch_log (1, 0, -1) haar": _sha256(
            _log_bytes(_outcome(branch_log, u, LogBranch((1, 0, -1)))) for u in haar),
        "principal_log hard": _sha256(_log_bytes(_outcome(principal_log, u)) for u in hard),
        "factorize hard": _sha256(
            b for u in hard for b in _factorization_bytes(_outcome(factorize, u))),
    }


def _build():
    try:  # numpy < 1.26 has no mode argument; a build may list no LAPACK
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):
        return f"numpy {np.__version__}, unknown LAPACK"
    return f"numpy {np.__version__}, {lapack['name']} {lapack['version']}, {platform.machine()}"


# LAPACK's eigh and the BLAS products round as the build and the CPU's BLAS
# kernels do, so the digests hold only for the build they were recorded with.
_DIGEST_BUILD = "numpy 2.4.6, scipy-openblas 0.3.31.188.0, x86_64"
_DIGESTS = {
    "exp_su3 and its _dev": "7b2c398461da873ba481262e0eda38f1eae04f4b37e282f02714b00b83aa1589",
    "GroupElement _dev haar": "51ad5377c2bd6a0de4cee73127ceef191e2e24e388e5ffcc103c6e51bd83e7b2",
    "decompose_via_eigen algebra":
        "d9b47f548bac1777abc5a87424b4353aeff37789bc07ed0905eb378e8ae8190d",
    "eigen_normal3 haar": "fc6182f552179c6d548ddfdcbae934c22dfa7eb69e596eb65027fa04787621c2",
    "eigen_normal3 algebra": "b8eb6f230b2875385eb6ccb2c60f785336911b2e428860ea018a0ed952189fcb",
    "eigen_normal3 clustered": "76d1a1b5268b3bbd08908959090bc9daa8933b1239eccfe74d94b6016f6cad07",
    "principal_log haar": "24808fcf24707621278d6bb7d93d65273e9f03ee92189a7714a812e40e030ea2",
    "factorize haar": "8ab06e3ef3712ee7e63f596fe4c8475289643df53ab95a657ae55d20c70ee67c",
    "factorize parts, routes and grades haar":
        "546fd9611bb063bcb711f070f97d1957c2c588dfee325b0010fe68eb873d60c0",
    "branch_log (1, 0, -1) haar":
        "f293cb98caf9fada9f9664c28ae4789023ba30f0394354f2e27dde651272b092",
    "principal_log hard": "74d68e987943fa66af50bb2ad656c9ba77d71034de758047603848d54a20749e",
    "factorize hard": "54e866d3be6974f355c375826ca6173a4243a033c3dd80910d5c2306a5d29df3",
}


@pytest.mark.skipif(_build() != _DIGEST_BUILD, reason="digests recorded with " + _DIGEST_BUILD)
def test_kernel_and_log_bytes_pinned():
    """The exp, the boundary checks, the kernels, both logs and factorize, bit for bit.

    exp_su3's output is its matrix and the unitarity residual its exit
    check kept; GroupElement's is that residual alone; a decomposition's
    is each part's matrix, angle, eigenvalue and unit.  factorize's
    output is its factors, its parts, its routes and the grades it
    builds when read.  On the four hard families a refusal counts by
    its class and message.

    Any change to the arithmetic of the kernel or the log path shows
    up here; a change that means to move bits records new digests.
    """
    assert _digests() == _DIGESTS


def _nearly_normal(seed, eps, kind):
    """A normal 3x3 matrix plus eps times a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q = random_unitary3(rng)
    d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    if kind == "unitary":
        d = d / np.abs(d)
    elif kind == "double":
        d[1] = d[0]
    elif kind == "near-double":
        d[1] = d[0] + 1e-9
    a = (q * d) @ q.conj().T
    return a + eps * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-16.0, -6.0),
       kind=st.sampled_from(["generic", "unitary", "double", "near-double"]))
def test_nearly_normal_input_is_solved_or_refused(seed, exponent, kind):
    """A unitary basis that reconstructs to eig_tol, or NotNormal / EigenFailure; nothing else."""
    a = _nearly_normal(seed, 10.0**exponent, kind)
    try:
        es = eigen_normal3(a)
    except (NotNormal, EigenFailure):
        return
    v = es.vectors.array
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) <= 1e-14
    rec = (v * np.array(es.values)) @ es.inverse_vectors.array
    assert np.linalg.norm(rec - a) <= DEFAULT_TOL.eig_tol * np.linalg.norm(a)


def _special_unitary3(rng):
    q = random_unitary3(rng)
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / 3.0)


def _near_unitary(seed, target, kind):
    """A special unitary perturbed to a unitarity residual of about target.

    "general" adds a complex Gaussian direction.  "worst" is
    V diag(sqrt(1 + s), sqrt(1 - s), 1) (V r)^H, where
    ||a a^H - a^H a|| = 2 ||a^H a - 1|| exactly: the bound the normality
    shortcut rests on, met with equality.
    """
    rng = np.random.default_rng(seed)
    u = _special_unitary3(rng)
    if kind == "worst":
        s = target / np.sqrt(2.0)
        phi = rng.uniform(0.3, 2.5)
        # r diag(s, -s, 0) r^H = diag(-s, s, 0), det r = 1, and a's eigenvalues
        # are those of r^H, +-e^{i phi / 2} and -e^{-i phi}
        r = np.array([[0.0, 1.0, 0.0], [np.exp(-1j * phi), 0.0, 0.0], [0.0, 0.0, -np.exp(1j * phi)]])
        return (u * np.sqrt([1.0 + s, 1.0 - s, 1.0])) @ (u @ r).conj().T
    e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    e = e * (1e-12 / np.linalg.norm(u.conj().T @ e + e.conj().T @ u))
    return u + e * (target / 1e-12)


def _normal_tols(a, dev, edge, c):
    """normal_tol values around the normality verdicts of a: 0, c * 2 dev / nrm^2, or an edge."""
    nrm = float(np.linalg.norm(a))
    if edge == "zero":
        return 0.0
    if edge == "ratio":
        return c * 2.0 * dev / (nrm * nrm)
    if edge == "shortcut":  # the least normal_tol at which the shortcut is taken
        bound = 2.0 * dev * (1.0 + 16.0 * _EPS) + 16.0 * _EPS * nrm * nrm
        x = bound / (nrm * nrm)
        while not bound <= x * nrm * nrm:
            x = np.nextafter(x, np.inf)
        return x
    adj = a.conj().T  # "commutator": the full test's own edge, one step either side
    x = float(np.linalg.norm(a @ adj - adj @ a)) / (nrm * nrm)
    return np.nextafter(x, np.inf if c >= 1.0 else 0.0)


def _factor_key(factors, units, parts, routes, spectrum):
    return tuple(routes), [beta for beta, _ in parts], factors.tobytes()


def _check_shortcut(seed, frac, grp_tol, kind, edge, c):
    """The logs and factorize give what they give with the commutator test run in full.

    a has a unitarity residual of about frac * grp_tol; the same value
    or the same error (class and message) comes out either way, so the
    shortcut refuses as NotNormal exactly when the full test does.
    """
    a = _near_unitary(seed, frac * grp_tol, kind)
    tol = dataclasses.replace(DEFAULT_TOL, grp_tol=grp_tol)
    try:
        dev = _check_group(a, tol, special=False)
    except NotUnitary:
        return
    tol = dataclasses.replace(tol, normal_tol=_normal_tols(a, dev, edge, c))
    with np.errstate(all="ignore"):
        log = _outcome(lambda: principal_log(a, tol).array.tobytes())
        assert log == _outcome(lambda: factorlog._log_sum(a, None, (0, 0, 0), tol).tobytes())
        wound = _outcome(lambda: branch_log(a, (1, 0, -1), tol).array.tobytes())
        assert wound == _outcome(lambda: factorlog._log_sum(a, None, (1, 0, -1), tol).tobytes())
        fz = _outcome(lambda: factorize(a, tol))
        full = _outcome(lambda: _factor_key(*factorlog._factor_parts(a, None, tol)))
    if isinstance(fz, Factorization):
        fz = (fz.routes, [p.beta for p in fz.parts],
              b"".join(f.array.tobytes() for f in fz.factors))
    assert fz == full
    normal = _normal_problem(a, _finite_norm(a), tol) is None
    assert normal or log.startswith(b"NotNormal: ")


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 1.0),
       grp_tol=st.one_of(st.just(DEFAULT_TOL.grp_tol),
                         st.floats(-11.0, 0.0).map(lambda x: 10.0**x)),
       kind=st.sampled_from(["general", "worst"]),
       edge=st.sampled_from(["zero", "ratio", "shortcut", "commutator"]),
       c=st.floats(-3.0, 3.0).map(lambda x: 2.0**x))
def test_normality_shortcut_matches_the_commutator_test(seed, frac, grp_tol, kind, edge, c):
    """Residuals in [0, grp_tol], grp_tol up to 1, and normal_tol at 0,
    around 2 dev / ||U||^2 and at both edges."""
    _check_shortcut(seed, frac, grp_tol, kind, edge, c)


def test_normality_shortcut_keeps_its_rounding_margin():
    """The computed commutator exceeds 2 dev here; without the 16 eps nrm^2 margin
    the shortcut would accept what the full test refuses."""
    _check_shortcut(0, 0.78125, DEFAULT_TOL.grp_tol, "worst", "commutator", 0.5)


class TestNanBasisRefused:
    """A basis with NaN entries fails the kernels' residual gates, not only later checks."""

    def test_normal_kernel(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda g: (eigh(g)[0], np.full((3, 3), np.nan + 0j)))
        rotations = []
        monkeypatch.setattr(smallmat, "_pair_rotation", lambda *args: rotations.append(args))
        g = random_group(1)
        # the logs and factorize reach the kernel only where their closed
        # forms decline, as near the identity
        near_one = exp_su3(random_algebra(1, scale=1e-3))
        assert factorlog._closed_form_log(near_one.mat.array, near_one._dev, DEFAULT_TOL) is None
        assert factorlog._closed_form_factors(near_one.mat.array, near_one._dev,
                                              DEFAULT_TOL) is None
        with np.errstate(invalid="ignore"):
            for op, u in ((eigen_normal3, g), (principal_log, near_one), (factorize, near_one),
                          (split_HS, g)):
                with pytest.raises(EigenFailure):
                    op(u)
        assert rotations == []  # the polish stops at a NaN off-diagonal

    @pytest.mark.parametrize("what", ["vectors", "values"])
    def test_general_kernel(self, monkeypatch, what):
        eig = np.linalg.eig

        def nan_eig(a):
            w, v = eig(a)
            return (w, np.full_like(v, np.nan)) if what == "vectors" else (np.full_like(w, np.nan), v)

        monkeypatch.setattr(np.linalg, "eig", nan_eig)
        with np.errstate(invalid="ignore"), pytest.raises(NotDiagonalizable):
            eigen_general(ComplexMat(np.diag([1, 2, 3, 4])))


def _phase_fix_loop(v):
    """The column-by-column phase convention that _phase_fix_columns vectorizes."""
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        mag = abs(col[k])
        if mag > 0.0:
            v[:, j] = col * (col[k].conjugate() / mag)
    return v


@pytest.mark.parametrize("n", range(2, 9))
def test_phase_fix_matches_the_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v[1] = v[0] if rng.random() < 0.2 else v[1]  # ties for the pivot
        v[:, 0] = 0.0 if rng.random() < 0.2 else v[:, 0]
        v = v * 10.0 ** rng.integers(-300, 300)
        assert _phase_fix_columns(v).tobytes() == _phase_fix_loop(v).tobytes()


class TestEigenGeneral:
    def test_diagonal_ordering(self):
        es = eigen_general(ComplexMat(np.diag([1, 2, 3, 4])))
        np.testing.assert_allclose(es.values, [4.0, 3.0, 2.0, 1.0], atol=0)

    def test_matches_normal_solver(self):
        rng = np.random.default_rng(67)
        q = random_unitary3(rng)
        a = ComplexMat(q @ np.diag([1j, -1j, 0.25]) @ q.conj().T)
        g = eigen_general(a)
        n3 = eigen_normal3(a)
        np.testing.assert_allclose(g.values, n3.values, atol=1e-12)

    def test_nondiagonalizable_jordan_block(self):
        with pytest.raises(NotDiagonalizable):
            eigen_general(ComplexMat([[1, 1], [0, 1]]))

    def test_near_jordan_keeps_contract(self):
        # a tiny eigenvalue split is accepted only because the verified
        # residual still lands inside eig_tol; an exact block raises
        a = ComplexMat([[1, 1], [0, 1.0000001]])
        try:
            es = eigen_general(a)
        except NotDiagonalizable:
            return
        rec = es.vectors.array @ np.diag(es.values) @ es.inverse_vectors.array
        assert np.linalg.norm(rec - a.array) <= DEFAULT_TOL.eig_tol * _fro(a.array)

    def test_residual_random_diagonalizable(self):
        rng = np.random.default_rng(71)
        for n in (2, 3, 4, 6, 8):
            for _ in range(10):
                p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                a = ComplexMat(p @ np.diag(d) @ np.linalg.inv(p))
                es = eigen_general(a)
                rec = es.vectors.array @ np.diag(es.values) @ es.inverse_vectors.array
                assert np.linalg.norm(rec - a.array) <= DEFAULT_TOL.eig_tol * _fro(a.array)

    def test_repeated_eigenvalue_orthonormalized(self):
        es = eigen_general(ComplexMat.identity(4))
        v = es.vectors.array
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_returns_eigensystem(self):
        assert isinstance(eigen_general(ComplexMat(np.diag([1, 2]))), EigenSystem)


def _cluster_cases():
    """Normal matrices Q diag(d) Q^H whose spectra cluster in three shapes.

    g is near the cluster gap the kernel applies, cluster_gap times the
    norm (2.8 to 4.1 here), and the offsets in imaginary part fix the
    kernel's sort order.
    """
    g = DEFAULT_TOL.cluster_gap * 3.0
    cases = {
        # a ~ b ~ c with |a - c| >= gap, in the sort order (1j,) c, x, a, b: the
        # last pair joins a to the cluster {c, b} that an earlier pair formed
        "transitive chain": [1.0, 1.0 + 0.7 * g - 0.1j * g, 1.0 + 1.4 * g + 0.1j * g,
                             -2.0 + 0.05j * g, 1.0j],
        # {a1, a2} and {b1, b2} in the sort order a1, b1, a2, b2
        "interleaved clusters": [1.0 + 1.0j, 2.0 + (1.0 - 1e-10) * 1j, 1.0 + (1.0 - 2e-10) * 1j,
                                 2.0 + (1.0 - 3e-10) * 1j, -1.5 - 0.5j],
        "triple cluster": [0.5 + 1.5j, 0.5 + 1.5j + 2e-10, 0.5 + (1.5 - 2e-10) * 1j, -1.0, 1.25],
    }
    out = {}
    for seed, (name, d) in enumerate(cases.items()):
        rng = np.random.default_rng(200 + seed)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q = np.linalg.qr(z)[0]
        out[name] = (np.array(d), q @ np.diag(d) @ q.conj().T)
    return out


_CLUSTER_DIGESTS = {
    "transitive chain": "dad0b47f2e0ca1170f267726ab9445235bc9f4cb5a387d075fd57821f4fee653",
    "interleaved clusters": "37eed08f0b29e4c86bbf84205ca5edcc45a619fcfe7a23c5c47fb5e67e55b6fe",
    "triple cluster": "28b89ba82dba17326d7a4aea7d320439c70659b5cb75b996be85f28bc1a29071",
}


@pytest.mark.skipif(_build() != _DIGEST_BUILD, reason="digests recorded with " + _DIGEST_BUILD)
@pytest.mark.parametrize("name", list(_CLUSTER_DIGESTS))
def test_eigen_general_cluster_bytes_pinned(name):
    """eigen_general's clusters, Gram-Schmidt within each, bit for bit.

    The first assertions check that each case has the cluster shape its
    name says, at the gap the kernel applies to the input's norm.
    """
    d, a = _cluster_cases()[name]
    gap = DEFAULT_TOL.cluster_gap * np.linalg.norm(a)
    close = np.abs(d[:, None] - d) < gap
    shapes = {
        "transitive chain": close[0, 1] and close[1, 2] and not close[0, 2],
        "interleaved clusters": close[0, 2] and close[1, 3] and not close[0, 1],
        "triple cluster": close[:3, :3].all() and close.sum() == 9 + 2,
    }
    assert shapes[name]
    es = eigen_general(a)
    order = [int(np.argmin(np.abs(d - w))) for w in es.values]
    if name == "transitive chain":
        assert order == [4, 2, 3, 0, 1]
    if name == "interleaved clusters":
        assert order[:4] == [0, 1, 2, 3]
    assert _sha256([np.array(es.values), es.vectors.array,
                    es.inverse_vectors.array]) == _CLUSTER_DIGESTS[name]


class TestScaleFree:
    """The normality test and the normal kernel run on the input scaled by 2^k
    when its norm is outside [2^-100, 2^100], and on the input itself inside."""

    @pytest.mark.parametrize("nrm", [2.0**-99, 1e-20, 1.0, 1e20, 2.0**99])
    def test_plain_range_not_scaled(self, nrm):
        arr = random_unitary3(np.random.default_rng(4)) * (nrm / np.sqrt(3.0))
        scaled, snrm, k = _scaled(arr, np.linalg.norm(arr))
        assert scaled is arr and k == 0

    @pytest.mark.parametrize("nrm", [1e-320, 1e-200, 2.0**-101, 2.0**101, 1e150])
    def test_scaled_exactly(self, nrm):
        arr = random_unitary3(np.random.default_rng(5)) * (nrm / np.sqrt(3.0))
        scaled, snrm, k = _scaled(arr, float(np.linalg.norm(arr)))
        assert 0.5 <= np.max(np.abs(scaled)) < 1.0
        assert snrm == np.linalg.norm(scaled)
        np.testing.assert_array_equal(np.ldexp(scaled.real, -k), arr.real)
        np.testing.assert_array_equal(np.ldexp(scaled.imag, -k), arr.imag)

    def test_zero_matrix(self):
        scaled, snrm, k = _scaled(np.zeros((3, 3), dtype=np.complex128), 0.0)
        assert not scaled.any() and snrm == 0.0 and k == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_at_every_scale(self, seed):
        u = random_unitary3(np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(-300, 151, 10):
                s = 10.0**e
                es = eigen_normal3(u * s)
                np.testing.assert_allclose(np.abs(es.values), s, rtol=1e-12)
                assert all(np.all(np.isfinite(m.array)) for m in split_HS(u * s).H)
