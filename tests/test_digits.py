"""The invariant decomposition and the logs against results computed to 40 digits.

mpmath's eig at 40 digits gives B's eigenvalues mu_i and its right and
left eigenvectors r_i, l_i.  The exact part i is (mu_i / 2)(2 P_i - 1)
with P_i = r_i l_i / (l_i r_i), which shares no code with either route.
Each route's part is judged against the nearest exact part, in units
of eps max(1, ||B||): on these 150 seeds the closed form reached about
6 and the eigen route about 2.6.

The exact principal log of U is i sum theta_j P_j over U's eigenvalues
and projectors at 40 digits, theta U's eigenphases shifted by 2 pi k,
k in {-1, 0, 1}^3, of sum nearest 0 and, among those, of least norm:
su3kit's traceless least-norm rule.  On random_group(0..149) the closed
monomial form (142 U) reached a median of 1.1 and a max of 3.7 eps
max(1, ||L||), the projector form, where the monomial form's
coefficient gate declines (8 U), 1.0 and 2.8.  On the near-cut
family (a pair of eigenvalues on both sides of -1, 1e-12 to 1e-1 from
it) every U takes the eigen path.  Its log is ill-conditioned: an eps
in U moves L by up to kappa eps, kappa = max |theta_i - theta_j| /
|e_i - e_j|, about 2 pi over the pair's gap, so the bound there is
multiplied by kappa; the eigen path (57 U, 3 refused) reached a median
of 0.14 and a max of 0.6 in those units.  The projector form is judged
in those units too, on cos-zero U (26 of 50), the near-cos-zero stream
(58 of 100) and random_group(0..999) (40): medians 0.22, 0.25 and
0.13, maxima 0.67, 0.57 and 0.92, and unscaled at most 2.4, 9.3 and
4.5 eps max(1, ||L||).

A branch log turns phase j by 2 pi n_j, n_j = sum_i k_i sign(theta_i)
sigma_ij with sigma_ij = 1 where i = j and -1 elsewhere (part i's sign
pattern), so the exact branch log is i sum (theta_j + 2 pi n_j) P_j,
the eigenvalues in su3kit's order.  On random_group(0..99), each U with
every winding in {-1, 0, 1}^3, both routes are judged wherever they
run: the closed form (purified Lagrange projectors, 2700 logs) reached
a median of 0.83 and a max of 2.9 eps max(1, ||L||), the eigen path
(2700) 1.2 and 3.9.

``factorize`` is judged per route: factor i against exp(i c_i (2 P_i - 1))
over mpmath's eigenvalues and projectors at 40 digits, c_i fixed by the
result's signs and 2 pi branches (``_exact_factors``), in units of
eps max(1, ||U||) kappa, kappa = max(1, 1 / min |e_i - e_j|), since an
eps in U moves P_i by eps over its gap (unscaled, a vanishing-g0 U with
a gap of 0.034 reached 31); the product against U in eps max(1, ||U||).
Medians and maxima of the factors: random_group(0..149), all
simple/simple/closing, 1.24 and 2.83; 150 boundary U 0.75 and 1.73;
50 cos-zero U 1.59 and 2.81 (inv_b, 23) and 1.42 and 1.99 (simple/inv_a,
27); the 100 near-cos-zero U, all on the eigen route, 1.71 and 3.49;
50 vanishing-g0 U 1.68 and 3.22 (inv_b, 26) and 1.27 and 2.87
(simple/inv_a, 24).  The products reached 9.03 at most.  Most of these
U take the closed form; when the eigen path still took the cos-zero
families, the cascade's factors reached 2.61 and 2.91 and the products
5.93.

The closed forms' eigenvalues, the roots of the characteristic cubic of
U - tr U / 3 (``factorlog._cubic_eigenvalues``), are judged against
mpmath's eigenvalues at 40 digits: on random_group(0..149) they reached
a max of 1.6 eps, and on 150 boundary U (eigenvalues near 1 and
e^{+-i r}, r 0.3 to 1.5) 1.3 eps, where the cubic of U itself reached 24.

The exponential is judged against mpmath's expm at 40 digits, each of
``exp_su3`` and ``oracle.exp_reference`` on its own, so that neither
hides behind the other: on 150 B of each family (generic at scale 1.5,
small at 1e-4, the benchmark's near-degenerate and boundary regimes,
large at scale 30) exp_su3 reached a max of 3.1 eps max(1, ||B||) and
exp_reference 2.4.

``lambda_roots`` is judged against B's eigenvalues mu at 40 digits,
lambda = mu^2 / 4, in units of eps max|lambda|: on 300 B each it
reached a max of 2.6 (generic), 3.0 (small), 5.7 (boundary) and 2.2
(large).  On the near-degenerate regime, a lambda pair about 1e-7
apart, it reached a median of 5.4e5 and a max of 5.9e6, about 1.3e-9
max|lambda|: the invariants fix a near-double split only to about eps
over the split (see its docstring).
"""

import itertools
import math
import statistics

import mpmath
import numpy as np
import pytest
from test_closed_factorize import boundary_u
from test_closed_log import _group, _phases
from test_factor_eigenbasis import _family, near_cos_zero_stream

from su3kit import factorlog
from su3kit.bench import _regime_inputs
from su3kit.errors import DegenerateLambdas, Su3KitError
from su3kit.expmap import GroupElement, exp_su3
from su3kit.factorlog import factorize, principal_log
from su3kit.invdec import decompose_closed_form, decompose_via_eigen, lambda_roots
from su3kit.oracle import exp_reference, random_algebra, random_group
from su3kit.smallmat import _order_indices
from su3kit.tolerances import DEFAULT_TOL

EPS = float(np.finfo(np.float64).eps)
# in units of eps max(1, ||B||)
PART_BOUND = 16.0


def _exact_parts(b: np.ndarray) -> list[np.ndarray]:
    with mpmath.workdps(40):
        values, left, right = mpmath.eig(mpmath.matrix(b.tolist()), left=True, right=True)
        parts = []
        for i in range(3):
            r, l = right[:, i], left[i, :]
            part = (values[i] / 2) * (2 * (r * l) / (l * r)[0] - mpmath.eye(3))
            parts.append(np.array([[complex(part[x, y]) for y in range(3)] for x in range(3)]))
    return parts


@pytest.mark.parametrize("seed", range(150))
def test_parts_within_a_few_eps_of_40_digits(seed):
    b = random_algebra(seed, 1.5).mat.array
    exact = _exact_parts(b)
    bound = PART_BOUND * EPS * max(1.0, np.linalg.norm(b))
    routes = [decompose_via_eigen(b).parts]
    try:
        routes.append(decompose_closed_form(b, lambda_roots(b)).parts)
    except DegenerateLambdas:
        pass  # one seed's lambdas are too close for the closed form
    for parts in routes:
        for p in parts:
            assert min(np.linalg.norm(p.mat.array - e) for e in exact) <= bound


def _least_norm(phi) -> list:
    """The phases phi shifted by 2 pi k, k in {-1, 0, 1}^3, of sum nearest 0 and least norm."""
    turns = int(mpmath.nint(sum(phi) / (2 * mpmath.pi)))
    return min(([p + 2 * mpmath.pi * k for p, k in zip(phi, ks)]
                for ks in itertools.product((-1, 0, 1), repeat=3) if sum(ks) == -turns),
               key=lambda t: sum(x * x for x in t))


def _exact_log(u: np.ndarray) -> tuple[np.ndarray, float]:
    """(the principal log of u at 40 digits, its condition kappa) by su3kit's selection rule."""
    with mpmath.workdps(40):
        values, left, right = mpmath.eig(mpmath.matrix(u.tolist()), left=True, right=True)
        theta = _least_norm([mpmath.arg(v) for v in values])
        log = mpmath.zeros(3, 3)
        for i in range(3):
            r, l = right[:, i], left[i, :]
            log += (1j * theta[i]) * (r * l) / (l * r)[0]
        kappa = max(1.0, max(float(abs(theta[i] - theta[j]) / abs(values[i] - values[j]))
                             for i, j in ((0, 1), (0, 2), (1, 2))))
        return np.array([[complex(log[x, y]) for y in range(3)] for x in range(3)]), kappa


def _log_route(g) -> str:
    """The form principal_log takes on g: "monomial", "projector" or "eigen"."""
    a = g.mat.array
    roots = factorlog._cubic_eigenvalues(a, g._dev, DEFAULT_TOL)
    if roots is None:
        return "eigen"
    t, e = roots
    try:
        theta = factorlog._log_phases(e, DEFAULT_TOL)
    except Su3KitError:
        return "eigen"
    if factorlog._monomial_log(a, t, e, theta) is not None:
        return "monomial"
    return "eigen" if factorlog._projector_log(a, e, theta) is None else "projector"


def _log_errors(groups, conditioned: bool, routes=("monomial", "projector", "eigen")) -> dict:
    """The errors of the routes named against the 40-digit log, in eps max(1, ||L||), times
    kappa if conditioned."""
    errors = {route: [] for route in routes}
    for g in groups:
        route = _log_route(g)
        if route not in errors:
            continue
        try:
            got = principal_log(g).array
        except Su3KitError:
            continue  # the refusals are the eigen path's (tests/test_closed_log.py)
        want, kappa = _exact_log(g.mat.array)
        unit = EPS * max(1.0, np.linalg.norm(want)) * (kappa if conditioned else 1.0)
        errors[route].append(np.linalg.norm(got - want) / unit)
    return errors


def _check(errors: dict) -> None:
    summary = {route: (len(e), statistics.median(e), max(e)) for route, e in errors.items() if e}
    assert all(worst <= PART_BOUND for _, _, worst in summary.values()), summary


def _root_errors(us) -> list:
    """Per U, the largest distance in eps of a root of ``_cubic_eigenvalues`` from 40 digits."""
    errors = []
    for u in us:
        a, dev = factorlog._unitary_array(u, DEFAULT_TOL)
        roots = factorlog._cubic_eigenvalues(a, dev, DEFAULT_TOL)
        assert roots is not None
        with mpmath.workdps(40):
            exact = mpmath.eig(mpmath.matrix(u.tolist()))[0]
            worst = max(min(abs(mpmath.mpc(z) - v) for v in exact) for z in roots[1])
        errors.append(float(worst) / EPS)
    return errors


def test_cubic_roots_within_a_few_eps_of_40_digits():
    """The shifted cubic's roots on Haar U and on boundary U, where the cubic of U itself,
    its coefficients rounded in the scale of 1, not of the spread, missed by 24 eps."""
    for make in (lambda seed: random_group(seed).mat.array, boundary_u):
        assert max(_root_errors(make(seed) for seed in range(150))) <= 4.0


def test_principal_log_within_a_few_eps_of_40_digits():
    errors = _log_errors((random_group(seed) for seed in range(150)), conditioned=False)
    assert len(errors["monomial"]) >= 140
    _check(errors)


def test_projector_log_within_its_condition_of_40_digits():
    """principal_log's projector form, taken where the monomial form's coefficient gate
    declines: on cos-zero U, near-cos-zero U and the Haar U it takes, in eps max(1, ||L||)
    kappa, kappa the log's condition, as near the cut."""
    families = {
        "cos_zero": [GroupElement(u) for u in _family("cos_zero")],
        "near_cos_zero": [GroupElement(u) for u in near_cos_zero_stream()],
        "haar": [random_group(seed) for seed in range(1000)],
    }
    for name, groups in families.items():
        errors = _log_errors(groups, conditioned=True, routes=("projector",))
        assert len(errors["projector"]) >= {"cos_zero": 20, "near_cos_zero": 50, "haar": 30}[name]
        _check(errors)


def test_near_cut_log_within_its_condition_of_40_digits():
    rngs = (np.random.default_rng(seed) for seed in range(60))
    errors = _log_errors((_group(_phases("near-cut", rng), rng) for rng in rngs), conditioned=True)
    assert len(errors["eigen"]) >= 50
    _check(errors)


def _exact_branches(u: np.ndarray) -> dict:
    """{k: the branch log k of u at 40 digits} for every k in {-1, 0, 1}^3."""
    with mpmath.workdps(40):
        values, left, right = mpmath.eig(mpmath.matrix(u.tolist()), left=True, right=True)
        order = _order_indices([complex(v) for v in values])
        theta = _least_norm([mpmath.arg(values[i]) for i in order])
        projs = [right[:, i] * left[i, :] / (left[i, :] * right[:, i])[0] for i in order]
        signs = [1 if t >= 0 else -1 for t in theta]
        logs = {}
        for ks in itertools.product((-1, 0, 1), repeat=3):
            log = mpmath.zeros(3, 3)
            for j in range(3):
                n = sum(k * s * (1 if i == j else -1) for i, (k, s) in enumerate(zip(ks, signs)))
                log += (1j * (theta[j] + 2 * mpmath.pi * n)) * projs[j]
            logs[ks] = np.array([[complex(log[x, y]) for y in range(3)] for x in range(3)])
        return logs


def test_branch_logs_within_a_few_eps_of_40_digits():
    """Both routes of branch_log, on every Haar U and winding where each runs."""
    errors = {"closed": [], "eigen": []}
    for seed in range(100):
        g = random_group(seed)
        a = g.mat.array
        for k, want in _exact_branches(a).items():
            unit = EPS * max(1.0, np.linalg.norm(want))
            routes = {"closed": factorlog._closed_form_log(a, g._dev, k, DEFAULT_TOL)}
            try:
                routes["eigen"] = factorlog._log_sum(a, g._dev, k, DEFAULT_TOL)
            except Su3KitError:
                assert routes["closed"] is None
                continue
            for route, got in routes.items():
                if got is not None:
                    errors[route].append(np.linalg.norm(got - want) / unit)
    assert len(errors["closed"]) >= 0.95 * len(errors["eigen"])
    _check(errors)


def _to_array(m) -> np.ndarray:
    return np.array([[complex(m[x, y]) for y in range(3)] for x in range(3)])


def _phase_factors(theta, invols, cos, sin, eye) -> list:
    """cos c_m 1 + sin c_m i J_m, c_m = (theta_m - sum theta) / 2, over the involutions J_m."""
    total = sum(theta)
    return [cos((t - total) / 2) * eye + 1j * sin((t - total) / 2) * j
            for t, j in zip(theta, invols)]


def _exact_factors(u: np.ndarray, fz) -> tuple[list[np.ndarray], float]:
    """(the factors fz approximates, at 40 digits; kappa, the condition of U's projectors).

    Factor i is exp(i c_i (2 P_i - 1)) over mpmath's eigenvalues e_i and
    projectors P_i.  fz fixes what the phases leave open: c_i takes the
    sign of its factor (Im tr(F_i (2 P_i - 1)) = 3 sin c_i), the phase
    2 c_m - sum c that the factors give e_m picks the 2 pi branch of
    arg e_m, and c_m = (theta_m - sum theta) / 2 over those phases
    theta.  The eigenvalues go in su3kit's order, taken as the one of
    the six under which the factors lie nearest: ``_order_indices``',
    except where two imaginary parts lie within ``grades._TIE_BAND``
    (an eigenvalue at -1), where the real parts decide.  kappa is
    max(1, 1 / min |e_i - e_j|): an eps in U moves P_i by up to eps over
    its gap.
    """
    got = [f.array for f in fz.factors]
    with mpmath.workdps(40):
        values, left, right = mpmath.eig(mpmath.matrix(u.tolist()), left=True, right=True)
        invols = [2 * (right[:, i] * left[i, :]) / (left[i, :] * right[:, i])[0] - mpmath.eye(3)
                  for i in range(3)]
        args = [mpmath.arg(v) for v in values]
        near = [_to_array(j) for j in invols]

        def turns(order) -> list:
            c = [math.copysign(p.beta, np.trace(f @ near[j]).imag)
                 for p, f, j in zip(fz.parts, got, order)]
            return [round((2 * c[m] - sum(c) - float(args[j])) / (2 * math.pi))
                    for m, j in enumerate(order)]

        def miss(order) -> float:
            theta = [float(args[j]) + 2 * math.pi * k for j, k in zip(order, turns(order))]
            want = _phase_factors(theta, [near[j] for j in order], math.cos, math.sin, np.eye(3))
            return max(np.linalg.norm(g - w) for g, w in zip(got, want))

        order = min(itertools.permutations(range(3)), key=miss)
        theta = [args[j] + 2 * mpmath.pi * k for j, k in zip(order, turns(order))]
        exact = _phase_factors(theta, [invols[j] for j in order], mpmath.cos, mpmath.sin,
                               mpmath.eye(3))
        gap = min(abs(values[i] - values[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    return [_to_array(f) for f in exact], max(1.0, 1.0 / float(gap))


def _factor_inputs(family: str) -> list[np.ndarray]:
    if family == "haar":
        return [random_group(seed).mat.array for seed in range(150)]
    if family == "boundary":
        return [boundary_u(seed) for seed in range(150)]
    if family == "near_cos_zero":
        return near_cos_zero_stream()
    return list(_family(family))


@pytest.mark.parametrize("family", ["haar", "boundary", "cos_zero", "near_cos_zero",
                                    "vanishing_g0"])
def test_factorize_within_a_few_eps_of_40_digits(family):
    """Each route's factors within 16 eps max(1, ||U||) kappa of 40 digits, their product
    within 16 eps max(1, ||U||) of U."""
    errors = {"product": []}
    for u in _factor_inputs(family):
        fz = factorize(u)
        got = [f.array for f in fz.factors]
        exact, kappa = _exact_factors(u, fz)
        unit = EPS * max(1.0, np.linalg.norm(u))
        miss = max(np.linalg.norm(g - w) for g, w in zip(got, exact)) / (unit * kappa)
        errors.setdefault(" ".join(fz.routes), []).append(miss)
        errors["product"].append(np.linalg.norm(got[0] @ got[1] @ got[2] - u) / unit)
    _check(errors)


def _algebra(family: str, n: int) -> list[np.ndarray]:
    """n seeded su(3) elements of one family, as arrays."""
    scale = {"generic": 1.5, "small": 1e-4, "large": 30.0}.get(family)
    if scale is not None:
        return [random_algebra(seed, scale).mat.array for seed in range(n)]
    return [x.mat.array for x in _regime_inputs(family, n, 0, DEFAULT_TOL)]


def _exact_exp(b: np.ndarray) -> np.ndarray:
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(b.tolist()))
        return np.array([[complex(e[x, y]) for y in range(3)] for x in range(3)])


@pytest.mark.parametrize("family", ["generic", "small", "near-degenerate", "boundary", "large"])
def test_exp_within_a_few_eps_of_40_digits(family):
    """exp_su3 and exp_reference, each within 16 eps max(1, ||B||) of mpmath's expm."""
    errors = {"exp_su3": [], "exp_reference": []}
    for b in _algebra(family, 150):
        want = _exact_exp(b)
        unit = EPS * max(1.0, np.linalg.norm(b))
        errors["exp_su3"].append(np.linalg.norm(exp_su3(b).mat.array - want) / unit)
        errors["exp_reference"].append(np.linalg.norm(exp_reference(b).array - want) / unit)
    _check(errors)


def _lambda_errors(family: str, n: int) -> list[float]:
    """Per B, the largest distance of a lambda_roots value from 40 digits, in max|lambda|."""
    errors = []
    for b in _algebra(family, n):
        with mpmath.workdps(40):
            mu = mpmath.eig(mpmath.matrix(b.tolist()))[0]
            want = sorted((float(mpmath.re(m * m / 4)) for m in mu), reverse=True)
        scale = max(map(abs, want))
        errors.append(max(abs(g - w) for g, w in zip(lambda_roots(b), want)) / scale)
    return errors


@pytest.mark.parametrize("family", ["generic", "small", "boundary", "large"])
def test_lambda_roots_within_a_few_eps_of_40_digits(family):
    assert max(_lambda_errors(family, 300)) <= PART_BOUND * EPS


def test_lambda_roots_near_a_double_within_its_limit():
    """A lambda pair about 1e-7 apart is fixed only to about eps over the split:
    within 1e-8 max|lambda|, not within a few eps."""
    assert max(_lambda_errors("near-degenerate", 300)) <= 1e-8
