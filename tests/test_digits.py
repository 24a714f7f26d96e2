"""Both routes of the invariant decomposition against parts computed to 40 digits.

mpmath's eig at 40 digits gives B's eigenvalues mu_i and its right and
left eigenvectors r_i, l_i.  The exact part i is (mu_i / 2)(2 P_i - 1)
with P_i = r_i l_i / (l_i r_i), which shares no code with either route.
Each route's part is judged against the nearest exact part, in units
of eps max(1, ||B||): on these 150 seeds the closed form reached about
6 and the eigen route about 2.6.
"""

import mpmath
import numpy as np
import pytest

from su3kit.errors import DegenerateLambdas
from su3kit.invdec import decompose_closed_form, decompose_via_eigen, lambda_roots
from su3kit.oracle import random_algebra

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
