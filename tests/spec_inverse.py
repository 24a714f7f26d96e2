"""The condition-gated 3x3 inverse and the route rule that the tests' frozen matrix cascades run on.

The package's cascade divides on U's eigenbasis and inverts no
matrix.  The specifications it is checked against invert matrices,
and a matrix whose condition estimate exceeds ``COND_MAX`` is refused
with a NumericalError, which they read as a route that does not apply.

The route follows from the scalar grade g0 = (1 + Re tr U) / 4 alone:
in the near-cos-zero band, |g0| above g0_zero_tol and |g0| fact_tol
under ``G0_MARGIN`` eps, the simple route's rounding, about 3 eps / |g0|,
would decide the closing factor, so no cascade route applies there and
``factorize`` takes the eigen route (``near_cos_zero``).
"""

import numpy as np

from su3kit.errors import NumericalError

COND_MAX = 1e12
G0_MARGIN = 500.0
_EPS = float(np.finfo(np.float64).eps)


def inverse(a: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise NumericalError(f"condition estimate {cond:.3e} exceeds {COND_MAX:.1e}")
    return np.linalg.inv(a)


def near_cos_zero(g0: float, tol) -> bool:
    """Whether the scalar grade g0 lies in the near-cos-zero band of the Tolerances tol."""
    return abs(g0) > tol.g0_zero_tol and not abs(g0) * tol.fact_tol >= G0_MARGIN * _EPS
