"""The condition-gated 3x3 inverse that the tests' frozen matrix cascades run on.

The package's cascade divides on U's eigenbasis and inverts no
matrix.  The specifications it is checked against invert matrices,
and a matrix whose condition estimate exceeds ``COND_MAX`` is refused
with a NumericalError, which they read as a route that does not apply.
"""

import numpy as np

from su3kit.errors import NumericalError

COND_MAX = 1e12


def inverse(a: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise NumericalError(f"condition estimate {cond:.3e} exceeds {COND_MAX:.1e}")
    return np.linalg.inv(a)
