"""Numeric thresholds used across the package.

All tolerances live in one frozen dataclass so a caller (or the CLI's
--tol-override flag) can swap individual values without touching global
state.  Functions take a ``tol`` keyword defaulting to ``DEFAULT_TOL``.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Tolerances:
    # smallmat
    eig_tol: float = 1e-10        # relative eigendecomposition residual
    normal_tol: float = 1e-10     # commutator test, relative to norm^2
    diag_cond_max: float = 1e10   # refuse eigenbasis above this condition
    cluster_gap: float = 1e-8     # relative gap below which eigenvalues cluster

    # invdec
    alg_tol: float = 1e-9         # traceless / skew-Hermitian validation
    decomp_tol: float = 1e-10     # sum and commutation residuals
    lambda_sep_tol: float = 1e-6  # relative separation required by closed form
    beta_zero_tol: float = 1e-12  # below this angle a part has no direction

    # expmap
    grp_tol: float = 1e-11        # unitarity and det-1 validation

    # factorlog
    fact_tol: float = 1e-10       # factor product / scalar-ccos residuals
    g0_zero_tol: float = 1e-8     # grade-0 norm deciding the factor route
    sin_zero_tol: float = 1e-9    # sin(beta) below this: direction unrecoverable
    norm_zero_tol: float = 1e-14  # normalize() refuses below this norm


DEFAULT_TOL = Tolerances()

# Names accepted by override helpers (and the CLI --tol-override flag).
FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Tolerances))


def with_overrides(tol: Tolerances, **changes: float) -> Tolerances:
    """Return a copy of ``tol`` with the given named thresholds replaced.

    KeyError for an unknown name.  ValueError for a value that is NaN,
    infinite or negative: the gates read "x > tol", so a NaN threshold
    would switch its gate off without a word.
    """
    for key in changes:
        if key not in FIELD_NAMES:
            raise KeyError(f"unknown tolerance {key!r}")
    values = {k: float(v) for k, v in changes.items()}
    for key, value in values.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {key} must be finite and non-negative, got {value!r}")
    return dataclasses.replace(tol, **values)
