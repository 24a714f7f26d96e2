"""Exception hierarchy.

Two branches matter to callers: InputError (the data handed in is not of
the required kind) and NumericalError (the data is fine but the requested
computation is not defined or not recoverable there).  The CLI maps the
former to exit code 2 and the latter to exit code 3; ``code`` is the
stable machine-readable identifier used in error documents.

The arguments that are not matrices (seeds, counts, scales, indices,
angles, windings) take one rule each: an integer is any
``numbers.Integral`` but a bool (``_is_integer``, ``_integer``), a
real number any ``numbers.Real`` but a bool (``_is_real``).  Anything
else is InputError, never a bare TypeError or ValueError.
"""

from __future__ import annotations

import numbers


class Su3KitError(Exception):
    code = "error"


class InputError(Su3KitError):
    code = "invalid_input"


class NumericalError(Su3KitError):
    code = "numerical_failure"


# -- input validation -------------------------------------------------------

class DimensionMismatch(InputError):
    code = "dimension_mismatch"


class NonFiniteEntries(InputError, ValueError):
    """A matrix entry is NaN or infinite (also a ValueError, as numpy's are)."""
    code = "non_finite_entries"


class InvalidAlgebraElement(InputError):
    """Matrix is not traceless skew-Hermitian within tolerance."""
    code = "invalid_algebra_element"


class NotUnitary(InputError):
    """Matrix fails the unitarity (or det == 1) check."""
    code = "not_unitary"


class DocumentError(InputError):
    """Malformed matrix document or invalid flag value."""
    code = "invalid_document"


# -- numerical failures ------------------------------------------------------

class NotNormal(NumericalError):
    code = "not_normal"


class NotDiagonalizable(NumericalError):
    code = "not_diagonalizable"


class Overflow(NumericalError):
    """An intermediate quantity (such as the squared norm) is not finite."""
    code = "overflow"


class EigenFailure(NumericalError):
    """Internal consistency failure of an eigensolver."""
    code = "eigen_failure"


class DegenerateLambdas(NumericalError):
    """Closed-form decomposition refused: the lambdas repeat, vanish or are not the element's."""
    code = "degenerate_lambdas"


class NonCommutingParts(NumericalError):
    code = "non_commuting_parts"


class ZeroMatrix(NumericalError):
    code = "zero_matrix"


class NotSimpleFactor(NumericalError):
    """Matrix is not of the form cos(b)*I + sin(b)*unit."""
    code = "not_simple_factor"


class AmbiguousDirection(NumericalError):
    """Rotation angle at the boundary: the direction is unrecoverable."""
    code = "ambiguous_direction"


class MissingDirection(NumericalError):
    """A nonzero winding was requested for a part with no direction."""
    code = "missing_direction"


class FactorizationFailed(NumericalError):
    code = "factorization_failed"


# -- arguments other than matrices --------------------------------------------

def _is_integer(x) -> bool:
    """Whether x is an integer argument: any integer but a bool."""
    # type(x) is int first: the ABC's check alone costs about a microsecond
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Whether x is a real argument: any real number but a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _integer(x, lo: int, hi: float, what: str) -> int:
    """x as a Python int where it is an integer (``_is_integer``) from lo to hi, else InputError.

    what says what x must be; the message adds the value given.
    """
    if not (_is_integer(x) and lo <= x <= hi):
        raise InputError(f"{what}, got {_shown(x)}")
    return int(x)


def _shown(x) -> str:
    """repr(x) for a message; an integer past repr's digit limit by its size."""
    try:
        return repr(x)
    except ValueError:  # sys.get_int_max_str_digits, 4300 by default
        return f"an integer of {x.bit_length()} bits"
