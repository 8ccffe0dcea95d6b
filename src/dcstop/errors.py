"""Exception types shared across the package, and the number helpers every reader shares."""

import math
import numbers
import sys


class DcstopError(ValueError):
    """Base class for every error this package raises on bad input."""


class ValidationError(DcstopError):
    """An object violates one of its structural invariants."""


class ConfigError(DcstopError):
    """A configuration value is malformed or out of the supported range."""


class CoverageError(DcstopError):
    """A time point falls outside the grid or lattice that must cover it."""


class NoChildrenError(DcstopError):
    """Asked for the children of a terminal lattice node."""


class SizeGuardError(DcstopError):
    """An exact computation was requested beyond its supported size."""


class NumericalError(DcstopError):
    """A numerical routine (the qhull hull, a least-squares solve) failed on the data."""


def is_integer(value) -> bool:
    """True for an integer that is not a bool: ``true`` in a config is never a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def finite_number(value, what: str) -> float:
    """``value`` as a float when it is a finite real number, else ``ConfigError``.

    Bools are refused although Python counts them as ints: ``true`` in a
    config is never a number.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def refuse_unknown_keys(obj, taken, where: str = "") -> None:
    """``ConfigError`` for a key of ``obj`` not in ``taken``: a typo never falls back to a default.

    ``where``, when given, names the section in the message; a parser leaves
    that to its caller.  An ``obj`` that is not an object is left to its reader.
    """
    prefix = f"{where}: " if where else ""
    for key in obj if isinstance(obj, dict) else ():
        if key not in taken:
            raise ConfigError(f"{prefix}unknown key {key!r}")


def unit_scale(top: float, limit: float) -> float:
    """1.0 for ``top`` below ``limit``, else the power of two that takes ``top`` into [0.5, 1).

    A power of two scales every float exactly, short of the subnormals.
    """
    return 1.0 if top < limit else math.ldexp(1.0, -math.frexp(top)[1])
