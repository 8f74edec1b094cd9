"""The two bases of every error the package defines, one per CLI exit code, and the one
check of an integer or real setting: ``is_int`` and ``is_real`` accept a
``numbers.Integral`` or ``numbers.Real`` (numpy scalars too) that is not a bool, and
``check_int(value, low, name, error)`` raises ``error("<name> must be an integer >= <low>,
got <value!r>")`` for anything else or anything below ``low``, or returns ``int(value)``."""

import numbers


class InputError(ValueError):
    """Malformed, out-of-range or unreadable input: exit code 2."""


class NumericalError(FloatingPointError):
    """A computation met or produced non-finite values: exit code 3."""


def is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_int(value, low, name, error=ValueError) -> int:
    if not is_int(value) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)
