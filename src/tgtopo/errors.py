"""The two bases of every error the package defines, one per CLI exit code."""


class InputError(ValueError):
    """Malformed, out-of-range or unreadable input: exit code 2."""


class NumericalError(FloatingPointError):
    """A computation met or produced non-finite values: exit code 3."""
