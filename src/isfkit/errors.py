"""Shared exception types, and the integer check of JSON input."""


class BudgetExceededError(RuntimeError):
    """An enumeration or lattice construction exceeded its configured budget."""


class InternalCheckError(AssertionError):
    """Two independent computation paths that must agree did not.

    This always indicates a bug in this library, never in the input.
    """


class InputError(ValueError):
    """Malformed or schema-violating input data."""


def require_int(value, what: str) -> int:
    """Return a JSON integer; reject bools, floats, strings and the rest."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value
