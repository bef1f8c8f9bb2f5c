"""Exception types shared across the package, and the checks of its integer
and alpha arguments."""

import numbers


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SpectrumEmptyError(DomainError):
    """Raised when an eigenfunction is requested for a symbol whose value at
    the origin vanishes; the candidate eigenfunctions are undefined there."""


def check_integer(where: str, name: str, value, low: int, high: int | None = None) -> int:
    """value as a Python int in [low, high]; a bool or a float is not an
    integer, a numpy integer is.  A float would end in numpy's or slicing's
    own TypeError, and a negative count would index arrays from the end."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{where} requires an integer {name}, got {value!r}")
    if value < low:
        raise DomainError(f"{where} requires {name} >= {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{where} requires {name} <= {high}, got {value}")
    return int(value)


def check_alpha(alpha: float) -> None:
    """Reject an alpha, the exponent of the weight (1-|z|^2)^alpha, that is
    not positive; nan is not."""
    if not alpha > 0:
        raise DomainError("alpha must be positive")
