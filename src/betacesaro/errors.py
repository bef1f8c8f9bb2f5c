"""Exception types shared across the package, and the checks of its integer,
real and array arguments."""

import math
import numbers

import numpy as np


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


def check_real(where: str, name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a float, finite and in the open interval (low, high); a bool
    or a string is not a real, and an int too large for a float is infinite."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"{where} requires a finite real {name}, got {value!r}")
    if not x > low:
        raise DomainError(f"{where} requires {name} > {low}, got {value}")
    if not x < high:
        raise DomainError(f"{where} requires {name} < {high}, got {value}")
    return x


def check_array(where: str, kind: str, name: str, value) -> np.ndarray:
    """value as an array of `kind` ("real", or "numeric" with complex) `name`.
    A ragged list, another dtype and a bool in a list or tuple at any depth
    are DomainErrors: numpy casts [True, 0.5] to float64, hiding the bool."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        raise DomainError(f"{where} requires a rectangular array of {name}") from None
    if a.dtype.kind not in {"real": "iuf", "numeric": "iufc"}[kind]:
        raise DomainError(f"{where} requires {kind} {name}, got dtype {a.dtype}")
    if isinstance(value, (list, tuple)):
        for x in np.asarray(value, dtype=object).flat:
            if isinstance(x, (bool, np.bool_)):
                raise DomainError(f"{where} requires {kind} {name}, got {x!r}")
    return a
