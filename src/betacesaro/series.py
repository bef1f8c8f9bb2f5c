"""Truncated Taylor-series arithmetic over complex coefficients.

A :class:`PowerSeries` holds the coefficients c_0..c_N of an analytic
function on the unit disk.  Every binary operation truncates to the shorter
of the two operand orders, which keeps all identities exact at the stored
order (the operators built on top are lower triangular in the coefficient
basis, so truncation commutes with them).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 256

# Window of trailing coefficients used for the geometric tail majorant.
_TAIL_WINDOW = 16


def pochhammer(a: complex, n: int) -> complex:
    """Shifted factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1.

    Computed by a running product; gamma-function quotients overflow for
    n > 170 and are deliberately avoided.
    """
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    out = complex(1.0)
    for k in range(n):
        out *= a + k
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated Taylor coefficients c_0..c_N of an analytic function."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1).copy()
        if c.size == 0:
            raise DomainError("a power series needs at least the constant term")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise DomainError("non-finite coefficient")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @staticmethod
    def zero(order: int = 0) -> "PowerSeries":
        return PowerSeries(np.zeros(order + 1))

    @staticmethod
    def monomial(n: int, order: int | None = None, scale: complex = 1.0) -> "PowerSeries":
        """scale * z**n, stored to the given order (default n)."""
        order = n if order is None else order
        c = np.zeros(max(order, n) + 1, dtype=np.complex128)
        c[n] = scale
        return PowerSeries(c)

    def truncate(self, order: int) -> "PowerSeries":
        """Truncate or zero-pad to the requested order."""
        if order < self.order:
            return PowerSeries(self.coeffs[: order + 1])
        if order > self.order:
            return PowerSeries(np.concatenate([self.coeffs, np.zeros(order - self.order)]))
        return self

    def scale(self, c: complex) -> "PowerSeries":
        return PowerSeries(self.coeffs * c)

    def dilate(self, r: float) -> "PowerSeries":
        """The dilation f(rz): coefficient n scaled by r**n."""
        return PowerSeries(self.coeffs * r ** np.arange(self.order + 1))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(self.coeffs[: n + 1] - other.coeffs[: n + 1])

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs.tolist()]}

    @staticmethod
    def from_pairs(pairs) -> "PowerSeries":
        """Build from a list of reals or [re, im] pairs; any other entry is a
        DomainError."""
        if not isinstance(pairs, (list, tuple)):
            raise DomainError("a series is a list of coefficients")
        return PowerSeries(np.array([_coefficient(p) for p in pairs], dtype=np.complex128))


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _coefficient(p) -> complex:
    try:
        if _is_real(p):
            return complex(p)
        if isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_real, p)):
            return complex(p[0], p[1])
    except OverflowError:
        raise DomainError("coefficient too large for a float") from None
    raise DomainError(f"coefficient {p!r} is neither a real number nor a pair of reals")


def binomial_series(beta: float, b: complex, order: int) -> PowerSeries:
    """First order+1 Taylor coefficients of (1 - b*w)**(-beta).

    Coefficient n is (beta)_n / n! * b**n, generated by the recurrence
    coef_{n+1} = coef_n * b * (beta + n) / (n + 1).
    """
    if abs(b) > 1 + 1e-12:
        raise DomainError("binomial_series requires |b| <= 1")
    if order < 0:
        raise DomainError("binomial_series requires order >= 0")
    c = np.empty(order + 1, dtype=np.complex128)
    c[0] = 1.0
    for n in range(order):
        c[n + 1] = c[n] * b * (beta + n) / (n + 1)
    return PowerSeries(c)


def ps_mul(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to min(order_f, order_g)."""
    n = min(f.order, g.order)
    prod = np.convolve(f.coeffs[: n + 1], g.coeffs[: n + 1])[: n + 1]
    return PowerSeries(prod)


def ps_exp(u: PowerSeries) -> PowerSeries:
    """exp(u) at the same order; u must have zero constant term.

    Uses e_0 = 1, e_m = (1/m) * sum_{k=1..m} k*u_k*e_{m-k}, which keeps the
    result single-valued and branch-free.
    """
    if u.coeffs[0] != 0:
        raise DomainError("ps_exp requires a zero constant term")
    n = u.order
    e = np.zeros(n + 1, dtype=np.complex128)
    e[0] = 1.0
    ku = np.arange(n + 1) * u.coeffs
    for m in range(1, n + 1):
        e[m] = np.dot(ku[1 : m + 1], e[m - 1 :: -1][: m]) / m
    return PowerSeries(e)


def ps_integrate(f: PowerSeries) -> PowerSeries:
    """Antiderivative with zero constant term; order grows by one."""
    out = np.zeros(f.order + 2, dtype=np.complex128)
    out[1:] = f.coeffs / np.arange(1, f.order + 2)
    return PowerSeries(out)


def ps_derivative(f: PowerSeries) -> PowerSeries:
    """Termwise derivative; order drops by one."""
    if f.order < 1:
        raise DomainError("ps_derivative requires order >= 1")
    n = np.arange(1, f.order + 1)
    return PowerSeries(n * f.coeffs[1:])


def ps_div_by_z(f: PowerSeries) -> PowerSeries:
    """Exact coefficient shift f(z)/z for f with f(0) = 0."""
    if f.coeffs[0] != 0:
        raise DomainError("ps_div_by_z requires f(0) = 0")
    if f.order < 1:
        raise DomainError("ps_div_by_z requires order >= 1")
    return PowerSeries(f.coeffs[1:])


def tail_estimate(f: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Heuristic truncation-tail bound M * r**(N+1) / (1-r) at a radius r or
    an array of radii, with M the largest |c_n| over the trailing window.

    Crude but monotone in r; reported alongside values, never silently
    applied.
    """
    return float(np.max(np.abs(f.coeffs[-_TAIL_WINDOW:]))) * r ** (f.order + 1) / (1.0 - r)


def eval_on_points(f: PowerSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of the truncation on an array of points."""
    return np.polynomial.polynomial.polyval(z, f.coeffs)
