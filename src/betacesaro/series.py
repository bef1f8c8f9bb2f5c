"""Truncated Taylor-series arithmetic over complex coefficients.

A :class:`PowerSeries` holds the coefficients c_0..c_N of an analytic
function on the unit disk.  Every binary operation truncates to the shorter
of the two operand orders, which keeps all identities exact at the stored
order (the operators built on top are lower triangular in the coefficient
basis, so truncation commutes with them).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 256

# Window of trailing coefficients used for the geometric tail majorant.
_TAIL_WINDOW = 16

# The smallest normal double; `dilate` writes +0 for any nonzero part below it.
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class PowerSeries:
    """Truncated Taylor coefficients c_0..c_N of an analytic function.

    `_seminorm` holds the last `seminorm_estimate` of the series as
    (params, grid, estimate); one slot, so a series keeps at most one grid
    alive.
    """

    coeffs: np.ndarray
    _seminorm: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    def monomial(n: int, order: int | None = None) -> "PowerSeries":
        """z**n, stored to the given order (default n)."""
        order = n if order is None else order
        c = np.zeros(max(order, n) + 1, dtype=np.complex128)
        c[n] = 1.0
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
        """The dilation f(rz): coefficient n scaled by r**n.

        Every real or imaginary part of the product whose magnitude is below
        the smallest normal double (2.2e-308) is written as +0; zeros and
        every other part keep their bits.  At order 1024 any r below about
        0.52 leaves subnormal tail parts, and each one slows the convolution
        of a later `ps_mul`: a 1024 x 1024 product takes 0.35 ms with none,
        1.23 ms at r = 0.5 (12) and 2.32 ms at r = 0.3 (30).
        """
        c = self.coeffs * r ** np.arange(self.order + 1)
        parts = c.view(np.float64)
        parts[(np.abs(parts) < _TINY) & (parts != 0)] = 0.0
        return PowerSeries(c)

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
    coef_{n+1} = coef_n * b * (beta + n) / (n + 1), run as one pass of
    np.multiply.accumulate over the interleaved factors b, beta + n,
    1/(n + 1), real for a real b and complex otherwise.  numpy's complex
    division by n + 1 multiplies by the rounded reciprocal, and a complex
    times x + 0j rounds only as x*re and x*im, so every step rounds as the
    complex loop does: the result is value-equal to the loop, and the bits
    differ only in the sign of exact zeros, which are all +0 here.
    """
    if abs(b) > 1 + 1e-12:
        raise DomainError("binomial_series requires |b| <= 1")
    if order < 0:
        raise DomainError("binomial_series requires order >= 0")
    real = b.imag == 0
    n = np.arange(order)
    steps = np.empty(3 * order + 1, dtype=np.float64 if real else np.complex128)
    steps[0] = 1.0
    steps[1::3] = b.real if real else b
    steps[2::3] = beta + n
    steps[3::3] = 1.0 / (n + 1)
    # + 0.0 turns every -0 into +0; the loop's zeros may carry either sign
    return PowerSeries(np.multiply.accumulate(steps)[::3] + 0.0)


def ps_mul(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to n = min(order_f, order_g).

    Only the span from the first to the last nonzero coefficient of each
    operand is convolved, cut to the outputs of degree <= n, and the product
    is written at its offset.  The cost is O(span_f * span_g) multiply-adds
    by direct summation, so a monomial or a padded polynomial costs its
    span, not O(n**2).
    """
    n = min(f.order, g.order)
    out = np.zeros(n + 1, dtype=np.complex128)
    a, b = f.coeffs[: n + 1], g.coeffs[: n + 1]
    nz_a, nz_b = a.nonzero()[0], b.nonzero()[0]
    if nz_a.size and nz_b.size and nz_a[0] + nz_b[0] <= n:
        lo_a, lo_b = nz_a[0], nz_b[0]
        span_a = a[lo_a : min(nz_a[-1], n - lo_b) + 1]
        span_b = b[lo_b : min(nz_b[-1], n - lo_a) + 1]
        lo = lo_a + lo_b
        prod = np.convolve(span_a, span_b)[: n + 1 - lo]
        out[lo : lo + prod.size] = prod
    return PowerSeries(out)


def ps_exp(u: PowerSeries) -> PowerSeries:
    """exp(u) at the same order; u must have zero constant term.

    Uses e_0 = 1, e_m = (1/m) * sum_{k=1..m} k*u_k*e_{m-k}, which keeps the
    result single-valued and branch-free.  The k*u_k are held reversed, so
    each e_m is one BLAS dot product of two contiguous slices: N dot
    products, O(N**2) multiply-adds in all.  The ndarray.dot method reaches
    the same BLAS call as np.dot, so the bits are the same, without the
    per-call function dispatch.
    """
    if u.coeffs[0] != 0:
        raise DomainError("ps_exp requires a zero constant term")
    n = u.order
    e = np.zeros(n + 1, dtype=np.complex128)
    e[0] = 1.0
    # ku_rev[n - k] = k * u_k
    ku_rev = np.arange(n, -1, -1) * u.coeffs[::-1]
    for m in range(1, n + 1):
        e[m] = e[:m].dot(ku_rev[n - m : n]) / m
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
