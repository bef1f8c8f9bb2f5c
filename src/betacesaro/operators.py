"""Coefficient-domain realization of the generalized beta-Cesaro operators.

The operator maps f (with f(0) = 0) to the antiderivative of f(w)/w times
the symbol g(w).  In the coefficient basis it is lower triangular: output
coefficient m is (1/m) * sum_{n=1..m} c_n * gamma_{m-n}, where gamma are
the symbol coefficients.  Truncation therefore commutes with the operator,
which is the core exactness guarantee of this module.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bounds import REGIME_TOL, classify, compare
from .errors import DomainError, SpectrumEmptyError, check_integer, check_real
from .series import (
    DEFAULT_ORDER,
    UNIT_TOL,
    PowerSeries,
    _coefficient,
    _pairs,
    binomial_series,
    ps_derivative,
    ps_div_by_z,
    ps_exp,
    ps_integrate,
    ps_mul,
)


@dataclass(frozen=True)
class SymbolGBeta:
    """Operator symbol: sum_j a_j (1 - b_j w)^(-beta) + h(w).

    The b_j are distinct unimodular points, |a_j| > 0, and h is a bounded
    analytic function stored truncated.  `_gamma` holds the longest Taylor
    series of the symbol that `symbol_series` has built for it.
    """

    terms: tuple[tuple[complex, complex], ...]
    beta: float
    h: PowerSeries = field(default_factory=PowerSeries.zero)
    _gamma: PowerSeries | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_real("SymbolGBeta", "beta", self.beta)
        if not isinstance(self.h, PowerSeries):
            raise DomainError(f"SymbolGBeta requires a PowerSeries h, got {type(self.h).__name__}")
        try:
            pairs = [(a, b) for a, b in self.terms]
        except (TypeError, ValueError):  # not iterable, or a term not of two parts
            raise DomainError(f"SymbolGBeta requires terms that are (a_j, b_j) pairs, got {self.terms!r}") from None
        bad = [x for t in pairs for x in t
               if not isinstance(x, numbers.Complex) or isinstance(x, bool)]
        if bad:
            raise DomainError(f"SymbolGBeta requires numeric a_j and b_j, got {bad[0]!r}")
        # an int too large for a float is infinite; a NaN would pass the checks below
        try:
            terms = tuple((complex(a), complex(b)) for a, b in pairs)
        except OverflowError:
            terms = None
        if terms is None or not all(cmath.isfinite(x) for t in terms for x in t):
            raise DomainError("symbol weights a_j and points b_j must be finite")
        for a, b in terms:
            if abs(a) == 0:
                raise DomainError("symbol weights a_j must be nonzero")
            if abs(abs(b) - 1.0) > UNIT_TOL:
                raise DomainError("symbol points b_j must be unimodular")
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                if abs(terms[i][1] - terms[j][1]) <= UNIT_TOL:
                    raise DomainError("symbol points b_j must be pairwise distinct")
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def beta_cesaro(beta: float) -> "SymbolGBeta":
        """The plain beta-Cesaro symbol (1 - w)^(-beta)."""
        return SymbolGBeta(terms=((1.0, 1.0),), beta=beta)

    @staticmethod
    def alexander() -> "SymbolGBeta":
        """The Alexander symbol, identically 1."""
        return SymbolGBeta.beta_cesaro(0.0)

    def value_at_zero(self) -> complex:
        return sum(a for a, _ in self.terms) + complex(self.h.coeffs[0])

    # -- serialization -----------------------------------------------------

    @staticmethod
    def from_json(text: str) -> "SymbolGBeta":
        """Parse a symbol file, {"terms": [{"a": a_j, "b_angle": arg b_j}, ...],
        "beta": beta, "h": {"coeffs": [...]}}; any other shape is a DomainError."""
        where = "SymbolGBeta.from_json"
        try:
            data = json.loads(text)
            pairs = [(t["a"], t["b_angle"]) for t in data["terms"]]
            beta, h = data["beta"], data.get("h", {"coeffs": [0.0]})["coeffs"]
        except (TypeError, ValueError, LookupError, RecursionError) as exc:
            raise DomainError(f"malformed symbol file: {exc!r}") from None
        terms = tuple(
            (_coefficient(a, where, "a"), cmath.rect(1, check_real(where, "b_angle", b))) for a, b in pairs
        )
        return SymbolGBeta(terms=terms, beta=check_real(where, "beta", beta), h=PowerSeries.from_pairs(h))


def symbol_series(s: SymbolGBeta, order: int) -> PowerSeries:
    """Taylor coefficients gamma_0..gamma_order of the symbol.

    The series is built once per symbol, at the largest order asked for so
    far, and truncated for smaller orders.  The truncation is exact: the
    binomial recurrence and the sum over the terms act coefficient by
    coefficient, so gamma to order K is a bit-exact prefix of gamma to any
    larger order.
    """
    order = check_integer("symbol_series", "order", order, 0)
    if s._gamma is None or s._gamma.order < order:
        acc = np.zeros(order + 1, dtype=np.complex128)
        for a, b in s.terms:
            acc += a * binomial_series(s.beta, b, order).coeffs
        acc += s.h.truncate(order).coeffs
        object.__setattr__(s, "_gamma", PowerSeries(acc))
    return s._gamma.truncate(order)


def apply_generalized(f: PowerSeries, s: SymbolGBeta) -> PowerSeries:
    """Apply the generalized operator to f in the coefficient domain."""
    quotient = ps_div_by_z(f)
    gamma = symbol_series(s, quotient.order)
    return ps_integrate(ps_mul(quotient, gamma))


def apply_beta_cesaro(f: PowerSeries, beta: float) -> PowerSeries:
    """Apply the plain beta-Cesaro operator to f."""
    return apply_generalized(f, SymbolGBeta.beta_cesaro(beta))


@dataclass(frozen=True)
class OperatorMatrix:
    """Lower-triangular coefficient matrix; row m, column n (1-based) is
    gamma_{m-n}/m, the contribution of input coefficient c_n to output
    coefficient m."""

    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def operator_matrix(s: SymbolGBeta, n: int) -> OperatorMatrix:
    """The n x n lower-triangular Toeplitz matrix of gamma_0..gamma_{n-1},
    row m scaled by 1/m.  Row m is a window of the reversed, zero-padded
    gamma, so no index array is built; the result itself takes O(n**2)
    memory, 16 n**2 bytes (268 MB at n = 4096).

    The real and imaginary parts of the window are multiplied by the
    rounded 1/m, which is what numpy's complex division by m + 0j computes;
    the two differ only on a -0 real part, and gamma holds none (it is
    summed onto +0), so the entries have the bits of the division.
    """
    n = check_integer("operator_matrix", "N", n, 1)
    gamma = symbol_series(s, n - 1).coeffs
    padded = np.concatenate((gamma[::-1], np.zeros(n - 1)))
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, n)[::-1]
    entries = np.empty((n, n), dtype=np.complex128)
    np.multiply(toeplitz.view(np.float64), 1.0 / np.arange(1, n + 1)[:, None],
                out=entries.view(np.float64))
    return OperatorMatrix(entries=entries)


def truncated_spectrum(m: OperatorMatrix) -> list[complex]:
    """Exact eigenvalues of the truncation: the diagonal, sorted by
    decreasing modulus."""
    return _by_modulus(np.diag(m.entries))


def symbol_spectrum(s: SymbolGBeta, n: int) -> list[complex]:
    """The same eigenvalues as truncated_spectrum(operator_matrix(s, n)),
    read from gamma_0 without building the n x n matrix: its diagonal is
    gamma_0 / m for m = 1..n."""
    n = check_integer("symbol_spectrum", "N", n, 1)
    return _by_modulus(symbol_series(s, 0).coeffs / np.arange(1, n + 1))


def _by_modulus(diag: np.ndarray) -> list[complex]:
    order = np.argsort(-np.abs(diag), kind="stable")
    return diag[order].tolist()


def _vanishes(g0: complex) -> bool:
    """Whether g(0) is 0 up to REGIME_TOL; the point spectrum is then empty."""
    return compare(abs(g0), 0.0) == 0


def eigenfunction_psi(s: SymbolGBeta, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Candidate eigenfunction factor psi_n; the full eigenvector is z^n * psi_n.

    psi_n = exp((n / g(0)) * integral of (g(w) - g(0)) / w).  gamma_0 is
    g(0) bit for bit (both sum the same terms in the same order), so
    (g(w) - g(0)) / w has the coefficients gamma_1..gamma_order.
    """
    n = check_integer("eigenfunction_psi", "n", n, 1)
    order = check_integer("eigenfunction_psi", "order", order, 1)
    g0 = s.value_at_zero()
    if _vanishes(g0):
        raise SpectrumEmptyError("symbol vanishes at the origin: no eigenfunctions")
    try:
        scale = n / g0
    except OverflowError:  # n is an int too large for a float
        raise DomainError(f"eigenfunction_psi requires n within the float range, got {n.bit_length()} bits") from None
    gamma = symbol_series(s, order).coeffs
    return ps_exp(ps_integrate(PowerSeries(gamma[1:])).scale(scale))


@dataclass(frozen=True)
class SpectrumReport:
    """The point spectrum {g(0)/n : 1 <= n <= n_max} of the operator."""

    base: complex                  # g(0); eigenvalues are base / n
    n_max: int | None              # largest eigenvalue index; None when every n qualifies
    leading: tuple[complex, ...]   # g(0)/n for n = 1..min(n_max, 16)

    def to_dict(self) -> dict:
        return {
            "base": _pairs(self.base),
            "n_max": self.n_max,
            "leading": _pairs(self.leading),
        }


def point_spectrum(s: SymbolGBeta, alpha: float) -> SpectrumReport:
    """The eigenvalues of the operator on B^alpha, defined exactly where
    `classify` says Bounded.

    The operator is lower triangular with diagonal g(0)/m, so each
    eigenvalue is some g(0)/n, with eigenvector z^n psi_n.  On the beta = 1
    row psi_n grows like |1 - b_j z|^(-n r) at the worst b_j, where
    r = max_j Re(a_j/g(0)), so z^n psi_n lies in B^alpha iff n r + 1 <= alpha;
    on every other bounded row, and for a symbol with no terms, r = 0.
    n_max is 0 when g(0) vanishes, None when r <= 0 (every n qualifies),
    and otherwise the largest n with n r + 1 <= alpha, within REGIME_TOL.
    """
    check_real("point_spectrum", "alpha", alpha, 0)
    if not classify(alpha, s.beta).bounded:
        raise DomainError(f"no point spectrum of an unbounded operator: alpha={alpha}, beta={s.beta}")
    g0 = s.value_at_zero()
    if _vanishes(g0):
        return SpectrumReport(base=g0, n_max=0, leading=())
    terms = s.terms if compare(s.beta, 1.0) == 0 else ()
    r = max(((a / g0).real for a, _ in terms), default=0.0)
    n_max = None
    if compare(r, 0.0) > 0:
        # start above the largest n and step down; n = 0 ends the loop, as alpha > 1 on this row
        n_max = math.floor((alpha - 1.0 + REGIME_TOL) / r) + 1
        while compare(n_max * r + 1.0, alpha) > 0:
            n_max -= 1
    count = 16 if n_max is None else min(n_max, 16)
    return SpectrumReport(base=g0, n_max=n_max, leading=tuple(g0 / n for n in range(1, count + 1)))


def compact_approximant(f: PowerSeries, s: SymbolGBeta, dilation: float) -> PowerSeries:
    """Dilate f by the given factor, then apply the operator; the dilated
    operator is compact for every dilation < 1."""
    check_real("compact_approximant", "dilation", dilation, 0, 1)
    return apply_generalized(f.dilate(dilation), s)


def preimage_under_cesaro(g: PowerSeries) -> PowerSeries:
    """The explicit preimage f = z(1-z) g' of g under the Cesaro operator."""
    if g.coeffs[0] != 0:
        raise DomainError("preimage_under_cesaro requires g(0) = 0")
    d = ps_derivative(g).coeffs
    out = np.zeros(d.size + 2, dtype=np.complex128)
    out[1:-1] += d
    out[2:] -= d
    return PowerSeries(out)
