"""Coefficient-domain realization of the generalized beta-Cesaro operators.

The operator maps f (with f(0) = 0) to the antiderivative of f(w)/w times
the symbol g(w).  In the coefficient basis it is lower triangular: output
coefficient m is (1/m) * sum_{n=1..m} c_n * gamma_{m-n}, where gamma are
the symbol coefficients.  Truncation therefore commutes with the operator,
which is the core exactness guarantee of this module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochParams, SampleGrid, normalize, seminorm_estimate
from .bounds import classify, compare
from .errors import DomainError, SpectrumEmptyError
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    binomial_series,
    ps_derivative,
    ps_div_by_z,
    ps_exp,
    ps_integrate,
    ps_mul,
)

_UNIT_TOL = 1e-12


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
        terms = tuple((complex(a), complex(b)) for a, b in self.terms)
        for a, b in terms:
            if abs(a) == 0:
                raise DomainError("symbol weights a_j must be nonzero")
            if abs(abs(b) - 1.0) > _UNIT_TOL:
                raise DomainError("symbol points b_j must be unimodular")
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                if abs(terms[i][1] - terms[j][1]) <= _UNIT_TOL:
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "terms": [
                    {"a": [a.real, a.imag], "b_angle": math.atan2(b.imag, b.real)}
                    for a, b in self.terms
                ],
                "beta": self.beta,
                "h": {"coeffs": [[c.real, c.imag] for c in self.h.coeffs]},
            }
        )

    @staticmethod
    def from_json(text: str) -> "SymbolGBeta":
        """Parse the format written by to_json; any other shape is a DomainError."""
        try:
            data = json.loads(text)
            terms = tuple(
                (complex(t["a"][0], t["a"][1]), complex(math.cos(t["b_angle"]), math.sin(t["b_angle"])))
                for t in data["terms"]
            )
            beta, h = float(data["beta"]), data.get("h", {}).get("coeffs", [0.0])
        except (TypeError, ValueError, LookupError, AttributeError, OverflowError,
                RecursionError) as exc:
            raise DomainError(f"malformed symbol file: {exc!r}") from None
        return SymbolGBeta(terms=terms, beta=beta, h=PowerSeries.from_pairs(h))


def symbol_series(s: SymbolGBeta, order: int) -> PowerSeries:
    """Taylor coefficients gamma_0..gamma_order of the symbol.

    The series is built once per symbol, at the largest order asked for so
    far, and truncated for smaller orders.  The truncation is exact: the
    binomial recurrence and the sum over the terms act coefficient by
    coefficient, so gamma to order K is a bit-exact prefix of gamma to any
    larger order.
    """
    if order < 0:
        raise DomainError("symbol_series requires order >= 0")
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
    if n < 1:
        raise DomainError("operator_matrix requires N >= 1")
    gamma = symbol_series(s, n - 1).coeffs
    entries = np.zeros((n, n), dtype=np.complex128)
    for m in range(1, n + 1):
        entries[m - 1, :m] = gamma[m - 1 :: -1] / m
    return OperatorMatrix(entries=entries)


def truncated_spectrum(m: OperatorMatrix) -> list[complex]:
    """Exact eigenvalues of the truncation: the diagonal, sorted by
    decreasing modulus."""
    diag = np.diag(m.entries)
    order = np.argsort(-np.abs(diag), kind="stable")
    return [complex(diag[i]) for i in order]


def eigenfunction_psi(s: SymbolGBeta, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Candidate eigenfunction factor psi_n; the full eigenvector is z^n * psi_n.

    psi_n = exp((n / g(0)) * integral of (g(w) - g(0)) / w).
    """
    if n < 1:
        raise DomainError("eigenfunction_psi requires n >= 1")
    g0 = s.value_at_zero()
    if g0 == 0:
        raise SpectrumEmptyError("symbol vanishes at the origin: no eigenfunctions")
    gamma = symbol_series(s, order)
    centered = PowerSeries(gamma.coeffs - g0 * np.eye(1, order + 1, 0).ravel())
    u = ps_integrate(ps_div_by_z(centered)).truncate(order).scale(n / g0)
    return ps_exp(u)


@dataclass(frozen=True)
class SpectrumReport:
    """Predicted point spectrum {g(0)/n} with an admissibility verdict."""

    base: complex                      # g(0); eigenvalues are base / n
    leading: tuple[complex, ...]       # g(0)/n for n = 1..16
    empty: bool                        # true when g(0) = 0
    covered: bool                      # parameter regime handled at all
    admissible: bool | None            # condition verdict (None when n/a)
    per_term: tuple[tuple[float, bool], ...]  # (Re(a_j/g(0)), ok) per term
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "base": [self.base.real, self.base.imag],
            "leading": [[ev.real, ev.imag] for ev in self.leading],
            "empty": self.empty,
            "covered": self.covered,
            "admissible": self.admissible,
            "per_term": [{"re_ratio": r, "ok": ok} for r, ok in self.per_term],
            "note": self.note,
        }


def point_spectrum(s: SymbolGBeta, alpha: float) -> SpectrumReport:
    """Predicted eigenvalue set of the operator, with the parameter-regime
    conditions evaluated as verdicts rather than exceptions."""
    g0 = s.value_at_zero()
    if abs(g0) < 1e-14:
        return SpectrumReport(
            base=0j, leading=(), empty=True, covered=True, admissible=None,
            per_term=(), note="symbol vanishes at the origin: empty point spectrum",
        )
    evs = tuple(g0 / n for n in range(1, 17))
    beta = s.beta

    if compare(beta, 1.0) == 0:
        if compare(alpha, 1.0) >= 0:
            per = tuple(((a / g0).real, (a / g0).real <= 0) for a, _ in s.terms)
            return SpectrumReport(
                base=g0, leading=evs, empty=False, covered=True,
                admissible=all(ok for _, ok in per), per_term=per,
                note="requires Re(a_j/g(0)) <= 0 for every term",
            )
        return SpectrumReport(
            base=g0, leading=evs, empty=False, covered=False, admissible=None,
            per_term=(), note="beta = 1 with alpha < 1: not covered",
        )
    if compare(beta, 0.0) == 0:
        return SpectrumReport(
            base=g0, leading=evs, empty=False, covered=True, admissible=True,
            per_term=(), note="unconditional",
        )
    if compare(beta, 0.0) > 0 and compare(beta, 1.0) < 0:
        covered = classify(alpha, beta).bounded
        note = (
            "unconditional; certified for beta < m/(m+1) for every m, i.e. beta < 1"
            if covered
            else "0 < beta < 1 with beta > alpha < 1: not covered"
        )
        return SpectrumReport(
            base=g0, leading=evs, empty=False, covered=covered,
            admissible=True if covered else None, per_term=(), note=note,
        )
    return SpectrumReport(
        base=g0, leading=evs, empty=False, covered=False, admissible=None,
        per_term=(), note="parameter combination not covered",
    )


def compact_approximant(f: PowerSeries, s: SymbolGBeta, dilation: float) -> PowerSeries:
    """Dilate f by the given factor, then apply the operator; the dilated
    operator is compact for every dilation < 1."""
    if not 0 < dilation < 1:
        raise DomainError("dilation must lie in (0, 1)")
    return apply_generalized(f.dilate(dilation), s)


def approximate_eigen_probe(s: SymbolGBeta, n: int, p: BlochParams, g: SampleGrid) -> float:
    """Norm of the operator applied to the normalized monomial unit vector
    z^n / (n ||z^n / n||); tends to 0 like 1/n, witnessing the approximate
    eigenvalue 0."""
    if n < 1:
        raise DomainError("approximate_eigen_probe requires n >= 1")
    order = max(DEFAULT_ORDER, 2 * n)
    h_n, _ = normalize(PowerSeries.monomial(n, order=order, scale=1.0 / n), p, g)
    return seminorm_estimate(apply_generalized(h_n, s), p, g).value


def preimage_under_cesaro(g: PowerSeries) -> PowerSeries:
    """The explicit preimage f = z(1-z) g' of g under the Cesaro operator."""
    if g.coeffs[0] != 0:
        raise DomainError("preimage_under_cesaro requires g(0) = 0")
    d = ps_derivative(g).coeffs
    out = np.zeros(d.size + 2, dtype=np.complex128)
    out[1:-1] += d
    out[2:] -= d
    return PowerSeries(out)
