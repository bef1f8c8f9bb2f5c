"""Explicit boundedness constants, the (alpha, beta) decision table, and the
counterexample divergence probes.

The bounded/unbounded/compact classification is total on alpha > 0 and
deterministic, every boundary decided by `compare`; the constants are 1-D
maxima of radial profiles, since every certified bound depends on |z| only.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_alpha

# Least-squares divergence exponents above this threshold count as divergent.
DIVERGENCE_THRESHOLD = 0.05

# A fitted log-term coefficient above this counts as a detected logarithmic
# correction (itself divergent even at exponent 0).
LOG_DETECTION_THRESHOLD = 0.5

_COMPACT = ("Bounded", "Compact", "EssentialNormZero")

# Parameters within this distance of a regime boundary (beta = alpha,
# alpha = 1, beta = 1, beta = 0) are treated as on it.
REGIME_TOL = 1e-12


def compare(x: float, y: float) -> int:
    """-1, 0 or 1 as x lies below, within REGIME_TOL of, or above y."""
    return 0 if abs(x - y) <= REGIME_TOL else (-1 if x < y else 1)


_T_HI = 1.0 - 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# abscissae of the coarse scan, shared by every call
_T_SCAN = np.linspace(0.0, _T_HI, 4096 + 1)
_T_SCAN.setflags(write=False)


def _sup_on_unit_interval(fn) -> float:
    """Supremum of fn over [0, 1), by coarse scan plus golden-section polish.

    fn maps an array of t to an array of values.  Boundary suprema are
    reported as the value at 1 - 1e-9.
    """
    vals = fn(_T_SCAN)
    k = int(np.argmax(vals))
    lo = _T_SCAN[max(k - 1, 0)]
    hi = _T_SCAN[min(k + 1, _T_SCAN.size - 1)]
    # golden-section refinement of the bracketing interval
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return float(max(vals[k], fc, fd))


def _over_t(num, t, limit: float):
    """num / t, with the removable limit at t = 0 taken below t = 1e-8."""
    # scalars (a golden-section step) skip np.divide: without this branch,
    # bound_constant at alpha >= 1 took 183-196 us instead of 89-93 us
    # (2-core Xeon, numpy 2.4.6)
    if np.ndim(t) == 0:
        return num / t if t >= 1e-8 else float(limit)
    return np.divide(num, t, out=np.full(np.shape(t), limit, dtype=float), where=t >= 1e-8)


# Radial profiles keyed by compare(alpha, 1).  For alpha > 1 the alternating
# sum over k of C(K, k) (-t)^(k-1) is (1 - (1-t)^K) / t with K = ceil(alpha).
_PROFILES = {
    -1: lambda a, b, t: (1.0 + t) ** a * (1.0 - t) ** (a - b) / (1.0 - a),
    0: lambda a, b, t: (1.0 - t) ** (1.0 - b) * _over_t(np.log((1.0 + t) / (1.0 - t)), t, 2.0),
    1: lambda a, b, t: (1.0 + t) ** a * (1.0 - t) ** (1.0 - b) / (a - 1.0)
    * _over_t(1.0 - (1.0 - t) ** math.ceil(a), t, math.ceil(a)),
}


def bound_constant(alpha: float, beta: float) -> float:
    """Operator-norm bound, defined exactly where classify says Bounded.

    beta <= alpha < 1:  sup (1+t)^alpha (1-t)^(alpha-beta) / (1-alpha)
    beta <= 1 < alpha:  sup (1+t)^alpha (1-t)^(1-beta) / (alpha-1)
                            * sum_{k=1..ceil(alpha)} C(ceil(alpha),k)(-t)^(k-1)
    beta < alpha = 1:   sup (1-t)^(1-beta) log((1+t)/(1-t)) / t
    """
    if not classify(alpha, beta).bounded:
        raise DomainError(f"no certified bound for alpha={alpha}, beta={beta}")
    profile = _PROFILES[compare(alpha, 1.0)]
    return _sup_on_unit_interval(lambda t: profile(alpha, beta, t))


@dataclass(frozen=True)
class Classification:
    """Verdict flags plus the regime tags that justify them."""

    verdict: tuple[str, ...]
    source: tuple[str, ...]

    @property
    def bounded(self) -> bool:
        return "Bounded" in self.verdict

    def to_dict(self) -> dict:
        return {"verdict": "+".join(self.verdict), "source": " / ".join(self.source)}


def classify(alpha: float, beta: float) -> Classification:
    """Total, deterministic decision table on alpha > 0, beta real; equality
    with a boundary means equality up to REGIME_TOL."""
    check_alpha(alpha)
    beta_vs_alpha = compare(beta, alpha)
    alpha_vs_1 = compare(alpha, 1.0)
    if beta_vs_alpha > 0:
        return Classification(("Unbounded",), ("counterexample: identity function, beta > alpha",))
    if beta_vs_alpha == 0:
        if alpha_vs_1 >= 0:
            return Classification(("Unbounded",), ("counterexample: principal log, beta = alpha >= 1",))
        return Classification(
            _COMPACT, ("essential norm zero for beta = alpha < 1 (hence compact, hence bounded)",)
        )
    # now beta < alpha
    if alpha_vs_1 < 0:
        return Classification(
            _COMPACT, ("bounded for beta <= alpha < 1", "compact for beta < alpha < 1")
        )
    if alpha_vs_1 == 0:
        return Classification(
            _COMPACT, ("bounded for beta < alpha = 1", "compact for beta < alpha = 1")
        )
    # alpha > 1
    beta_vs_1 = compare(beta, 1.0)
    if beta_vs_1 > 0:
        return Classification(("Unbounded",), ("counterexample: z/(1-z)^(alpha-1), 1 < beta < alpha",))
    if beta_vs_1 == 0:
        return Classification(
            _COMPACT, ("bounded for beta <= 1 < alpha", "essential norm zero for beta = 1 < alpha")
        )
    return Classification(
        _COMPACT, ("bounded for beta <= 1 < alpha", "compact for beta < 1 < alpha")
    )


@dataclass(frozen=True)
class ProbeReport:
    """Sampled values with a fitted divergence/decay exponent; the exponent
    is None when fewer than two samples are positive, so no fit exists."""

    samples: tuple[tuple[float, float], ...]
    fitted_exponent: float | None
    verdict: str
    log_coefficient: float = 0.0
    labels: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "samples": [[float(t), float(v)] for t, v in self.samples],
            "fitted_exponent": self.fitted_exponent,
            "log_coefficient": self.log_coefficient,
            "verdict": self.verdict,
            "labels": list(self.labels),
        }


def least_squares(columns, y) -> tuple[float, ...] | None:
    """Coefficients of the one or two columns in the least-squares fit of y
    by them plus a constant, from the centered normal equations in Python
    floats and math.fsum (no BLAS kernel picks the bits); None with no more
    samples than columns, or a Gram determinant of the centered columns at
    most n * eps times the product of their uncentered sums of squares."""
    n = len(y)
    if n <= len(columns):
        return None
    data = (*columns, y)
    cen = [[v - m for v in c] for c, m in zip(data, [math.fsum(c) / n for c in data])]
    g = [[math.fsum(map(operator.mul, u, v)) for v in cen] for u in cen[:-1]]
    if len(columns) == 1:
        det, coefs = g[0][0], (g[0][1],)
    else:
        det = g[0][0] * g[1][1] - g[0][1] * g[0][1]
        coefs = (g[1][1] * g[0][2] - g[0][1] * g[1][2], g[0][0] * g[1][2] - g[0][1] * g[0][2])
    scale = math.prod(math.fsum(map(operator.mul, c, c)) for c in columns)
    return tuple(c / det for c in coefs) if det > n * math.ulp(1.0) * scale else None


_EXAMPLE_TAGS = ("Ex26", "Ex27", "Ex28")


def counterexample_probe(alpha: float, beta: float, which: str, t_list) -> ProbeReport:
    """Sample the displayed counterexample quantity along z = t and fit its
    divergence exponent.

    Ex26 (beta > alpha):        (1+t)^alpha / (1-t)^(beta-alpha)
    Ex27 (beta >= alpha >= 1):  same times |log(1-t)| / t
    Ex28 (beta > 1):            (1+t)^(alpha+1) / (1-t)^(beta-1)
    """
    check_alpha(alpha)
    if which not in _EXAMPLE_TAGS:
        raise DomainError(f"unknown probe {which!r}")
    ts = sorted(float(t) for t in t_list)
    if not ts or ts[0] <= 0 or ts[-1] >= 1:
        raise DomainError("t_list must lie in (0, 1)")

    if which == "Ex26":
        if compare(beta, alpha) <= 0:
            raise DomainError("Ex26 requires beta > alpha")
        values = [(1.0 + t) ** alpha / (1.0 - t) ** (beta - alpha) for t in ts]
    elif which == "Ex27":
        if compare(beta, alpha) < 0 or compare(alpha, 1.0) < 0:
            raise DomainError("Ex27 requires beta >= alpha >= 1")
        values = [
            (1.0 + t) ** alpha / (1.0 - t) ** (beta - alpha) * abs(math.log(1.0 - t)) / t
            for t in ts
        ]
    else:
        if compare(beta, 1.0) <= 0:
            raise DomainError("Ex28 requires beta > 1")
        values = [(1.0 + t) ** (alpha + 1.0) / (1.0 - t) ** (beta - 1.0) for t in ts]

    # log(value) on L = -log(1-t) and log(L): the log(L) column keeps a
    # logarithmic correction out of the exponent, where it would be bias
    big_l = [-math.log1p(-t) for t in ts]
    fit = least_squares([big_l, [math.log(x) for x in big_l]], [math.log(v) for v in values])
    if fit is None:
        raise DomainError("t_list needs at least three distinct values to fit")
    exponent, log_coef = fit
    diverges = exponent > DIVERGENCE_THRESHOLD or log_coef > LOG_DETECTION_THRESHOLD
    return ProbeReport(
        samples=tuple(zip(ts, values)),
        fitted_exponent=exponent,
        log_coefficient=log_coef,
        verdict="diverges" if diverges else "bounded",
        labels=(which,),
    )


def default_probe_ts(t_max: float = 0.9999) -> list[float]:
    """Twelve sample abscissas clustering toward 1, spanning up to t_max.

    Sampling starts no lower than t = 0.9 so that the slowly varying
    (1+t)-factors of the probe quantities are effectively constant and do
    not bias the fitted exponent.
    """
    if not 0 < t_max < 1:
        raise DomainError("t_max must lie in (0, 1)")
    lmax = -math.log1p(-t_max)
    lmin = min(-math.log1p(-0.9), 0.5 * lmax)
    n = 12
    return [1.0 - math.exp(-(lmin + (lmax - lmin) * k / (n - 1))) for k in range(n)]
