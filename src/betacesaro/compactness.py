"""Empirical compactness and essential-norm probes.

Null families realize bounded sequences that converge to 0 uniformly on
compact subsets of the disk; compactness of the operator is witnessed by
the decay of the image norms, and essential norm zero by the decay of the
distance to the dilation approximants.  All probe values are grid
estimates, hence lower bounds of the operator quantities; verdicts are
trend-based with explicit thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochParams, SampleGrid, eval_on_grid, normalize, seminorm_estimate
from .bounds import ProbeReport
from .errors import DomainError
from .operators import SymbolGBeta, apply_generalized
from .series import DEFAULT_ORDER, PowerSeries

# Probe verdicts require decay below this fraction of the initial value.
DECAY_FACTOR = 0.1

# Compact-subset check: members must fall below this sup on |z| <= 1/2.
NULL_SUP_THRESHOLD = 1e-3

_HALF_DISK = SampleGrid(np.array([0.5]), 64)


@dataclass(frozen=True)
class NullFamily:
    """Normalized sequence in the zero-at-origin Bloch space converging to 0
    on compact subsets."""

    kind: str
    members: tuple[PowerSeries, ...]
    normalization: tuple[float, ...]
    verified_null: bool


def _half_disk_sup(f: PowerSeries) -> float:
    return float(np.max(np.abs(eval_on_grid(f, _HALF_DISK))))


def truncated_log_witness(order: int = DEFAULT_ORDER) -> PowerSeries:
    """Truncation of -log(1-z), the extremal witness of the log regime."""
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1:] = 1.0 / np.arange(1, order + 1)
    return PowerSeries(c)


def _unit_monomial(m: int, p: BlochParams, g: SampleGrid, order: int) -> tuple[PowerSeries, float]:
    """z^m at order max(order, 2m) scaled to unit estimated seminorm, with that seminorm."""
    return normalize(PowerSeries.monomial(m, order=max(order, 2 * m)), p, g)


def null_family(
    kind: str, m_max: int, p: BlochParams, g: SampleGrid, order: int = DEFAULT_ORDER
) -> NullFamily:
    """Construct the family m = 1..m_max of the given kind, normalized to
    unit estimated seminorm, and verify the compact-subset decay numerically.

    The monomial family is z^m; the dilation family is -log(1-z) dilated by
    1 - 2^-m, which rounds to 1 for m >= 54, so that family stops at 53.
    The dilation family is not null (it tends to -log(1-z), not to 0) and
    stays only because the ``probes_n1024`` benchmark workload calls it,
    until that workload's declared change (ROADMAP item 2).
    """
    if m_max < 1:
        raise DomainError("null_family requires m_max >= 1")
    if kind == "dilation" and 1.0 - 2.0 ** (-m_max) == 1.0:
        raise DomainError(f"the dilation family needs m_max <= 53: 1 - 2^-{m_max} rounds to 1")
    if kind == "monomial":
        scaled = [_unit_monomial(m, p, g, order) for m in range(1, m_max + 1)]
    elif kind == "dilation":
        w = truncated_log_witness(order)
        scaled = [normalize(w.dilate(1.0 - 2.0 ** (-m)), p, g) for m in range(1, m_max + 1)]
    else:
        raise DomainError(f"unknown family kind {kind!r}")
    members, norms = zip(*scaled)
    verified = _half_disk_sup(members[-1]) < NULL_SUP_THRESHOLD
    return NullFamily(kind=kind, members=members, normalization=norms, verified_null=verified)


def _log_slope(x: np.ndarray | list[float], values: list[float]) -> float | None:
    """Slope of the least-squares line through (x, log v) over the samples
    with v > 0; None when fewer than two are positive or their x are too
    close to determine a line."""
    pos = [(xi, v) for xi, v in zip(x, values) if v > 0]
    if len(pos) < 2:
        return None
    xs, vs = zip(*pos)
    coef, _, rank, _, _ = np.polyfit(xs, np.log(vs), 1, full=True)
    return float(coef[0]) if rank == 2 else None


def _decay_verdict(values: list[float], ok: str, bad: str) -> str:
    """Consistent when every value is 0 or the tail past the first factor-10
    drop stays monotonically decreasing (up to estimation noise); otherwise
    inconclusive with fewer than two values, which show no trend either way."""
    if values and all(v == 0 for v in values):
        return ok
    if len(values) < 2:
        return "inconclusive"
    first = values[0]
    k0 = None
    for i, v in enumerate(values):
        if v < DECAY_FACTOR * first:
            k0 = i
            break
    if k0 is None:
        return bad
    tail = values[k0:]
    noise = 1e-9 * (1.0 + first)
    if all(tail[i + 1] <= tail[i] + noise for i in range(len(tail) - 1)):
        return ok
    return bad


def compactness_probe(
    s: SymbolGBeta, p: BlochParams, fam: NullFamily, g: SampleGrid
) -> ProbeReport:
    """Image norms of the operator along the null family; a compact operator
    sends the family to 0 in norm."""
    values = [
        seminorm_estimate(apply_generalized(f, s), p, g).value for f in fam.members
    ]
    ms = np.arange(1, len(values) + 1, dtype=float)
    return ProbeReport(
        samples=tuple(zip(ms, values)),
        fitted_exponent=_log_slope(np.log(ms), values),
        verdict=_decay_verdict(values, "compact-consistent", "inconsistent"),
        labels=(fam.kind,),
    )


def default_test_family(
    p: BlochParams, g: SampleGrid, m_max: int = 32, order: int = DEFAULT_ORDER
) -> list[PowerSeries]:
    """Normalized monomials z^m, m <= m_max, plus the normalized truncation
    of -log(1-z): the extremal witnesses of the counterexample regimes."""
    members = [_unit_monomial(m, p, g, order)[0] for m in range(1, m_max + 1)]
    return members + [normalize(truncated_log_witness(order), p, g)[0]]


def approximate_eigen_probe(s: SymbolGBeta, n: int, p: BlochParams, g: SampleGrid) -> float:
    """Norm of the operator applied to the unit vector z^n / ||z^n||; tends
    to 0 like 1/n, witnessing the approximate eigenvalue 0."""
    if n < 1:
        raise DomainError("approximate_eigen_probe requires n >= 1")
    h_n, _ = _unit_monomial(n, p, g, DEFAULT_ORDER)
    return seminorm_estimate(apply_generalized(h_n, s), p, g).value


def essential_norm_probe(
    s: SymbolGBeta,
    p: BlochParams,
    dilations: list[float],
    test_family: list[PowerSeries],
    g: SampleGrid,
) -> ProbeReport:
    """Empirical lower bound of the distance from the operator C to its
    dilation approximant f -> C(f_d), maximized over the test family, per
    dilation d, and labelled by the first member that attains it.

    Each distance is the estimated seminorm of C(f - f_d), equal to
    C f - C(f_d) by linearity: one operator application per sample, and no
    near-subnormal tail of f_d in the operand to slow the product inside C.
    Decay toward 0 with the dilation is the essential-norm-zero signature.
    """
    ds = list(dilations)
    if any(not 0 < d < 1 for d in ds) or any(b <= a for a, b in zip(ds, ds[1:])):
        raise DomainError("dilations must be increasing in (0, 1)")
    if not test_family:
        raise DomainError("essential_norm_probe requires a nonempty test family")
    values, labels = [], []
    for d in ds:
        dists = [seminorm_estimate(apply_generalized(f - f.dilate(d), s), p, g).value
                 for f in test_family]
        values.append(max(dists))
        labels.append(f"member-{dists.index(values[-1])}")
    return ProbeReport(
        samples=tuple(zip(ds, values)),
        # decay rate of the distance in -log(1-s)
        fitted_exponent=_log_slope([-math.log1p(-d) for d in ds], values),
        verdict=_decay_verdict(values, "essential-norm-zero-consistent", "inconsistent"),
        labels=tuple(labels),
    )
