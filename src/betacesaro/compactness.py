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
from .operators import SymbolGBeta, apply_generalized, compact_approximant
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


def null_family(
    kind: str, m_max: int, p: BlochParams, g: SampleGrid, order: int = DEFAULT_ORDER
) -> NullFamily:
    """Construct the family m = 1..m_max of the given kind, normalized to
    unit estimated seminorm, and verify the compact-subset decay numerically.

    The monomial family is z^m; the dilation family is -log(1-z) dilated by
    1 - 2^-m.
    """
    if m_max < 1:
        raise DomainError("null_family requires m_max >= 1")
    if kind == "monomial":
        raw = [PowerSeries.monomial(m, order=max(order, 2 * m)) for m in range(1, m_max + 1)]
    elif kind == "dilation":
        w = truncated_log_witness(order)
        raw = [w.dilate(1.0 - 2.0 ** (-m)) for m in range(1, m_max + 1)]
    else:
        raise DomainError(f"unknown family kind {kind!r}")
    members, norms = zip(*(normalize(f, p, g) for f in raw))
    verified = _half_disk_sup(members[-1]) < NULL_SUP_THRESHOLD
    return NullFamily(kind=kind, members=members, normalization=norms, verified_null=verified)


def _log_slope(x: np.ndarray | list[float], values: list[float]) -> float | None:
    """Slope of the least-squares line through (x, log v) over the samples
    with v > 0; None when fewer than two are positive."""
    pos = [(xi, v) for xi, v in zip(x, values) if v > 0]
    if len(pos) < 2:
        return None
    xs, vs = zip(*pos)
    return float(np.polyfit(xs, np.log(vs), 1)[0])


def _decay_verdict(values: list[float], ok: str, bad: str) -> str:
    """Consistent when the tail past the first factor-10 drop stays
    monotonically decreasing (up to estimation noise); inconclusive with
    fewer than two values, which show no trend either way."""
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
    verdict = (
        "compact-consistent"
        if all(v == 0 for v in values)
        else _decay_verdict(values, "compact-consistent", "inconsistent")
    )
    return ProbeReport(
        samples=tuple(zip(ms, values)),
        fitted_exponent=_log_slope(np.log(ms), values),
        verdict=verdict,
        labels=(fam.kind,),
    )


def default_test_family(
    p: BlochParams, g: SampleGrid, m_max: int = 32, order: int = DEFAULT_ORDER
) -> list[PowerSeries]:
    """Normalized monomials z^m, m <= m_max, plus the normalized truncation
    of -log(1-z): the extremal witnesses of the counterexample regimes."""
    members = [PowerSeries.monomial(m, order=max(order, 2 * m)) for m in range(1, m_max + 1)]
    members.append(truncated_log_witness(order))
    return [normalize(f, p, g)[0] for f in members]


def essential_norm_probe(
    s: SymbolGBeta,
    p: BlochParams,
    dilations: list[float],
    test_family: list[PowerSeries],
    g: SampleGrid,
) -> ProbeReport:
    """Empirical lower bound of the distance from the operator to its
    dilation approximant, maximized over the test family, per dilation.

    Decay toward 0 with the dilation is the essential-norm-zero signature.
    """
    ds = list(dilations)
    if any(not 0 < d < 1 for d in ds) or any(b <= a for a, b in zip(ds, ds[1:])):
        raise DomainError("dilations must be increasing in (0, 1)")
    images = [apply_generalized(f, s) for f in test_family]
    samples = []
    argmax_labels = []
    for d in ds:
        best = 0.0
        best_i = 0
        for i, (f, image) in enumerate(zip(test_family, images)):
            diff = image - compact_approximant(f, s, d)
            v = seminorm_estimate(diff, p, g).value
            if v > best:
                best = v
                best_i = i
        samples.append((d, best))
        argmax_labels.append(f"member-{best_i}")
    values = [v for _, v in samples]
    verdict = _decay_verdict(values, "essential-norm-zero-consistent", "inconsistent")
    return ProbeReport(
        samples=tuple(samples),
        # decay rate of the distance in -log(1-s)
        fitted_exponent=_log_slope([-math.log1p(-d) for d in ds], values),
        verdict=verdict,
        labels=tuple(argmax_labels),
    )
