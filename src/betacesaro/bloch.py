"""Grid-based estimation of alpha-Bloch seminorms and growth-bound checks.

The supremum over the unit disk is approximated from below by the maximum
over a structured polar grid whose radii cluster geometrically toward the
boundary.  Grid points whose truncation-tail estimate is too large to trust
are excluded and counted, so near-boundary truncation error never
masquerades as seminorm mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .series import PowerSeries, eval_on_points, ps_derivative, tail_scale

DEFAULT_N_RADIAL = 64
DEFAULT_N_ANGULAR = 128
DEFAULT_R_MAX = 0.999

# A grid point is excluded from the running max when its tail estimate
# exceeds this fraction of (1 + current best value).
TAIL_EXCLUSION = 1e-6

# Absolute slack granted to the growth-bound comparison.
GROWTH_SLACK = 1e-8


@dataclass(frozen=True)
class BlochParams:
    """The exponent of the weight (1-|z|^2)^alpha; alpha > 0 throughout."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")


@dataclass(frozen=True)
class SampleGrid:
    """Polar sampling grid: strictly increasing radii x uniform angles."""

    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        a = np.asarray(self.angles, dtype=float)
        if np.any(np.diff(r) <= 0):
            raise DomainError("radii must be strictly increasing")
        if r[-1] >= 1 or r[0] < 0:
            raise DomainError("radii must lie in [0, 1)")
        r.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "angles", a)

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    @cached_property
    def points(self) -> np.ndarray:
        """Complex sample points, shape (n_radii, n_angles)."""
        return self.radii[:, None] * np.exp(1j * self.angles[None, :])

    def weights(self, alpha: float) -> np.ndarray:
        """(1 - r^2)^alpha per radius."""
        return (1.0 - self.radii**2) ** alpha


def default_grid(
    n_radial: int = DEFAULT_N_RADIAL,
    n_angular: int = DEFAULT_N_ANGULAR,
    r_max: float = DEFAULT_R_MAX,
) -> SampleGrid:
    """Radii 1 - rho^k, k = 0..n_radial, clustering geometrically toward the
    boundary with r_{n_radial} = r_max; angles uniform on [0, 2*pi)."""
    if not 0 < r_max < 1:
        raise DomainError("r_max must lie in (0, 1)")
    if n_radial < 1 or n_angular < 1:
        raise DomainError("grid needs at least one radius and one angle")
    rho = (1.0 - r_max) ** (1.0 / n_radial)
    radii = 1.0 - rho ** np.arange(n_radial + 1)
    radii[0] = 0.0
    radii[-1] = r_max
    angles = 2.0 * math.pi * np.arange(n_angular) / n_angular
    return SampleGrid(radii=radii, angles=angles)


@dataclass(frozen=True)
class SeminormEstimate:
    """Grid maximum of (1-|z|^2)^alpha |f'(z)|; a lower bound of the sup."""

    value: float
    argmax: complex
    max_tail: float
    n_excluded: int = 0

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax": [self.argmax.real, self.argmax.imag],
            "max_tail": self.max_tail,
            "n_excluded": self.n_excluded,
        }


@dataclass(frozen=True)
class ProbeVerdict:
    passed: bool
    worst_margin: float
    argworst: complex


def _radial_tails(f: PowerSeries, radii: np.ndarray) -> np.ndarray:
    m = tail_scale(f)
    return m * radii ** (f.order + 1) / (1.0 - radii)


def seminorm_estimate(f: PowerSeries, p: BlochParams, g: SampleGrid) -> SeminormEstimate:
    """Max over the grid of (1-|z|^2)^alpha |f'(z)|, with tail screening.

    Radii are visited in increasing order; a radius is excluded once the
    tail estimate of the derivative exceeds TAIL_EXCLUSION * (1 + best so
    far).
    """
    d = ps_derivative(f)
    vals = np.abs(eval_on_points(d, g.points))
    prods = g.weights(p.alpha)[:, None] * vals
    tails = _radial_tails(d, g.radii)

    best = 0.0
    argmax = 0j
    max_tail = 0.0
    n_excluded = 0
    for i in range(g.radii.size):
        if tails[i] > TAIL_EXCLUSION * (1.0 + best):
            n_excluded += g.angles.size
            continue
        j = int(np.argmax(prods[i]))
        max_tail = max(max_tail, float(tails[i]))
        if prods[i, j] > best:
            best = float(prods[i, j])
            argmax = complex(g.points[i, j])
    return SeminormEstimate(value=best, argmax=argmax, max_tail=max_tail, n_excluded=n_excluded)


def bloch_norm(f: PowerSeries, p: BlochParams, g: SampleGrid) -> float:
    """|f(0)| + seminorm estimate (the Banach-space norm on the full space)."""
    return abs(complex(f.coeffs[0])) + seminorm_estimate(f, p, g).value


def growth_bound(p: BlochParams, r: float, seminorm: float, f0: float) -> float:
    """Pointwise growth bound for |f(z)| at |z| = r from the seminorm.

    alpha < 1: f0 + seminorm / (1 - alpha)                       (bounded case)
    alpha = 1: f0 + (seminorm / 2) * log((1+r)/(1-r))
    alpha > 1: f0 + (seminorm / (alpha-1)) * ((1-r)^(1-alpha) - 1)
    """
    if not 0 <= r < 1:
        raise DomainError("growth_bound requires 0 <= r < 1")
    a = p.alpha
    if a < 1:
        return f0 + seminorm / (1.0 - a)
    if a == 1:
        return f0 + 0.5 * seminorm * math.log((1.0 + r) / (1.0 - r))
    return f0 + seminorm / (a - 1.0) * ((1.0 - r) ** (1.0 - a) - 1.0)


def growth_check(f: PowerSeries, p: BlochParams, g: SampleGrid) -> ProbeVerdict:
    """Check |f(z)| against the growth bound at every grid point.

    Failures beyond the slack GROWTH_SLACK + tail estimate are reported in
    the verdict, never raised.
    """
    est = seminorm_estimate(f, p, g)
    f0 = abs(complex(f.coeffs[0]))
    fvals = np.abs(eval_on_points(f, g.points))
    ftails = _radial_tails(f, g.radii)

    passed = True
    worst = math.inf
    argworst = 0j
    for i, r in enumerate(g.radii):
        bound = growth_bound(p, float(r), est.value, f0)
        margins = bound - fvals[i]
        j = int(np.argmin(margins))
        if margins[j] < worst:
            worst = float(margins[j])
            argworst = complex(g.points[i, j])
        if margins[j] < -(GROWTH_SLACK + ftails[i] + est.max_tail):
            passed = False
    return ProbeVerdict(passed=passed, worst_margin=worst, argworst=argworst)

