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
from .bounds import compare
from .series import PowerSeries, ps_derivative, tail_estimate

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
    """Polar sampling grid: strictly increasing radii x the n_angles uniform
    angles 2*pi*k/A, k = 0..A-1, which the ring FFT of `eval_on_grid` assumes."""

    radii: np.ndarray
    n_angles: int

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise DomainError("radii must be a nonempty vector")
        if np.any(np.diff(r) <= 0):
            raise DomainError("radii must be strictly increasing")
        if r[-1] >= 1 or r[0] < 0:
            raise DomainError("radii must lie in [0, 1)")
        if type(self.n_angles) is not int or self.n_angles < 1:  # bool and float are not counts
            raise DomainError(f"n_angles must be an integer >= 1, got {self.n_angles!r}")
        r.setflags(write=False)
        object.__setattr__(self, "radii", r)

    @cached_property
    def points(self) -> np.ndarray:
        """Complex sample points, shape (n_radii, n_angles)."""
        angles = 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles
        return self.radii[:, None] * np.exp(1j * angles[None, :])

    def weights(self, alpha: float) -> np.ndarray:
        """(1 - r^2)^alpha per radius."""
        return (1.0 - self.radii**2) ** alpha


def default_grid(
    n_radial: int = DEFAULT_N_RADIAL,
    n_angular: int = DEFAULT_N_ANGULAR,
    r_max: float = DEFAULT_R_MAX,
) -> SampleGrid:
    """Radii 1 - rho^k, k = 0..n_radial, clustering geometrically toward the
    boundary with r_{n_radial} = r_max, x n_angular uniform angles."""
    if not 0 < r_max < 1:
        raise DomainError("r_max must lie in (0, 1)")
    if n_radial < 1:
        raise DomainError("grid needs at least one radius")
    rho = (1.0 - r_max) ** (1.0 / n_radial)
    radii = 1.0 - rho ** np.arange(n_radial + 1)
    radii[0] = 0.0
    radii[-1] = r_max
    return SampleGrid(radii=radii, n_angles=n_angular)


def eval_on_grid(f: PowerSeries, g: SampleGrid) -> np.ndarray:
    """Values of the truncation at the grid points, shape (n_radii, n_angles).

    On the ring |z| = r the values at the angles 2*pi*k/A are A times the
    inverse DFT of the coefficients c_n r^n folded mod A.  The fold of bin k
    is r^k * sum_q c_{k+qA} (r^A)^q, summed by Horner's rule in r^A over the
    blocks of A coefficients, so the whole grid costs O(R (N + A log A)) for
    R radii instead of the O(R A N) of Horner at every point.
    """
    return _eval_on_rings(f, g.radii, g.n_angles)


def _eval_on_rings(f: PowerSeries, radii: np.ndarray, n_angles: int) -> np.ndarray:
    """`eval_on_grid` on the rings of the given radii only; every operation
    acts row by row, so each row equals the full grid's row bit for bit."""
    c = np.concatenate((f.coeffs, np.zeros(-f.coeffs.size % n_angles)))
    r = radii[:, None]
    step = r**n_angles
    folded = np.zeros((radii.size, n_angles), dtype=np.complex128)
    for block in c.reshape(-1, n_angles)[::-1]:
        folded = folded * step + block
    folded *= r ** np.arange(n_angles)
    return np.fft.ifft(folded, axis=1) * n_angles


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


def seminorm_estimate(f: PowerSeries, p: BlochParams, g: SampleGrid) -> SeminormEstimate:
    """Max over the grid of (1-|z|^2)^alpha |f'(z)|, with tail screening.

    Radii are visited in increasing order; a radius is excluded once the
    tail estimate of the derivative exceeds TAIL_EXCLUSION * (1 + best so
    far).  The tail estimate grows with the radius and the best value only
    moves on kept radii, so once a radius is excluded every larger one is
    too: the kept radii are a prefix.  `argmax` is the first maximizing grid
    point in (radius, angle) order, so among tied points rounding decides.

    Only kept rings are evaluated, in passes.  A pass runs from the first
    unevaluated ring up to the first ring whose tail exceeds the bound set
    by the best value before the pass; the best value before any ring of
    the pass is at least that large, so every ring of the pass is kept.  The
    screening stops at the first ring that fails the bound right at the
    start of a pass.
    """
    d = ps_derivative(f)
    weights = g.weights(p.alpha)
    tails = tail_estimate(d, g.radii)
    n_radii, n_angles = g.radii.size, g.n_angles

    passes = []
    best = 0.0
    n_kept = 0
    while n_kept < n_radii:
        over = tails[n_kept:] > TAIL_EXCLUSION * (1.0 + best)
        stop = n_kept + int(np.argmax(over)) if over.any() else n_radii
        if stop == n_kept:
            break
        rings = slice(n_kept, stop)
        prods = weights[rings, None] * np.abs(_eval_on_rings(d, g.radii[rings], n_angles))
        best = np.maximum(best, prods.max())
        passes.append(prods)
        n_kept = stop

    n_excluded = (n_radii - n_kept) * n_angles
    if n_kept == 0:
        return SeminormEstimate(value=0.0, argmax=0j, max_tail=0.0, n_excluded=n_excluded)
    prods = np.concatenate(passes)
    i, j = np.unravel_index(np.argmax(prods), prods.shape)
    value = float(prods[i, j])
    return SeminormEstimate(
        value=value,
        argmax=complex(g.points[i, j]) if value > 0 else 0j,
        max_tail=float(tails[:n_kept].max()),
        n_excluded=n_excluded,
    )


def normalize(f: PowerSeries, p: BlochParams, g: SampleGrid) -> tuple[PowerSeries, float]:
    """f scaled to unit estimated seminorm, and the estimate it was scaled by.

    An estimate of 0 (a constant f, or an order too low for any nonzero
    ring to pass the tail screen) cannot be scaled to 1 and is a DomainError.
    """
    value = seminorm_estimate(f, p, g).value
    if value == 0:
        raise DomainError("member has zero estimated seminorm at this order")
    return f.scale(1.0 / value), value


def growth_bound(p: BlochParams, r: float, seminorm: float, f0: float) -> float:
    """Pointwise growth bound for |f(z)| at |z| = r, by compare(alpha, 1):

    alpha < 1: f0 + seminorm / (1 - alpha)                       (bounded case)
    alpha = 1: f0 + (seminorm / 2) * log((1+r)/(1-r))
    alpha > 1: f0 + (seminorm / (alpha-1)) * ((1-r)^(1-alpha) - 1)
    """
    if not 0 <= r < 1:
        raise DomainError("growth_bound requires 0 <= r < 1")
    a = p.alpha
    if compare(a, 1.0) < 0:
        return f0 + seminorm / (1.0 - a)
    if compare(a, 1.0) == 0:
        return f0 + 0.5 * seminorm * math.log((1.0 + r) / (1.0 - r))
    return f0 + seminorm / (a - 1.0) * ((1.0 - r) ** (1.0 - a) - 1.0)


def growth_check(f: PowerSeries, p: BlochParams, g: SampleGrid) -> ProbeVerdict:
    """Check |f(z)| against the growth bound at every grid point.

    Failures beyond the slack GROWTH_SLACK + tail estimate are reported in
    the verdict, never raised.  The worst point is the first grid point, in
    (radius, angle) order, of least margin bound - |f|.  A ring's least
    margin is its bound minus its largest |f|, exactly, because b - x
    rounds monotonically in x.
    """
    est = seminorm_estimate(f, p, g)
    f0 = abs(complex(f.coeffs[0]))
    fvals = np.abs(eval_on_grid(f, g))
    ftails = tail_estimate(f, g.radii)

    bounds = np.array([growth_bound(p, float(r), est.value, f0) for r in g.radii])
    ring_margins = bounds - fvals.max(axis=1)
    i = int(np.argmin(ring_margins))
    worst = float(ring_margins[i])
    argworst = complex(g.points[i, np.argmin(bounds[i] - fvals[i])])
    passed = not np.any(ring_margins < -(GROWTH_SLACK + ftails + est.max_tail))
    return ProbeVerdict(passed=passed, worst_margin=worst, argworst=argworst)
