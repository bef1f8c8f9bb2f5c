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
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, check_array, check_integer, check_real
from .bounds import compare
from .series import PowerSeries, _pairs, ps_derivative, tail_estimate

DEFAULT_N_RADIAL = 64
DEFAULT_N_ANGULAR = 128
DEFAULT_R_MAX = 0.999

# Caps on the grid counts `default_grid` (and so the CLI) accepts.  A grid
# keeps its ring table r^k (8 B) for k <= n_angular on each of n_radial + 1
# rings, 8.4 MB at the caps, built once by libm in about 230 ms there (no
# benchmark workload runs the caps); an evaluation adds at most 32 B per point
# of temporaries (an estimate over the whole grid at the caps peaks at 25 MB,
# 24 B per point), and `default_grid` keeps at most GRID_CACHE_SIZE grids
# alive, so at most 34 MB of tables.  An evaluation also builds the block
# powers (r^A)^q, 8 B per ring per block of A coefficients; they outgrow the
# (rings x A) output only past 2A blocks, a long series on few angles: 1025
# rings at A = 1 and order 1024 take 8.4 MB, as much as the ring table.
MAX_N_RADIAL = 1024
MAX_N_ANGULAR = 1024
GRID_CACHE_SIZE = 4

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
        check_real("BlochParams", "alpha", self.alpha, 0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Polar sampling grid: strictly increasing radii x the n_angles uniform
    angles 2*pi*k/A, k = 0..A-1, which the ring FFT of `eval_on_grid` assumes.

    The grid is immutable: its radii and the table it builds on first use
    (the ring powers of `eval_on_grid`) are read-only, so one grid can serve
    every caller.  Grids compare and hash by identity.
    """

    radii: np.ndarray
    n_angles: int

    def __post_init__(self):
        r = check_array("SampleGrid", "real", "radii", self.radii).astype(float)
        if r.ndim != 1 or r.size == 0:
            raise DomainError("radii must be a nonempty vector")
        if not np.all(np.isfinite(r)):
            raise DomainError("radii must be finite")
        if np.any(np.diff(r) <= 0):
            raise DomainError("radii must be strictly increasing")
        if r[-1] >= 1 or r[0] < 0:
            raise DomainError("radii must lie in [0, 1)")
        object.__setattr__(self, "n_angles", check_integer("SampleGrid", "n_angles", self.n_angles, 1))
        object.__setattr__(self, "radii", _read_only(r))

    def point(self, i: int, j: int) -> complex:
        """The sample point on ring i at angle 2*pi*j/A."""
        return complex(self.radii[i] * np.exp(1j * (2.0 * math.pi * j / self.n_angles)))

    @cached_property
    def ring_powers(self) -> np.ndarray:
        """r^k, k = 0..n_angles, by libm: column k < A is the factor of bin k
        of a ring's fold, column A the ratio r^A of consecutive blocks."""
        return _read_only(_per_element(math.pow, self.radii[:, None], np.arange(self.n_angles + 1)))

    def weights(self, alpha: float) -> np.ndarray:
        """(1 - r^2)^alpha per radius."""
        check_real("SampleGrid.weights", "alpha", alpha, 0)
        return (1.0 - self.radii**2) ** alpha


def default_grid(
    n_radial: int = DEFAULT_N_RADIAL,
    n_angular: int = DEFAULT_N_ANGULAR,
    r_max: float = DEFAULT_R_MAX,
) -> SampleGrid:
    """Radii 1 - rho^k, k = 0..n_radial, clustering geometrically toward the
    boundary with r_{n_radial} = r_max, x n_angular uniform angles.

    Equal arguments return one shared grid, so its tables are built once;
    counts above MAX_N_RADIAL / MAX_N_ANGULAR are rejected before any array
    is allocated.
    """
    r_max = check_real("default_grid", "r_max", r_max, 0, 1)
    n_radial = check_integer("default_grid", "n_radial", n_radial, 1, MAX_N_RADIAL)
    n_angular = check_integer("default_grid", "n_angular", n_angular, 1, MAX_N_ANGULAR)
    return _shared_grid(n_radial, n_angular, r_max)


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _shared_grid(n_radial: int, n_angular: int, r_max: float) -> SampleGrid:
    rho = (1.0 - r_max) ** (1.0 / n_radial)
    radii = 1.0 - _per_element(math.pow, rho, np.arange(n_radial + 1))
    radii[0] = 0.0
    radii[-1] = r_max
    return SampleGrid(radii=radii, n_angles=n_angular)


def eval_on_grid(f: PowerSeries, g: SampleGrid) -> np.ndarray:
    """Values of the truncation at the grid points, shape (n_radii, n_angles).

    On the ring |z| = r the values at the angles 2*pi*k/A are A times the
    inverse DFT of the coefficients c_n r^n folded mod A.  The fold of bin k
    is r^k * sum_q (r^A)^q c_{k+qA} over the blocks of A coefficients up to
    the last nonzero one, so the whole grid costs O(R (D + A log A)) for R
    radii and last nonzero degree D, instead of the O(R A N) of Horner at
    every point.  The table r^k, k = 0..A, is the grid's own, built by libm
    on its first evaluation.

    The sum is one contraction of the block powers with the blocks, and its
    bits are those of the loop acc = +0; acc = acc + (r^A)^q * block q for
    q = 0, 1, ..., on real and imaginary parts alike, with (r^A)^q formed
    by repeated multiplication.  The fold calls neither BLAS nor np.power,
    and libm builds the table, so the values have the same bits on every
    CPU, and a series of degree below A gets its block itself (1.0 * x = x).
    """
    return _eval_on_rings(f, g, slice(None))


def _eval_on_rings(f: PowerSeries, g: SampleGrid, rings: slice) -> np.ndarray:
    """`eval_on_grid` on the rings g.radii[rings] only; every operation,
    the contraction included, acts row by row, so each row equals the full
    grid's row bit for bit."""
    n_angles = g.n_angles
    nonzero = np.flatnonzero(f.coeffs)
    # all-zero blocks past the last nonzero coefficient leave the fold at +0
    n_blocks = int(nonzero[-1]) // n_angles + 1 if nonzero.size else 0
    blocks = np.zeros((n_blocks, n_angles), dtype=np.complex128)
    c = blocks.reshape(-1)
    c[: min(c.size, f.coeffs.size)] = f.coeffs[: c.size]
    table = g.ring_powers[rings]
    powers = np.empty((table.shape[0], n_blocks))
    powers[:, :1] = 1.0
    powers[:, 1:] = table[:, -1:]
    np.multiply.accumulate(powers, axis=1, out=powers)
    # einsum without `optimize` sums in q order in its own loop; matmul,
    # dot and tensordot would call BLAS, whose bits depend on the CPU
    folded = np.einsum("rq,qa->ra", powers, blocks.view(np.float64)).view(np.complex128)
    folded *= table[:, :-1]
    out = np.fft.ifft(folded, axis=1, out=folded)
    out *= n_angles
    return out


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
            "argmax": _pairs(self.argmax),
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

    Radii are visited in increasing order; ring i is kept while the tail
    estimate of the derivative there is at most TAIL_EXCLUSION * (1 + the
    largest value on the rings before it), and the first ring that fails
    ends the kept prefix.  `argmax` is the first maximizing grid point in
    (radius, angle) order over the kept rings, so among tied points
    rounding decides.

    The rings are evaluated once, up to a cap: on the disk
    (1-|z|^2)^alpha |f'(z)| <= sum |d_k| over the derivative's coefficients,
    so no value can lift the screen's bound past TAIL_EXCLUSION * (1 + 2 *
    that sum), the factor 2 covering the rounding of the sum, the fold and
    the FFT.  The first ring whose tail exceeds it would fail the screen
    whatever came before, so the rings from it on are never evaluated.

    The last estimate is kept on f, and a call with equal params and the
    same grid object returns it without evaluating again; any other call
    replaces it, so f keeps one estimate and one grid alive.
    """
    memo = f._seminorm
    if memo is not None and memo[0] is g and memo[1] == p:
        return memo[2]
    est = _estimate(f, p, g)
    object.__setattr__(f, "_seminorm", (g, p, est))
    return est


def _estimate(f: PowerSeries, p: BlochParams, g: SampleGrid) -> SeminormEstimate:
    d = ps_derivative(f)
    tails = tail_estimate(d, g.radii)
    n_radii, n_angles = g.radii.size, g.n_angles
    with np.errstate(over="ignore"):  # an infinite sum caps nothing
        cap_bound = TAIL_EXCLUSION * (1.0 + 2.0 * np.abs(d.coeffs).sum())
    cap = _first(tails > cap_bound, n_radii)
    prods = np.abs(_eval_on_rings(d, g, slice(0, cap)))
    prods *= g.weights(p.alpha)[:cap, None]
    ring_max = prods.max(axis=1)
    best_before = np.concatenate(([0.0], np.maximum.accumulate(ring_max)[:-1]))
    n_kept = _first(tails[:cap] > TAIL_EXCLUSION * (1.0 + best_before), cap)
    n_excluded = (n_radii - n_kept) * n_angles
    if n_kept == 0:
        return SeminormEstimate(value=0.0, argmax=0j, max_tail=0.0, n_excluded=n_excluded)
    i = int(np.argmax(ring_max[:n_kept]))
    j = int(np.argmax(prods[i]))
    value = float(prods[i, j])
    return SeminormEstimate(
        value=value,
        argmax=g.point(i, j) if value > 0 else 0j,
        max_tail=float(tails[:n_kept].max()),
        n_excluded=n_excluded,
    )


def _first(mask: np.ndarray, default: int) -> int:
    """The index of the first True in mask, or default if there is none."""
    return int(np.argmax(mask)) if mask.any() else default


def normalize(f: PowerSeries, p: BlochParams, g: SampleGrid) -> tuple[PowerSeries, float]:
    """f scaled to unit estimated seminorm, and the estimate it was scaled by.

    An estimate of 0 (a constant f, or an order too low for any nonzero
    ring to pass the tail screen) cannot be scaled to 1 and is a DomainError.
    The estimate is taken afresh, not through `seminorm_estimate`, and is
    not kept on f: the probe families keep their scaled members themselves,
    and so the `seminorm_estimate` calls the benchmark's tracer counts do
    not depend on which members a process has already built.
    """
    value = _estimate(f, p, g).value
    if value == 0:
        raise DomainError("member has zero estimated seminorm at this order")
    return f.scale(1.0 / value), value


def _per_element(fn, *args) -> np.ndarray:
    """fn by libm on each element of the broadcast arguments (NumPy's SIMD log
    and power can differ in the last bit); out= casts in bounded buffers."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, args)))
    return np.frompyfunc(fn, len(args), 1)(*args, out=out, casting="unsafe")


def growth_bound(p: BlochParams, r: float | np.ndarray, seminorm: float, f0: float) -> float | np.ndarray:
    """Pointwise growth bound for |f(z)| at |z| = r, by compare(alpha, 1):

    alpha < 1: f0 + seminorm / (1 - alpha)                       (bounded case)
    alpha = 1: f0 + (seminorm / 2) * log((1+r)/(1-r))
    alpha > 1: f0 + (seminorm / (alpha-1)) * ((1-r)^(1-alpha) - 1)

    r is a radius or an array of radii; the result is a float or an array
    of the same shape; seminorm and f0 are finite reals >= 0.
    """
    r = check_array("growth_bound", "real", "radii", r).astype(float)
    if not np.all((r >= 0) & (r < 1)):
        raise DomainError("growth_bound requires 0 <= r < 1")
    for name, value in (("seminorm", seminorm), ("f0", f0)):
        if check_real("growth_bound", name, value) < 0:
            raise DomainError(f"growth_bound requires {name} >= 0, got {value}")
    a = p.alpha
    regime = compare(a, 1.0)
    if regime < 0:
        bound = np.full(r.shape, f0 + seminorm / (1.0 - a))
    elif regime == 0:
        bound = f0 + 0.5 * seminorm * _per_element(math.log, (1.0 + r) / (1.0 - r))
    else:
        bound = f0 + seminorm / (a - 1.0) * (_per_element(math.pow, 1.0 - r, 1.0 - a) - 1.0)
    return bound if bound.ndim else float(bound)


def growth_check(f: PowerSeries, p: BlochParams, g: SampleGrid) -> ProbeVerdict:
    """Check |f(z)| against the growth bound at every grid point.

    Failures beyond the slack GROWTH_SLACK + tail estimate are reported in
    the verdict, never raised.  The worst point is the first grid point, in
    (radius, angle) order, of least margin bound - |f|.  A ring's least
    margin is its bound minus its largest |f|, exactly, because b - x
    rounds monotonically in x.  The seminorm in the bound is
    `seminorm_estimate(f, p, g)`, which returns the estimate f keeps when
    the caller has already taken it on this grid.
    """
    est = seminorm_estimate(f, p, g)
    f0 = abs(complex(f.coeffs[0]))
    fvals = np.abs(eval_on_grid(f, g))
    ftails = tail_estimate(f, g.radii)

    bounds = growth_bound(p, g.radii, est.value, f0)
    ring_margins = bounds - fvals.max(axis=1)
    i = int(np.argmin(ring_margins))
    worst = float(ring_margins[i])
    argworst = g.point(i, int(np.argmin(bounds[i] - fvals[i])))
    passed = not np.any(ring_margins < -(GROWTH_SLACK + ftails + est.max_tail))
    return ProbeVerdict(passed=passed, worst_margin=worst, argworst=argworst)
