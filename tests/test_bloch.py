"""Seminorm estimation on disk grids, growth bounds, and grid plumbing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacesaro import (
    BlochParams,
    DomainError,
    PowerSeries,
    SampleGrid,
    SymbolGBeta,
    apply_generalized,
    default_grid,
    growth_bound,
    growth_check,
    seminorm_estimate,
    truncated_log_witness,
)
from betacesaro.bloch import GROWTH_SLACK, TAIL_EXCLUSION, _eval_on_rings, eval_on_grid, normalize
from betacesaro.series import eval_on_points, ps_derivative, tail_estimate

from .conftest import random_poly

# ------------------------------------------------------------ construction


def test_params_require_positive_alpha():
    with pytest.raises(DomainError):
        BlochParams(alpha=0.0)
    with pytest.raises(DomainError):
        BlochParams(alpha=-1.0)


def test_default_grid_tiny():
    g = default_grid(1, 1, 0.5)
    np.testing.assert_allclose(g.radii, [0.0, 0.5])
    assert g.n_angles == 1


def test_default_grid_shape():
    g = default_grid(32, 64, 0.999)
    assert g.radii.size == 33
    assert g.n_angles == 64
    assert g.radii[-1] == 0.999


def test_default_grid_rejects_boundary():
    with pytest.raises(DomainError):
        default_grid(4, 8, 1.0)


def test_grid_radii_must_increase():
    with pytest.raises(DomainError):
        SampleGrid(radii=np.array([0.5, 0.5]), n_angles=1)


@pytest.mark.parametrize("radii", [np.array([]), np.array([[0.1, 0.2]])])
def test_grid_radii_must_be_a_nonempty_vector(radii):
    with pytest.raises(DomainError):
        SampleGrid(radii=radii, n_angles=1)


@pytest.mark.parametrize("n_angles", [0, -1, 2.0, True])
def test_grid_n_angles_must_be_a_positive_integer(n_angles):
    with pytest.raises(DomainError):
        SampleGrid(radii=np.array([0.0, 0.5]), n_angles=n_angles)


# ------------------------------------------------------- grid evaluation


@pytest.mark.parametrize(
    "order, n_radial, n_angular",
    [
        (10, 4, 1),  # A = 1: every coefficient folds onto one bin
        (5, 4, 16),  # N + 1 < A
        (100, 8, 24),  # N + 1 not a multiple of A
        (255, 8, 128),  # N + 1 a multiple of A
        (4096, 64, 128),  # the default grid at a large order
    ],
)
def test_eval_on_grid_matches_horner(order, n_radial, n_angular):
    rng = np.random.default_rng(order)
    f = PowerSeries(rng.uniform(-1.0, 1.0, (order + 1, 2)) @ np.array([1.0, 1.0j]))
    g = default_grid(n_radial, n_angular, 0.999)
    assert g.radii[0] == 0.0  # the r = 0 ring is covered
    got = eval_on_grid(f, g)
    want = eval_on_points(f, g.points)
    assert got.shape == want.shape == (n_radial + 1, n_angular)
    scale = np.abs(f.coeffs) @ (g.radii[None, :] ** np.arange(order + 1)[:, None])
    assert np.all(np.abs(got - want) <= 1e-12 * scale[:, None])


@pytest.mark.parametrize("order, n_radial, n_angular", [(10, 4, 1), (100, 8, 24), (1024, 64, 128)])
def test_ring_subset_rows_equal_full_grid_rows(order, n_radial, n_angular):
    rng = np.random.default_rng(order)
    f = PowerSeries(rng.uniform(-1.0, 1.0, (order + 1, 2)) @ np.array([1.0, 1.0j]))
    g = default_grid(n_radial, n_angular, 0.999)
    full = eval_on_grid(f, g)
    for rings in (slice(0, 1), slice(1, 3), slice(n_radial // 2, None), slice(n_radial, None)):
        part = _eval_on_rings(f, g.radii[rings], n_angular)
        assert part.tobytes() == full[rings].tobytes()


# -------------------------------------------------------- seminorm examples


def test_seminorm_identity(grid):
    est = seminorm_estimate(PowerSeries([0, 1]).truncate(32), BlochParams(1.0), grid)
    assert est.value == 1.0
    assert est.argmax == 0
    assert est.max_tail == 0.0


def test_seminorm_z_squared(grid):
    est = seminorm_estimate(PowerSeries([0, 0, 1]).truncate(32), BlochParams(1.0), grid)
    assert est.value == pytest.approx(4 / (3 * math.sqrt(3)), abs=1e-3)
    assert abs(est.argmax) == pytest.approx(1 / math.sqrt(3), abs=5e-3)


def test_seminorm_log_witness(grid):
    # The closed-form sup of (1 - r^2)/(1 - r) = 1 + r tends to 2 at the
    # boundary.  At truncation order 512 the trustworthy radii stop near
    # 0.97, so the estimate lands just below; pushing the order up lets the
    # grid reach r_max = 0.999 and the estimate approaches 2.
    p = BlochParams(1.0)
    low = seminorm_estimate(truncated_log_witness(512), p, grid)
    assert 1.9 <= low.value <= 2.0
    high = seminorm_estimate(truncated_log_witness(32768), p, grid)
    assert high.value == pytest.approx(1.999, abs=2e-3)
    assert high.value > low.value


def _seminorm_reference(f, p, g):
    """Horner evaluation and the radius-by-radius screening loop."""
    d = ps_derivative(f)
    prods = g.weights(p.alpha)[:, None] * np.abs(eval_on_points(d, g.points))
    tails = tail_estimate(d, g.radii)
    best, max_tail, n_excluded = 0.0, 0.0, 0
    for i in range(g.radii.size):
        if tails[i] > TAIL_EXCLUSION * (1.0 + best):
            n_excluded += g.n_angles
            continue
        max_tail = max(max_tail, float(tails[i]))
        best = max(best, float(prods[i].max()))
    return best, max_tail, n_excluded


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    beta=st.floats(0.5, 2.5),
)
@settings(max_examples=25, deadline=None)
def test_seminorm_matches_horner_loop_reference(seed, alpha, beta, coarse_grid):
    r = np.random.default_rng(seed)
    b = np.exp(1j * np.array([0.0, r.uniform(0.5, 6.0)]))
    s = SymbolGBeta(terms=((1.0, b[0]), (r.uniform(0.2, 2.0), b[1])), beta=beta)
    image = apply_generalized(random_poly(r, degree=64, pad=256), s)
    p = BlochParams(alpha)
    value, max_tail, n_excluded = _seminorm_reference(image, p, coarse_grid)
    assert n_excluded > 0
    est = seminorm_estimate(image, p, coarse_grid)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.n_excluded == n_excluded
    assert est.max_tail == max_tail


def _prefix_screen_reference(f, p, g):
    """Every ring evaluated, then the vectorized prefix screen."""
    d = ps_derivative(f)
    prods = g.weights(p.alpha)[:, None] * np.abs(eval_on_grid(d, g))
    tails = tail_estimate(d, g.radii)
    best_before = np.concatenate(([0.0], np.maximum.accumulate(prods.max(axis=1))[:-1]))
    excluded = tails > TAIL_EXCLUSION * (1.0 + best_before)
    n_kept = int(np.argmax(excluded)) if excluded.any() else g.radii.size
    n_excluded = (g.radii.size - n_kept) * g.n_angles
    if n_kept == 0:
        return 0.0, 0j, 0.0, n_excluded
    i, j = np.unravel_index(np.argmax(prods[:n_kept]), (n_kept, g.n_angles))
    best = float(prods[i, j])
    argmax = complex(g.points[i, j]) if best > 0 else 0j
    return best, argmax, float(tails[:n_kept].max()), n_excluded


def _assert_same_as_prefix_screen(f, p, g):
    est = seminorm_estimate(f, p, g)
    assert (est.value, est.argmax, est.max_tail, est.n_excluded) == _prefix_screen_reference(f, p, g)
    return est


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    beta=st.floats(0.5, 2.5),
    order=st.sampled_from([64, 256, 1024]),
)
@settings(max_examples=40, deadline=None)
def test_seminorm_evaluates_kept_rings_only_exactly(seed, alpha, beta, order, coarse_grid):
    # evaluating only the kept rings gives the full-grid screen's result bit for bit
    r = np.random.default_rng(seed)
    b = np.exp(1j * np.array([0.0, r.uniform(0.5, 6.0)]))
    s = SymbolGBeta(terms=((1.0, b[0]), (r.uniform(0.2, 2.0), b[1])), beta=beta)
    image = apply_generalized(random_poly(r, degree=64, pad=order), s)
    assert _assert_same_as_prefix_screen(image, BlochParams(alpha), coarse_grid).n_excluded > 0


def test_seminorm_kept_rings_edge_cases(coarse_grid):
    p = BlochParams(1.0)
    # no exclusions: a zero-padded polynomial is tail-free on every ring
    f = random_poly(np.random.default_rng(3), degree=24, pad=256)
    assert _assert_same_as_prefix_screen(f, p, coarse_grid).n_excluded == 0
    # no kept ring: the innermost ring's tail already fails the screen
    g = SampleGrid(radii=np.array([0.9, 0.95]), n_angles=8)
    est = _assert_same_as_prefix_screen(PowerSeries(np.ones(8)), p, g)
    assert est.n_excluded == 16
    assert est.value == 0.0


def test_seminorm_excludes_untrusted_radii(grid):
    est = seminorm_estimate(truncated_log_witness(512), BlochParams(1.0), grid)
    assert est.n_excluded > 0
    assert est.max_tail <= 1e-6 * (1.0 + est.value)


def test_normalize_scales_to_unit_seminorm(coarse_grid):
    p = BlochParams(2.0)
    f = PowerSeries.monomial(3, order=32, scale=5.0)
    unit, value = normalize(f, p, coarse_grid)
    assert value == seminorm_estimate(f, p, coarse_grid).value
    assert seminorm_estimate(unit, p, coarse_grid).value == pytest.approx(1.0, rel=1e-12)


def test_normalize_rejects_zero_estimate(coarse_grid):
    p = BlochParams(2.0)
    with pytest.raises(DomainError, match="zero estimated seminorm"):
        normalize(PowerSeries(np.array([1.0, 0.0, 0.0])), p, coarse_grid)
    # z^2 stored at order 4: its derivative's tail window holds the
    # coefficient 2, so only the ring r = 0 is kept and the estimate is 0
    with pytest.raises(DomainError, match="zero estimated seminorm"):
        normalize(PowerSeries.monomial(2, order=4), p, coarse_grid)


# ------------------------------------------------------------ growth bound


def test_growth_bound_at_origin():
    assert growth_bound(BlochParams(1.0), 0.0, 5.0, 0.0) == 0.0


def test_growth_bound_alpha_two():
    assert growth_bound(BlochParams(2.0), 0.5, 1.0, 0.0) == pytest.approx(1.0)


def test_growth_bound_alpha_within_tolerance_of_one():
    # alpha within REGIME_TOL of 1 takes the logarithmic alpha = 1 bound
    at_one = growth_bound(BlochParams(1.0), 0.99, 1.0, 0.0)
    assert abs(growth_bound(BlochParams(1.0 + 1e-13), 0.99, 1.0, 0.0) - at_one) < 1e-9
    assert abs(growth_bound(BlochParams(1.0 - 1e-13), 0.99, 1.0, 0.0) - at_one) < 1e-9


def test_growth_bound_rejects_bad_radius():
    with pytest.raises(DomainError):
        growth_bound(BlochParams(1.0), 1.0, 1.0, 0.0)


def test_growth_check_identity(grid):
    v = growth_check(PowerSeries([0, 1]).truncate(32), BlochParams(1.0), grid)
    assert v.passed


def test_growth_check_zero(grid):
    v = growth_check(PowerSeries.zero(4), BlochParams(1.0), grid)
    assert v.passed


def test_growth_check_log_witness(grid):
    # equality case of the alpha = 1 bound: margin small along the real axis
    v = growth_check(truncated_log_witness(512), BlochParams(1.0), grid)
    assert v.passed
    assert v.worst_margin >= -1e-8


def _growth_check_loop_reference(f, p, g):
    """The ring-by-ring loop growth_check replaced."""
    est = seminorm_estimate(f, p, g)
    f0 = abs(complex(f.coeffs[0]))
    fvals = np.abs(eval_on_grid(f, g))
    ftails = tail_estimate(f, g.radii)
    passed, worst, argworst = True, math.inf, 0j
    for i, r in enumerate(g.radii):
        margins = growth_bound(p, float(r), est.value, f0) - fvals[i]
        j = int(np.argmin(margins))
        if margins[j] < worst:
            worst = float(margins[j])
            argworst = complex(g.points[i, j])
        if margins[j] < -(GROWTH_SLACK + ftails[i] + est.max_tail):
            passed = False
    return passed, worst, argworst


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    beta=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]),
    image=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_growth_check_matches_ring_loop(seed, alpha, beta, image, coarse_grid):
    f = random_poly(np.random.default_rng(seed), degree=64, pad=256)
    if image:
        f = apply_generalized(f, SymbolGBeta.beta_cesaro(beta))
    p = BlochParams(alpha)
    v = growth_check(f, p, coarse_grid)
    assert (v.passed, v.worst_margin, v.argworst) == _growth_check_loop_reference(f, p, coarse_grid)


def test_growth_check_matches_ring_loop_on_failures(coarse_grid):
    # C_beta f at alpha = 1 with beta > alpha: the tail heuristic misses the
    # growing coefficients and the check fails; the verdict must still match
    p = BlochParams(1.0)
    failures = 0
    s = SymbolGBeta.beta_cesaro(2.5)
    for seed in range(12):
        f = apply_generalized(random_poly(np.random.default_rng(seed), degree=64, pad=256), s)
        v = growth_check(f, p, coarse_grid)
        assert (v.passed, v.worst_margin, v.argworst) == _growth_check_loop_reference(f, p, coarse_grid)
        failures += not v.passed
    assert failures > 0


# --------------------------------------------------------------- invariants


@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=20, deadline=None)
def test_refining_grid_never_decreases_estimate(seed, alpha):
    f = random_poly(np.random.default_rng(seed), degree=24, pad=64)
    p = BlochParams(alpha)
    coarse = default_grid(8, 16, 0.999)
    fine = default_grid(16, 32, 0.999)  # radii and angles are supersets
    assert set(np.round(coarse.radii, 12)) <= set(np.round(fine.radii, 12))
    v1 = seminorm_estimate(f, p, coarse).value
    v2 = seminorm_estimate(f, p, fine).value
    assert v2 >= v1 - 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=25, deadline=None)
def test_scaling_homogeneity(seed, scale, coarse_grid):
    f = random_poly(np.random.default_rng(seed), degree=24, pad=64)
    p = BlochParams(1.0)
    v = seminorm_estimate(f, p, coarse_grid).value
    vs = seminorm_estimate(f.scale(scale), p, coarse_grid).value
    assert vs == pytest.approx(abs(scale) * v, rel=1e-12, abs=1e-300)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_triangle_inequality_on_grid(seed, coarse_grid):
    r = np.random.default_rng(seed)
    f = random_poly(r, degree=24, pad=64)
    g = random_poly(r, degree=24, pad=64)
    p = BlochParams(1.0)
    ef = seminorm_estimate(f, p, coarse_grid)
    eg = seminorm_estimate(g, p, coarse_grid)
    es = seminorm_estimate(f + g, p, coarse_grid)
    assert es.value <= ef.value + eg.value + 2 * max(ef.max_tail, eg.max_tail) + 1e-12


@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=30, deadline=None)
def test_growth_check_random_polynomials(seed, alpha, coarse_grid):
    f = random_poly(np.random.default_rng(seed), degree=64, pad=256)
    assert growth_check(f, BlochParams(alpha), coarse_grid).passed
