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
    bloch_norm,
    default_grid,
    growth_bound,
    growth_check,
    seminorm_estimate,
    truncated_log_witness,
)

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
    np.testing.assert_allclose(g.angles, [0.0])


def test_default_grid_shape():
    g = default_grid(32, 64, 0.999)
    assert g.radii.size == 33
    assert g.angles.size == 64
    assert g.r_max == 0.999


def test_default_grid_rejects_boundary():
    with pytest.raises(DomainError):
        default_grid(4, 8, 1.0)


def test_grid_radii_must_increase():
    with pytest.raises(DomainError):
        SampleGrid(radii=np.array([0.5, 0.5]), angles=np.array([0.0]))


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


def test_seminorm_excludes_untrusted_radii(grid):
    est = seminorm_estimate(truncated_log_witness(512), BlochParams(1.0), grid)
    assert est.n_excluded > 0
    assert est.max_tail <= 1e-6 * (1.0 + est.value)


# ------------------------------------------------------------- bloch_norm


def test_bloch_norm_identity(grid):
    assert bloch_norm(PowerSeries([0, 1]).truncate(32), BlochParams(1.0), grid) == 1.0


def test_bloch_norm_affine(grid):
    assert bloch_norm(PowerSeries([1, 1]).truncate(32), BlochParams(1.0), grid) == 2.0


def test_bloch_norm_zero(grid):
    assert bloch_norm(PowerSeries.zero(4), BlochParams(1.0), grid) == 0.0


# ------------------------------------------------------------ growth bound


def test_growth_bound_at_origin():
    assert growth_bound(BlochParams(1.0), 0.0, 5.0, 0.0) == 0.0


def test_growth_bound_alpha_two():
    assert growth_bound(BlochParams(2.0), 0.5, 1.0, 0.0) == pytest.approx(1.0)


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
