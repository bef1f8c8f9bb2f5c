"""Shared fixtures: sampling grids, the table of a grid's points, a
reproducible random-series factory and the scalar binomial recurrence."""
import math

import numpy as np
import pytest

from betacesaro import PowerSeries, default_grid


@pytest.fixture(scope="session")
def grid():
    """The default 64 x 128 grid with r_max = 0.999."""
    return default_grid(64, 128, 0.999)


@pytest.fixture(scope="session")
def coarse_grid():
    """A cheaper 32 x 64 grid for property tests."""
    return default_grid(32, 64, 0.999)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


def random_poly(rng, degree=64, pad=256, zero_at_origin=True):
    """Random polynomial with coefficients in the unit bidisk, zero-padded so
    grid estimates see no truncation tail."""
    c = rng.uniform(-1.0, 1.0, (degree + 1, 2)) @ np.array([1.0, 1.0j])
    if zero_at_origin:
        c[0] = 0.0
    return PowerSeries(c).truncate(max(pad, degree))


def grid_points(g):
    """The complex points of grid g as one (n_radii, n_angles) table, the
    reference for `SampleGrid.point`."""
    angles = 2.0 * math.pi * np.arange(g.n_angles) / g.n_angles
    return g.radii[:, None] * np.exp(1j * angles[None, :])


def binomial_loop(beta, b, order):
    """The complex recurrence of binomial_series run one scalar step at a
    time, the reference for its one-pass form."""
    c = np.empty(order + 1, dtype=np.complex128)
    c[0] = 1.0
    for n in range(order):
        c[n + 1] = c[n] * b * (beta + n) / (n + 1)
    return c
