"""Seminorm estimation on disk grids, growth bounds, and grid plumbing."""
import gc
import math
import re
import tracemalloc
import weakref

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
from betacesaro import bloch
from betacesaro.bloch import (
    GROWTH_SLACK,
    MAX_N_ANGULAR,
    MAX_N_RADIAL,
    TAIL_EXCLUSION,
    _eval_on_rings,
    eval_on_grid,
    normalize,
)
from betacesaro.bounds import compare
from betacesaro.series import eval_on_points, ps_derivative, tail_estimate

from .conftest import grid_points, random_poly

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


@pytest.mark.parametrize(
    "n_radial, n_angular, message",
    [
        pytest.param(3.5, 8, "an integer n_radial, got 3.5", id="3.5-8"),
        pytest.param(4.0, 8, "an integer n_radial, got 4.0", id="4.0-8"),
        pytest.param(True, 8, "an integer n_radial, got True", id="True-8"),
        pytest.param(0, 8, "n_radial >= 1, got 0", id="0-8"),
        pytest.param(4, 8.0, "an integer n_angular, got 8.0", id="4-8.0"),
        pytest.param(4, False, "an integer n_angular, got False", id="4-False"),
    ],
)
def test_default_grid_counts_must_be_integers(n_radial, n_angular, message):
    # 3.5 used to build 5 radii; 4.0 would share the cached grid of 4
    with pytest.raises(DomainError, match=re.escape(f"default_grid requires {message}")):
        default_grid(n_radial, n_angular, 0.999)


@pytest.mark.parametrize("n_radial, n_angular", [(MAX_N_RADIAL + 1, 8), (4, MAX_N_ANGULAR + 1)])
def test_default_grid_rejects_counts_above_the_caps_before_allocating(n_radial, n_angular):
    tracemalloc.start()
    try:
        if n_radial > MAX_N_RADIAL:
            message = f"n_radial <= {MAX_N_RADIAL}, got {n_radial}"
        else:
            message = f"n_angular <= {MAX_N_ANGULAR}, got {n_angular}"
        with pytest.raises(DomainError, match=f"default_grid requires {message}"):
            default_grid(n_radial, n_angular, 0.999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024  # no grid array: radii alone would be 8 kB, a ring table far more


def test_default_grid_at_the_caps_is_accepted():
    g = default_grid(MAX_N_RADIAL, 2, 0.999)
    assert g.radii.size == MAX_N_RADIAL + 1
    assert default_grid(1, MAX_N_ANGULAR, 0.5).n_angles == MAX_N_ANGULAR


def test_default_grid_is_shared_and_read_only():
    g = default_grid(8, 16, 0.9)
    assert default_grid(8, 16, 0.9) is g
    assert default_grid(n_radial=8, n_angular=16, r_max=np.float64(0.9)) is g
    assert default_grid() is default_grid(64, 128, 0.999)
    assert default_grid(8, 32, 0.9) is not g
    eval_on_grid(PowerSeries([0, 1]), g)  # builds the ring table
    assert g.ring_powers.shape == (9, 17)
    for a in (g.radii, g.ring_powers):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5


@pytest.mark.parametrize(
    "n_radial, n_angular, r_max", [(8, 24, 0.99), (16, 100, 0.9), (48, 7, 0.9999), (100, 128, 0.999)]
)
def test_grid_tables_are_libm_powers(n_radial, n_angular, r_max):
    # numpy's array power gives other last bits on other SIMD paths (AVX-512
    # against AVX2), so the radii and the ring table come from libm
    g = default_grid(n_radial, n_angular, r_max)
    rho = (1.0 - r_max) ** (1.0 / n_radial)
    radii = [0.0] + [1.0 - math.pow(rho, k) for k in range(1, n_radial)] + [r_max]
    assert g.radii.tolist() == radii
    assert g.ring_powers.tolist() == [[math.pow(r, k) for k in range(n_angular + 1)] for r in radii]


def test_grids_compare_and_hash_by_identity():
    g, other = default_grid(8, 16, 0.9), default_grid(8, 16, 0.99)
    assert g != other
    assert g not in [other]
    assert g == default_grid(8, 16, 0.9)
    assert hash(g) == hash(default_grid(8, 16, 0.9))
    assert len({g, other, default_grid(8, 16, 0.9)}) == 2
    assert SampleGrid(radii=g.radii, n_angles=16) != g


@pytest.mark.parametrize(
    "radii, n_angles",
    [
        ((64, 0.999), 128),
        ((32, 0.999), 64),
        ((16, 0.999), 1),
        ((16, 0.999), 24),
        ((16, 0.999), 100),
        ((4, 0.999), 16),
        ((8, 0.999), 24),
        ([0.0, 1e-9, 0.5], 8),
        ([0.9, 0.95], 8),
    ],
)
def test_grid_point_is_the_point_table_bit_for_bit(radii, n_angles):
    # the argmax of seminorm_estimate and the argworst of growth_check are
    # single points built on demand, so they equal the table's entries
    if isinstance(radii, tuple):
        g = default_grid(radii[0], n_angles, radii[1])
    else:
        g = SampleGrid(radii=np.array(radii), n_angles=n_angles)
    table = grid_points(g)
    points = [[g.point(i, j) for j in range(g.n_angles)] for i in range(g.radii.size)]
    assert np.array(points, dtype=np.complex128).tobytes() == table.tobytes()


def test_grid_copies_the_caller_radii():
    radii = np.array([0.0, 0.5])
    g = SampleGrid(radii=radii, n_angles=4)
    radii[1] = 0.6
    assert g.radii[1] == 0.5


def test_grid_radii_must_increase():
    with pytest.raises(DomainError):
        SampleGrid(radii=np.array([0.5, 0.5]), n_angles=1)


@pytest.mark.parametrize("radii", [[0.1, math.nan], [math.nan], [0.1, math.inf], [-math.inf, 0.5]])
def test_grid_radii_must_be_finite(radii):
    # every comparison with NaN is false, so NaN passed the order and range checks
    with pytest.raises(DomainError, match="finite"):
        SampleGrid(radii=np.array(radii), n_angles=4)


@pytest.mark.parametrize(
    "radii, dtype", [(["0", "0.5"], "<U3"), ([False, True], "bool"), ([0, 0.5j], "complex128")]
)
def test_grid_radii_must_be_real_numbers(radii, dtype):
    # numpy's float cast read "0.5" as 0.5 and True as 1
    with pytest.raises(DomainError, match=f"^SampleGrid requires real radii, got dtype {dtype}$"):
        SampleGrid(radii, 8)


@pytest.mark.parametrize("radii, bad", [([0, True, 0.5], "True"), ((0.0, np.True_), "np.True_")])
def test_grid_radii_reject_a_bool_mixed_into_a_list(radii, bad):
    # numpy cast the list to float64, so [0, True, 0.5] passed as [0, 1, 0.5]
    # and failed only the range check, or not at all below 1
    with pytest.raises(DomainError, match=f"^SampleGrid requires real radii, got {re.escape(bad)}$"):
        SampleGrid(radii, 8)


@pytest.mark.parametrize("radii", [np.array([]), np.array([[0.1, 0.2]])])
def test_grid_radii_must_be_a_nonempty_vector(radii):
    with pytest.raises(DomainError):
        SampleGrid(radii=radii, n_angles=1)


@pytest.mark.parametrize("n_angles", [0, -1, 2.0, True])
def test_grid_n_angles_must_be_a_positive_integer(n_angles):
    if isinstance(n_angles, int) and not isinstance(n_angles, bool):
        message = f"SampleGrid requires n_angles >= 1, got {n_angles}"
    else:
        message = f"SampleGrid requires an integer n_angles, got {n_angles!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
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
    want = eval_on_points(f, grid_points(g))
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
        part = _eval_on_rings(f, g, rings)
        assert part.tobytes() == full[rings].tobytes()


def _libm_powers(radii, n):
    """r^k for k = 0..n by math.pow, shape (radii.size, n + 1)."""
    return np.array([[math.pow(r, k) for k in range(n + 1)] for r in radii.tolist()])


def _horner_fold(f, radii, n_angles):
    """The ring fold before the contraction: Horner's rule in r^A over every
    block, zero blocks included, with r^k and r^A rebuilt per call."""
    c = np.concatenate((f.coeffs, np.zeros(-f.coeffs.size % n_angles)))
    table = _libm_powers(radii, n_angles)
    step = table[:, -1:]
    folded = np.zeros((radii.size, n_angles), dtype=np.complex128)
    for block in c.reshape(-1, n_angles)[::-1]:
        folded *= step
        folded += block
    folded *= table[:, :-1]
    out = np.fft.ifft(folded, axis=1)
    out *= n_angles
    return out


def _power_sum_fold(f, radii, n_angles):
    """The ring fold as an in-order power sum over the blocks up to the last
    nonzero coefficient: acc = +0, then acc = acc + (r^A)^q * block q for
    q = 0, 1, ..., each real and imaginary part on its own, with (r^A)^q
    built by repeated multiplication; r^k and r^A are rebuilt per call."""
    nonzero = np.flatnonzero(f.coeffs)
    n_blocks = int(nonzero[-1]) // n_angles + 1 if nonzero.size else 0
    c = np.concatenate((f.coeffs, np.zeros(max(n_blocks * n_angles - f.coeffs.size, 0))))
    table = _libm_powers(radii, n_angles)
    step = table[:, -1:]
    power = np.ones_like(step)
    acc = np.zeros((radii.size, 2 * n_angles))
    for q, block in enumerate(c[: n_blocks * n_angles].reshape(-1, n_angles).view(np.float64)):
        if q:
            power = power * step
        acc = acc + power * block
    folded = acc.view(np.complex128) * table[:, :-1]
    out = np.fft.ifft(folded, axis=1)
    out *= n_angles
    return out


def _random_coeffs(rng, n):
    return rng.uniform(-1.0, 1.0, (n, 2)) @ np.array([1.0, 1.0j])


_RING_SUBSETS = (slice(None), slice(0, 1), slice(3, 9), slice(16, None))


@pytest.mark.parametrize("n_angles", [1, 24, 100, 128])
@pytest.mark.parametrize(
    "case", ["dense", "trailing zero blocks", "all zero", "order below A", "order far above A"]
)
def test_eval_on_rings_matches_the_per_call_fold_bit_for_bit(n_angles, case):
    rng = np.random.default_rng(n_angles)
    if case == "dense":
        c = _random_coeffs(rng, 3 * n_angles + 7)
    elif case == "trailing zero blocks":
        c = np.concatenate((_random_coeffs(rng, n_angles + 3), np.zeros(4 * n_angles + 5)))
    elif case == "all zero":
        c = np.zeros(2 * n_angles + 1)
    elif case == "order below A":
        c = _random_coeffs(rng, max(n_angles // 2, 1))
    else:  # 1029 blocks at A = 1
        c = _random_coeffs(rng, 1029)
    f = PowerSeries(c)
    g = default_grid(16, n_angles, 0.999)
    for rings in _RING_SUBSETS:
        want = _power_sum_fold(f, g.radii[rings], n_angles)
        assert _eval_on_rings(f, g, rings).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_angles", [1, 24, 100, 128])
@pytest.mark.parametrize("pad", [0, 1, 300])
def test_one_block_fold_keeps_the_horner_bits(n_angles, pad):
    # below degree A the fold is 1.0 * block, which is the block itself, so
    # a series of degree < A keeps the bits of the Horner fold, whatever
    # zeros pad it
    rng = np.random.default_rng(n_angles + pad)
    c = np.concatenate((_random_coeffs(rng, n_angles), np.zeros(pad)))
    c[0] = -0.0  # a signed zero stays +0 under both folds
    f = PowerSeries(c)
    g = default_grid(16, n_angles, 0.999)
    for rings in _RING_SUBSETS:
        want = _horner_fold(f, g.radii[rings], n_angles)
        assert _eval_on_rings(f, g, rings).tobytes() == want.tobytes()


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
    prods = g.weights(p.alpha)[:, None] * np.abs(eval_on_points(d, grid_points(g)))
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
    argmax = complex(grid_points(g)[i, j]) if best > 0 else 0j
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


def _seminorm_estimate_before(f, p, g):
    """The pass screen that kept every pass's products, concatenated them
    and scanned them again; it reads `bloch.tail_estimate` as the estimate
    does, so a test can set the tails of both."""
    d = ps_derivative(f)
    weights = g.weights(p.alpha)
    tails = bloch.tail_estimate(d, g.radii)
    n_radii, n_angles = g.radii.size, g.n_angles
    passes, best, n_kept = [], 0.0, 0
    while n_kept < n_radii:
        over = tails[n_kept:] > TAIL_EXCLUSION * (1.0 + best)
        stop = n_kept + int(np.argmax(over)) if over.any() else n_radii
        if stop == n_kept:
            break
        prods = weights[n_kept:stop, None] * np.abs(_power_sum_fold(d, g.radii[n_kept:stop], n_angles))
        best = np.maximum(best, prods.max())
        passes.append(prods)
        n_kept = stop
    n_excluded = (n_radii - n_kept) * n_angles
    if n_kept == 0:
        return 0.0, 0j, 0.0, n_excluded
    prods = np.concatenate(passes)
    i, j = np.unravel_index(np.argmax(prods), prods.shape)
    value = float(prods[i, j])
    return value, complex(grid_points(g)[i, j]) if value > 0 else 0j, float(tails[:n_kept].max()), n_excluded


def _as_tuple(est):
    return est.value, est.argmax, est.max_tail, est.n_excluded


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    beta=st.floats(0.5, 2.5),
    n_angles=st.sampled_from([1, 24, 100, 128]),
)
@settings(max_examples=40, deadline=None)
def test_seminorm_matches_the_concatenating_screen_bit_for_bit(seed, alpha, beta, n_angles):
    r = np.random.default_rng(seed)
    b = np.exp(1j * np.array([0.0, r.uniform(0.5, 6.0)]))
    s = SymbolGBeta(terms=((1.0, b[0]), (r.uniform(0.2, 2.0), b[1])), beta=beta)
    image = apply_generalized(random_poly(r, degree=64, pad=256), s)
    p, g = BlochParams(alpha), default_grid(16, n_angles, 0.999)
    assert _as_tuple(seminorm_estimate(image, p, g)) == _seminorm_estimate_before(image, p, g)


def test_seminorm_later_pass_tying_the_maximum_keeps_the_first_point(monkeypatch):
    # f = 3z has f' = 3 on every ring, and the weight rounds to 1 at
    # r = 1e-9, so rings 0 and 1 tie at 3; the tail set on ring 1 fails the
    # screen at best 0 but not at best 3, so ring 1 opens a second pass
    g = SampleGrid(radii=np.array([0.0, 1e-9, 0.5]), n_angles=8)
    monkeypatch.setattr(bloch, "tail_estimate", lambda f, r: np.array([0.0, 1.5e-6, 0.0]))
    passes = []

    def recording(f, grid, rings, _eval=bloch._eval_on_rings):
        passes.append((rings.start, rings.stop))
        return _eval(f, grid, rings)

    monkeypatch.setattr(bloch, "_eval_on_rings", recording)
    f, p = PowerSeries([0, 3]).truncate(32), BlochParams(1.0)
    est = seminorm_estimate(f, p, g)
    assert passes == [(0, 1), (1, 3)]
    assert g.weights(1.0)[1] == 1.0
    assert est.value == 3.0
    assert est.argmax == grid_points(g)[0, 0]
    assert _as_tuple(est) == _seminorm_estimate_before(f, p, g)


def test_seminorm_excludes_untrusted_radii(grid):
    est = seminorm_estimate(truncated_log_witness(512), BlochParams(1.0), grid)
    assert est.n_excluded > 0
    assert est.max_tail <= 1e-6 * (1.0 + est.value)


def test_normalize_scales_to_unit_seminorm(coarse_grid):
    p = BlochParams(2.0)
    f = PowerSeries.monomial(3, order=32).scale(5.0)
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


# ------------------------------------------------ the series' kept estimate


def _counting_estimates(monkeypatch):
    """Count the grid passes of seminorm_estimate from here on."""
    calls = []

    def counting(f, p, g, _estimate=bloch._estimate):
        calls.append(f)
        return _estimate(f, p, g)

    monkeypatch.setattr(bloch, "_estimate", counting)
    return calls


def test_repeated_estimate_is_the_kept_object(monkeypatch, coarse_grid):
    f = random_poly(np.random.default_rng(3), degree=16, pad=64)
    calls = _counting_estimates(monkeypatch)
    est = seminorm_estimate(f, BlochParams(1.5), coarse_grid)
    # equal params hit, whichever object holds them
    assert seminorm_estimate(f, BlochParams(1.5), coarse_grid) is est
    assert len(calls) == 1


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_growth_check_reuses_the_estimate_with_the_same_verdict(monkeypatch, alpha, coarse_grid):
    f = random_poly(np.random.default_rng(4), degree=64, pad=256)
    fresh = PowerSeries(f.coeffs)
    p = BlochParams(alpha)
    calls = _counting_estimates(monkeypatch)
    seminorm_estimate(f, p, coarse_grid)
    v = growth_check(f, p, coarse_grid)
    assert calls == [f]
    v_fresh = growth_check(fresh, p, coarse_grid)
    assert calls == [f, fresh]
    for name in ("passed", "worst_margin", "argworst"):
        assert repr(getattr(v, name)) == repr(getattr(v_fresh, name))


def test_series_keeps_only_its_last_estimate(monkeypatch, coarse_grid):
    f = random_poly(np.random.default_rng(8), degree=16, pad=64)
    calls = _counting_estimates(monkeypatch)
    first = seminorm_estimate(f, BlochParams(0.5), coarse_grid)
    last = seminorm_estimate(f, BlochParams(2.0), coarse_grid)
    assert f._seminorm[1:] == (BlochParams(2.0), last)
    # one slot: the first alpha's estimate was replaced, and is taken again
    again = seminorm_estimate(f, BlochParams(0.5), coarse_grid)
    assert again is not first and again == first
    assert calls == [f, f, f]


def test_estimate_with_another_alpha_misses(coarse_grid):
    f = random_poly(np.random.default_rng(5), degree=16, pad=64)
    est = seminorm_estimate(f, BlochParams(1.0), coarse_grid)
    other = seminorm_estimate(f, BlochParams(2.0), coarse_grid)
    assert other is not est
    assert other == seminorm_estimate(PowerSeries(f.coeffs), BlochParams(2.0), coarse_grid)


def test_estimate_on_an_equal_but_distinct_grid_misses(monkeypatch, coarse_grid):
    f = random_poly(np.random.default_rng(6), degree=16, pad=64)
    twin = SampleGrid(coarse_grid.radii, coarse_grid.n_angles)
    calls = _counting_estimates(monkeypatch)
    est = seminorm_estimate(f, BlochParams(1.0), coarse_grid)
    assert seminorm_estimate(f, BlochParams(1.0), twin) is not est
    assert len(calls) == 2


def test_series_keeps_only_its_last_grid(coarse_grid):
    f = random_poly(np.random.default_rng(7), degree=16, pad=64)
    grid_a = SampleGrid(coarse_grid.radii, coarse_grid.n_angles)
    grid_b = SampleGrid(coarse_grid.radii, coarse_grid.n_angles)
    for alpha in (0.5, 2.0):
        seminorm_estimate(f, BlochParams(alpha), grid_a)
    kept = weakref.ref(grid_a)
    del grid_a
    gc.collect()
    assert kept() is not None  # f's kept estimates hold grid A
    seminorm_estimate(f, BlochParams(1.0), grid_b)
    gc.collect()
    assert kept() is None


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


@pytest.mark.parametrize("r", [-0.1, math.nan, np.array([0.0, 0.5, 1.0]), np.array([0.5, math.nan])])
def test_growth_bound_rejects_bad_radii(r):
    with pytest.raises(DomainError):
        growth_bound(BlochParams(1.0), r, 1.0, 0.0)


def _growth_bound_before(p, r, seminorm, f0):
    """growth_bound as it was: one radius, in Python floats."""
    if not 0 <= r < 1:
        raise DomainError("growth_bound requires 0 <= r < 1")
    a = p.alpha
    if compare(a, 1.0) < 0:
        return f0 + seminorm / (1.0 - a)
    if compare(a, 1.0) == 0:
        return f0 + 0.5 * seminorm * math.log((1.0 + r) / (1.0 - r))
    return f0 + seminorm / (a - 1.0) * ((1.0 - r) ** (1.0 - a) - 1.0)


@given(
    alpha=st.one_of(
        st.sampled_from([0.5, 1.0, 1.0 - 1e-13, 1.0 + 1e-13, 2.0, 3.0]),
        st.floats(0.05, 4.0),
    ),
    seminorm=st.floats(0.0, 100.0),
    f0=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_growth_bound_on_radii_matches_the_per_radius_loop(alpha, seminorm, f0, seed, grid):
    p = BlochParams(alpha)
    extra = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, 40))
    for radii in (grid.radii, extra[extra < 1.0]):
        want = np.array([_growth_bound_before(p, float(r), seminorm, f0) for r in radii])
        got = growth_bound(p, radii, seminorm, f0)
        assert got.shape == radii.shape
        assert got.tobytes() == want.tobytes()
        assert growth_bound(p, float(radii[-1]), seminorm, f0) == want[-1]


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
    points = grid_points(g)
    passed, worst, argworst = True, math.inf, 0j
    for i, r in enumerate(g.radii):
        margins = _growth_bound_before(p, float(r), est.value, f0) - fvals[i]
        j = int(np.argmin(margins))
        if margins[j] < worst:
            worst = float(margins[j])
            argworst = complex(points[i, j])
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
