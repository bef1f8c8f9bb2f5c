"""Operator application, matrices, spectra, eigenfunctions, and preimages."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacesaro import (
    BlochParams,
    DomainError,
    PowerSeries,
    SpectrumEmptyError,
    SymbolGBeta,
    apply_beta_cesaro,
    apply_generalized,
    classify,
    compact_approximant,
    eigenfunction_psi,
    operator_matrix,
    point_spectrum,
    preimage_under_cesaro,
    ps_div_by_z,
    ps_exp,
    ps_integrate,
    symbol_series,
    truncated_spectrum,
)
from betacesaro.bloch import eval_on_grid
from betacesaro.operators import symbol_spectrum
from betacesaro.series import eval_on_points

from .conftest import binomial_loop, grid_points, random_poly
from .references import approximate_eigen_probe


def random_symbol(rng, n_terms=2, with_h=True, beta=None):
    angles = rng.uniform(0, 2 * math.pi, n_terms)
    while n_terms > 1 and np.min(np.abs(np.diff(np.sort(angles)))) < 1e-6:
        angles = rng.uniform(0, 2 * math.pi, n_terms)
    terms = tuple(
        (complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)), complex(np.cos(t), np.sin(t)))
        for t in angles
    )
    h = PowerSeries(rng.uniform(-0.5, 0.5, (5, 2)) @ np.array([1.0, 1.0j])) if with_h else PowerSeries.zero()
    return SymbolGBeta(terms=terms, beta=rng.uniform(0.0, 2.0) if beta is None else beta, h=h)


# ----------------------------------------------------------------- symbols


def test_symbol_rejects_zero_weight():
    with pytest.raises(DomainError):
        SymbolGBeta(terms=((0.0, 1.0),), beta=1.0)


def test_symbol_rejects_non_unimodular():
    with pytest.raises(DomainError):
        SymbolGBeta(terms=((1.0, 0.5),), beta=1.0)


def test_symbol_rejects_duplicate_points():
    with pytest.raises(DomainError):
        SymbolGBeta(terms=((1.0, 1.0), (2.0, 1.0)), beta=1.0)


@pytest.mark.parametrize(
    "terms, beta",
    [
        (((math.inf, 1.0),), 1.0),
        (((complex(1.0, math.nan), 1.0),), 1.0),
        (((1.0, complex(math.nan, math.nan)),), 1.0),
        (((1.0, 1.0),), math.nan),
        (((1.0, 1.0),), -math.inf),
    ],
    ids=["inf-weight", "nan-weight", "nan-point", "nan-beta", "inf-beta"],
)
def test_symbol_rejects_non_finite(terms, beta):
    with pytest.raises(DomainError, match="must be finite"):
        SymbolGBeta(terms=terms, beta=beta)


def test_symbol_json_text_is_pinned():
    s = SymbolGBeta(terms=((1 + 2j, -1.0),), beta=0.5, h=PowerSeries([0.25, -1j, 1 / 3 + 2.5e10j]))
    assert s.to_json() == (
        '{"terms": [{"a": [1.0, 2.0], "b_angle": 3.141592653589793}], "beta": 0.5, '
        '"h": {"coeffs": [[0.25, 0.0], [-0.0, -1.0], [0.3333333333333333, 25000000000.0]]}}'
    )


def test_symbol_json_roundtrip():
    s = SymbolGBeta(
        terms=((1 + 2j, complex(math.cos(0.7), math.sin(0.7))),),
        beta=0.5,
        h=PowerSeries([0.25, -1j]),
    )
    back = SymbolGBeta.from_json(s.to_json())
    assert back.beta == s.beta
    for (a1, b1), (a2, b2) in zip(s.terms, back.terms):
        assert a1 == a2
        assert abs(b1 - b2) < 1e-15
    np.testing.assert_array_equal(back.h.coeffs, s.h.coeffs)


def test_symbol_series_cesaro():
    out = symbol_series(SymbolGBeta.beta_cesaro(1.0), 3)
    np.testing.assert_allclose(out.coeffs, [1, 1, 1, 1])


def test_symbol_series_alexander():
    out = symbol_series(SymbolGBeta.alexander(), 3)
    np.testing.assert_allclose(out.coeffs, [1, 0, 0, 0])


def test_symbol_series_with_constant_h():
    s = SymbolGBeta(terms=((1.0, 1.0),), beta=1.0, h=PowerSeries([-2.0]))
    out = symbol_series(s, 2)
    np.testing.assert_allclose(out.coeffs, [-1, 1, 1])


def _twin(s):
    """A fresh symbol with the same definition, so with no series built yet."""
    return SymbolGBeta(terms=s.terms, beta=s.beta, h=s.h)


@given(
    seed=st.integers(0, 2**32 - 1),
    small=st.integers(0, 300),
    large=st.integers(1, 600),
)
@settings(max_examples=40, deadline=None)
def test_symbol_series_is_built_once_and_truncated_exactly(seed, small, large):
    # the symbol keeps the longest series asked for; shorter ones are its
    # prefixes, bit for bit equal to series built from scratch
    s = random_symbol(np.random.default_rng(seed))
    symbol_series(s, small)
    symbol_series(s, small + large)
    for order in (small, small + large, small + large // 2, small + large + 7):
        got = symbol_series(s, order).coeffs
        want = symbol_series(_twin(s), order).coeffs
        assert got.tobytes() == want.tobytes()


def test_symbol_memo_is_not_part_of_the_value():
    s = random_symbol(np.random.default_rng(5))
    fresh = _twin(s)
    text, shown = s.to_json(), repr(s)
    symbol_series(s, 64)
    assert s == fresh
    assert repr(s) == shown == repr(fresh)
    assert s.to_json() == text == fresh.to_json()


def test_symbol_series_rejects_negative_order():
    s = SymbolGBeta.beta_cesaro(1.0)
    symbol_series(s, 8)
    with pytest.raises(DomainError):
        symbol_series(s, -2)


def _symbol_series_loop(s, order):
    """gamma summed as symbol_series sums it, from the scalar binomial loop."""
    acc = np.zeros(order + 1, dtype=np.complex128)
    for a, b in s.terms:
        acc += a * binomial_loop(s.beta, b, order)
    acc += s.h.truncate(order).coeffs
    return acc


@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.one_of(st.sampled_from([0.0, -1.0, -2.0]), st.floats(-3, 3)),
    n_terms=st.integers(1, 3),
    real_b=st.booleans(),
    order=st.integers(0, 300),
)
@settings(max_examples=60, deadline=None)
def test_symbol_series_matches_the_loop_bit_for_bit(seed, beta, n_terms, real_b, order):
    # the loop's -0 zeros (beta a non-positive integer) land on the +0 sum
    s = random_symbol(np.random.default_rng(seed), n_terms=n_terms, beta=beta)
    if real_b:
        s = SymbolGBeta(terms=((0.5 - 0.25j, 1.0),) + s.terms, beta=beta, h=s.h)
    assert symbol_series(s, order).coeffs.tobytes() == _symbol_series_loop(s, order).tobytes()


# ------------------------------------------------------------- application


def test_apply_alexander_identity():
    out = apply_generalized(PowerSeries([0, 1]), SymbolGBeta.alexander())
    np.testing.assert_allclose(out.coeffs, [0, 1])


def test_apply_cesaro_log_oracle():
    out = apply_generalized(PowerSeries([0, 1]).truncate(4), SymbolGBeta.beta_cesaro(1.0))
    np.testing.assert_allclose(out.coeffs, [0, 1, 0.5, 1 / 3, 0.25])


def test_apply_alexander_square():
    out = apply_beta_cesaro(PowerSeries([0, 0, 1]), 0.0)
    np.testing.assert_allclose(out.coeffs, [0, 0, 0.5])


def test_apply_beta_two_oracle():
    out = apply_beta_cesaro(PowerSeries([0, 1]).truncate(3), 2.0)
    np.testing.assert_allclose(out.coeffs, [0, 1, 1, 1])


def test_apply_rejects_nonzero_origin():
    with pytest.raises(DomainError):
        apply_beta_cesaro(PowerSeries([1, 1]), 1.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_apply_linearity_exact(seed):
    r = np.random.default_rng(seed)
    f = random_poly(r, degree=24, pad=24)
    g = random_poly(r, degree=24, pad=24)
    s = random_symbol(r)
    a, b = 2.0, -0.5  # powers of two keep float scaling exact
    lhs = apply_generalized(f.scale(a) + g.scale(b), s)
    rhs = apply_generalized(f, s).scale(a) + apply_generalized(g, s).scale(b)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


# ----------------------------------------------------------------- matrices


def test_matrix_cesaro_averaging():
    m = operator_matrix(SymbolGBeta.beta_cesaro(1.0), 3)
    want = np.array([[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]])
    np.testing.assert_allclose(m.entries, want)


def test_matrix_alexander_diagonal():
    m = operator_matrix(SymbolGBeta.alexander(), 3)
    np.testing.assert_allclose(m.entries, np.diag([1, 0.5, 1 / 3]))


def test_matrix_rejects_empty():
    with pytest.raises(DomainError):
        operator_matrix(SymbolGBeta.alexander(), 0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_matrix_diagonal_and_triangularity(seed):
    r = np.random.default_rng(seed)
    s = random_symbol(r)
    m = operator_matrix(s, 12)
    g0 = s.value_at_zero()
    for n in range(1, 13):
        # python and numpy complex division may differ in the last ulp
        assert abs(m.entries[n - 1, n - 1] - g0 / n) <= 1e-15 * (1 + abs(g0))
    assert np.all(np.triu(m.entries, 1) == 0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_matrix_agrees_with_apply(seed):
    r = np.random.default_rng(seed)
    f = random_poly(r, degree=128, pad=128)
    s = random_symbol(r)
    out = apply_generalized(f, s)
    m = operator_matrix(s, 128)
    via_matrix = m.entries @ f.coeffs[1:]
    np.testing.assert_allclose(out.coeffs[1:], via_matrix, atol=1e-12)


def _row_loop_matrix(s, n):
    """The operator matrix built one row at a time: row m is gamma_{m-1}..gamma_0 / m."""
    gamma = symbol_series(s, n - 1).coeffs
    entries = np.zeros((n, n), dtype=np.complex128)
    for m in range(1, n + 1):
        entries[m - 1, :m] = gamma[m - 1 :: -1] / m
    return entries


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 257, 1024])
def test_matrix_equals_row_loop_bit_for_bit(n):
    # two fresh symbols, so each path builds its own symbol series; at beta
    # 0 and -1 the binomial series hold exact zeros
    for beta in (0.75, 0.0, -1.0):
        got = operator_matrix(_two_term_symbol(beta), n).entries
        assert _same_bits(got, _row_loop_matrix(_two_term_symbol(beta), n)), beta


# ------------------------------------------------------------------ spectra


def test_spectrum_cesaro():
    spec = truncated_spectrum(operator_matrix(SymbolGBeta.beta_cesaro(1.0), 4))
    np.testing.assert_allclose(spec, [1, 0.5, 1 / 3, 0.25])


def test_spectrum_alexander():
    spec = truncated_spectrum(operator_matrix(SymbolGBeta.alexander(), 2))
    np.testing.assert_allclose(spec, [1, 0.5])


def test_spectrum_scales_with_symbol():
    s1 = SymbolGBeta(terms=((1.0, 1.0),), beta=1.0)
    s2 = SymbolGBeta(terms=((2.0 + 1j, 1.0),), beta=1.0)
    a = truncated_spectrum(operator_matrix(s1, 6))
    b = truncated_spectrum(operator_matrix(s2, 6))
    np.testing.assert_allclose(b, (2 + 1j) * np.array(a))


def _two_term_symbol(beta=0.75):
    return SymbolGBeta(
        terms=((1.5 - 0.5j, 1.0), (-0.7 + 0.2j, complex(math.cos(2.0), math.sin(2.0)))),
        beta=beta,
        h=PowerSeries([0.1 + 0.3j, -0.2, 0.05j]),
    )


@pytest.mark.parametrize("n", [1, 4, 257])
def test_symbol_spectrum_equals_matrix_diagonal_bit_for_bit(n):
    # two fresh symbols, so each path builds its own symbol series
    got = symbol_spectrum(_two_term_symbol(), n)
    want = truncated_spectrum(operator_matrix(_two_term_symbol(), n))
    assert np.array_equal(np.array(got).view(np.float64), np.array(want).view(np.float64))


def _spectrum_loop(diag):
    """Python complex values of diag sorted by decreasing modulus, one
    element at a time."""
    order = np.argsort(-np.abs(diag), kind="stable")
    return [complex(diag[i]) for i in order]


@pytest.mark.parametrize("n", [1, 4, 257])
def test_spectrum_lists_match_the_loop(n):
    s = _two_term_symbol()
    m = operator_matrix(s, n)
    want = list(map(repr, _spectrum_loop(np.diag(m.entries))))
    for got in (truncated_spectrum(m), symbol_spectrum(s, n)):
        assert all(type(x) is complex for x in got)
        assert list(map(repr, got)) == want


def test_symbol_spectrum_rejects_empty():
    with pytest.raises(DomainError):
        symbol_spectrum(SymbolGBeta.alexander(), 0)


# ------------------------------------------------------------ eigenfunctions


def test_psi_cesaro_binomial_oracle():
    psi = eigenfunction_psi(SymbolGBeta.beta_cesaro(1.0), 2, 6)
    np.testing.assert_allclose(psi.coeffs, [1, 2, 3, 4, 5, 6, 7], atol=1e-12)


def test_psi_alexander_constant():
    psi = eigenfunction_psi(SymbolGBeta.alexander(), 5, 4)
    np.testing.assert_allclose(psi.coeffs, [1, 0, 0, 0, 0])


def test_psi_shifted_symbol():
    s = SymbolGBeta(terms=((1.0, 1.0),), beta=1.0, h=PowerSeries([-2.0]))
    psi = eigenfunction_psi(s, 1, 4)
    np.testing.assert_allclose(psi.coeffs, [1, -1, 0, 0, 0], atol=1e-14)


def test_psi_requires_nonvanishing_symbol():
    s = SymbolGBeta(terms=((1.0, 1.0), (-1.0, -1.0)), beta=1.0)
    with pytest.raises(SpectrumEmptyError):
        eigenfunction_psi(s, 1, 4)


def _centred_psi(s, n, order):
    """psi_n with g - g(0) centred through an identity row and divided by z."""
    g0 = s.value_at_zero()
    gamma = symbol_series(s, order)
    centered = PowerSeries(gamma.coeffs - g0 * np.eye(1, order + 1, 0).ravel())
    return ps_exp(ps_integrate(ps_div_by_z(centered)).truncate(order).scale(n / g0))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 257, 1024])
def test_psi_equals_centred_reference_bit_for_bit(n, order):
    got = eigenfunction_psi(_two_term_symbol(), n, order).coeffs
    assert _same_bits(got, _centred_psi(_two_term_symbol(), n, order).coeffs)


def test_psi_rejects_order_zero():
    with pytest.raises(DomainError, match="order >= 1"):
        eigenfunction_psi(SymbolGBeta.alexander(), 1, 0)


# magnitudes close enough that a different summation order rounds differently
weight = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)


@given(
    weights=st.lists(weight, min_size=1, max_size=4),
    h0=st.complex_numbers(max_magnitude=1e3),
    beta=st.floats(-2, 3),
)
@settings(max_examples=100, deadline=None)
def test_gamma_0_is_value_at_zero_bit_for_bit(weights, h0, beta):
    points = [complex(math.cos(k), math.sin(k)) for k in range(len(weights))]
    s = SymbolGBeta(terms=tuple(zip(weights, points)), beta=beta, h=PowerSeries([h0, 0.5]))
    assert _same_bits(symbol_series(s, 3).coeffs[0], s.value_at_zero())


def _symbol_with_value_at_zero(g0):
    # a_1 + a_2 = 0 exactly, so g(0) is h's constant term
    return SymbolGBeta(terms=((1.0, 1.0), (-1.0, -1.0)), beta=1.0, h=PowerSeries([g0]))


@pytest.mark.parametrize(
    "g0, vanishes", [(0.0, True), (1e-15, True), (5e-13, True), (2e-12, False), (1e-3, False)]
)
def test_point_spectrum_and_psi_share_the_vanishing_rule(g0, vanishes):
    s = _symbol_with_value_at_zero(g0)
    assert s.value_at_zero() == g0
    assert point_spectrum(s, alpha=1.0).empty is vanishes
    try:
        eigenfunction_psi(s, 1, 4)
        raised = False
    except SpectrumEmptyError:
        raised = True
    assert raised is vanishes


def _eigenvector(s, n, order):
    psi = eigenfunction_psi(s, n, order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[n:] = psi.coeffs[: order + 1 - n]
    return PowerSeries(c)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_eigen_identity_cesaro(n):
    # C(z^n (1-z)^-n) = (1/n) z^n (1-z)^-n coefficientwise; the coefficients
    # grow like n^(order), so the comparison is relative per coefficient
    f = _eigenvector(SymbolGBeta.beta_cesaro(1.0), n, 256)
    out = apply_beta_cesaro(f, 1.0)
    want = f.scale(1.0 / n)
    err = np.abs(out.coeffs - want.coeffs) / (1.0 + np.abs(want.coeffs))
    assert float(np.max(err)) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), beta=st.sampled_from([0.0, 1.0]))
@settings(max_examples=20, deadline=None)
def test_eigen_identity_random_symbols(seed, n, beta):
    r = np.random.default_rng(seed)
    s = random_symbol(r, beta=beta)
    g0 = s.value_at_zero()
    if abs(g0) < 0.3:  # keep the 1/g(0) factor well-conditioned
        return
    f = _eigenvector(s, n, 128)
    out = apply_generalized(f, s)
    want = f.scale(g0 / n)
    err = np.abs(out.coeffs - want.coeffs) / (1.0 + np.abs(want.coeffs))
    assert float(np.max(err)) < 1e-10


def test_eigen_identity_at_order_4096_over_twenty_decades():
    # with g(0) = 0.1 the exponent n/g(0) is large, so psi's coefficients
    # span more than twenty decades; the check is per coefficient, which a
    # normwise-accurate product (FFT) does not meet at this range
    s = SymbolGBeta(
        terms=((1.0, 1.0), (-0.9, complex(math.cos(2.0), math.sin(2.0)))),
        beta=1.0,
        h=PowerSeries([0.0, 0.3, -0.2j]),
    )
    f = _eigenvector(s, 1, 4096)
    assert float(np.max(np.abs(f.coeffs))) > 1e20
    out = apply_generalized(f, s)
    want = f.scale(s.value_at_zero())
    err = np.abs(out.coeffs - want.coeffs) / (1.0 + np.abs(want.coeffs))
    assert float(np.max(err)) < 1e-10


def test_psi_h_factor_two_sided_bound(grid):
    # the factor contributed by the bounded part h stays within
    # exp(+-2 |n/g(0)| ||h||_inf) on the disk
    rng = np.random.default_rng(7)
    h = PowerSeries(rng.uniform(-0.3, 0.3, (6, 2)) @ np.array([1.0, 1.0j]))
    s = SymbolGBeta(terms=((1.0, 1.0),), beta=1.0, h=h)
    g0 = s.value_at_zero()
    n = 2
    centered = PowerSeries(np.concatenate([[0], h.coeffs[1:]])).truncate(256)
    eta = ps_exp(ps_integrate(ps_div_by_z(centered)).truncate(256).scale(n / g0))
    h_sup = float(np.max(np.abs(eval_on_grid(h, grid))))
    vals = np.abs(eval_on_points(eta, grid_points(grid)))
    bound = math.exp(2 * abs(n / g0) * h_sup)
    assert float(np.max(vals)) <= bound + 1e-9
    assert float(np.min(vals)) >= 1.0 / bound - 1e-9


# ----------------------------------------------------------- point spectrum


def test_point_spectrum_cesaro_inadmissible():
    rep = point_spectrum(SymbolGBeta.beta_cesaro(1.0), alpha=2.0)
    assert rep.base == 1
    assert rep.covered and not rep.empty
    assert rep.admissible is False
    np.testing.assert_allclose(rep.leading[:4], [1, 0.5, 1 / 3, 0.25])


def test_point_spectrum_shifted_admissible():
    s = SymbolGBeta(terms=((1.0, 1.0),), beta=1.0, h=PowerSeries([-2.0]))
    rep = point_spectrum(s, alpha=2.0)
    assert rep.base == -1
    assert rep.admissible is True
    assert rep.per_term[0][0] == pytest.approx(-1.0)
    np.testing.assert_allclose(rep.leading[:2], [-1, -0.5])


def test_point_spectrum_alexander_unconditional():
    rep = point_spectrum(SymbolGBeta.alexander(), alpha=1.0)
    assert rep.admissible is True
    np.testing.assert_allclose(rep.leading[:3], [1, 0.5, 1 / 3])


def test_point_spectrum_vanishing_symbol_empty():
    s = SymbolGBeta(terms=((1.0, 1.0), (-1.0, -1.0)), beta=1.0)
    rep = point_spectrum(s, alpha=1.0)
    assert rep.empty and rep.leading == ()


def test_point_spectrum_uncovered_regime():
    rep = point_spectrum(SymbolGBeta.beta_cesaro(0.5), alpha=0.25)
    assert not rep.covered


def test_point_spectrum_coverage_follows_classify():
    # beta = 0.1 + 0.2 equals alpha = 0.3 up to REGIME_TOL: bounded, so covered
    assert point_spectrum(SymbolGBeta.beta_cesaro(0.1 + 0.2), alpha=0.3).covered


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5, 1.0, 1.5, 2.5, "alpha"])
def test_point_spectrum_coverage_is_boundedness(alpha, beta):
    # e.g. (2, -1) is bounded and covered; (1, 1) is unbounded, with no
    # verdict, per term or overall
    beta = alpha if beta == "alpha" else beta
    rep = point_spectrum(SymbolGBeta.beta_cesaro(beta), alpha)
    covered = classify(alpha, beta).bounded
    assert rep.covered is covered
    assert (rep.admissible is None) is not covered
    assert bool(rep.per_term) is (covered and beta == 1.0)


def test_point_spectrum_json():
    data = point_spectrum(SymbolGBeta.alexander(), 1.0).to_dict()
    assert data["base"] == [1.0, 0.0]
    assert data["empty"] is False


# ------------------------------------------------------ compact approximant


def test_compact_approximant_limit_is_apply():
    f = PowerSeries([0, 1, -0.5, 0.25j]).truncate(16)
    s = SymbolGBeta.beta_cesaro(1.0)
    near = compact_approximant(f, s, 1 - 1e-12)
    full = apply_generalized(f, s)
    np.testing.assert_allclose(near.coeffs, full.coeffs, atol=1e-9)


def test_compact_approximant_dilated_identity():
    out = compact_approximant(PowerSeries([0, 1]).truncate(3), SymbolGBeta.beta_cesaro(1.0), 0.5)
    np.testing.assert_allclose(out.coeffs, [0, 0.5, 0.25, 1 / 6])


def test_compact_approximant_zero():
    out = compact_approximant(PowerSeries.zero(4), SymbolGBeta.beta_cesaro(1.0), 0.5)
    assert np.all(out.coeffs == 0)


def test_compact_approximant_rejects_bad_dilation():
    f = PowerSeries([0, 1])
    with pytest.raises(DomainError):
        compact_approximant(f, SymbolGBeta.alexander(), 1.0)
    with pytest.raises(DomainError):
        compact_approximant(f, SymbolGBeta.alexander(), 0.0)


# --------------------------------------------------- approximate eigenvalue


def test_approximate_eigen_probe_quarter(grid):
    v = approximate_eigen_probe(SymbolGBeta.alexander(), 4, BlochParams(1.0), grid)
    assert v == pytest.approx(0.25, abs=1e-3)


def test_approximate_eigen_probe_one(grid):
    v = approximate_eigen_probe(SymbolGBeta.alexander(), 1, BlochParams(1.0), grid)
    assert v == pytest.approx(1.0, abs=1e-9)


def test_approximate_eigen_probe_decays(grid):
    p = BlochParams(1.0)
    vals = [approximate_eigen_probe(SymbolGBeta.alexander(), n, p, grid) for n in (2, 4, 8, 16)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# -------------------------------------------------------------- preimages


def test_preimage_of_log_is_identity():
    g = PowerSeries(np.concatenate([[0], 1.0 / np.arange(1, 33)]))
    f = preimage_under_cesaro(g)
    np.testing.assert_allclose(f.coeffs[:3], [0, 1, 0], atol=1e-15)
    assert np.max(np.abs(f.coeffs[3:-2])) < 1e-15


def test_preimage_of_identity():
    f = preimage_under_cesaro(PowerSeries([0, 1]))
    np.testing.assert_allclose(f.coeffs, [0, 1, -1])


def test_preimage_of_zero():
    f = preimage_under_cesaro(PowerSeries.zero(4))
    assert np.all(f.coeffs == 0)


def test_preimage_rejects_nonzero_origin():
    with pytest.raises(DomainError):
        preimage_under_cesaro(PowerSeries([1, 1]))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_preimage_round_trip(seed):
    g = random_poly(np.random.default_rng(seed), degree=64, pad=64)
    back = apply_beta_cesaro(preimage_under_cesaro(g), 1.0)
    n = min(back.order, g.order)
    np.testing.assert_allclose(back.coeffs[: n + 1], g.coeffs[: n + 1], atol=1e-12)
