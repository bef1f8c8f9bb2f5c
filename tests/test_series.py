"""Truncated-series arithmetic: closed-form oracles and algebraic laws."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betacesaro import (
    DomainError,
    PowerSeries,
    binomial_series,
    ps_derivative,
    ps_div_by_z,
    ps_exp,
    ps_integrate,
    ps_mul,
)
from betacesaro import series
from betacesaro.series import eval_on_points, tail_estimate

from .conftest import binomial_loop

# ---------------------------------------------------------------- strategies

coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def series_strategy(max_order=64, zero_constant=False):
    def build(values):
        c = np.array(values, dtype=np.complex128)
        if zero_constant:
            c[0] = 0.0
        return PowerSeries(c)

    return st.lists(coeff, min_size=2, max_size=max_order + 1).map(build)


# ---------------------------------------------------------- binomial_series


def test_binomial_high_order_stays_finite():
    # the ratio (beta)_n / n! is bounded even where (beta)_n overflows
    f = binomial_series(0.5, 1.0, 400)
    assert np.all(np.isfinite(f.coeffs))
    assert abs(f.coeffs[-1]) < 1.0


def test_binomial_geometric():
    np.testing.assert_allclose(binomial_series(1.0, 1.0, 3).coeffs, [1, 1, 1, 1])


def test_binomial_beta_zero():
    np.testing.assert_allclose(binomial_series(0.0, 1.0, 3).coeffs, [1, 0, 0, 0])


def test_binomial_beta_two():
    np.testing.assert_allclose(binomial_series(2.0, 1.0, 3).coeffs, [1, 2, 3, 4])


def test_binomial_against_pochhammer():
    beta, b = 0.75, complex(math.cos(1.0), math.sin(1.0))
    f = binomial_series(beta, b, 40)
    for n in range(41):
        # (beta)_n = beta (beta + 1) ... (beta + n - 1)
        want = math.prod(beta + k for k in range(n)) / math.factorial(n) * b**n
        assert f.coeffs[n] == pytest.approx(want, rel=1e-12, abs=1e-300)


@given(beta=st.floats(-2, 3), angle=st.floats(0, 2 * math.pi))
@settings(max_examples=50, deadline=None)
def test_binomial_recurrence_exact(beta, angle):
    b = complex(math.cos(angle), math.sin(angle))
    c = binomial_series(beta, b, 32).coeffs
    for n in range(32):
        assert c[n + 1] == c[n] * b * (beta + n) / (n + 1)


REAL_BS = (1.0, -1.0, 0.5, -0.3, 0.0)
COMPLEX_BS = (1j, -1j, complex(math.cos(0.7), math.sin(0.7)),
              complex(math.cos(2.5), math.sin(2.5)), -0.6 + 0.8j)
LOOP_BETAS = (-3.0, -1.0, 0.0, 0.5, 1.0, 2.5)


def _assert_binomial_matches_loop(beta, b):
    for order in (0, 1, 2, 255, 4096):
        ref = binomial_loop(beta, complex(b), order)
        c = binomial_series(beta, b, order).coeffs
        assert np.array_equal(c, ref), (beta, b, order)
        # every exact zero is +0, where the loop's may be -0
        parts = c.view(np.float64)
        assert not np.any(np.signbit(parts[parts == 0])), (beta, b, order)
        if b.imag == 0:
            # bit for bit once the loop's zeros are +0 too: a subnormal beta
            # underflows the loop to -0 (beta = -5e-324, b = 1, order 2)
            assert c.real.tobytes() == (ref.real + 0.0).tobytes(), (beta, b, order)


@pytest.mark.parametrize("b", REAL_BS)
@pytest.mark.parametrize("beta", LOOP_BETAS)
def test_real_b_binomial_matches_the_loop(beta, b):
    _assert_binomial_matches_loop(beta, b)


@given(beta=st.floats(-3, 3), b=st.sampled_from(REAL_BS))
@example(beta=-5e-324, b=1.0)
@settings(max_examples=40, deadline=None)
def test_real_b_binomial_matches_the_loop_for_any_beta(beta, b):
    _assert_binomial_matches_loop(beta, b)


@pytest.mark.parametrize("b", COMPLEX_BS)
@pytest.mark.parametrize("beta", LOOP_BETAS)
def test_complex_b_binomial_matches_the_loop(beta, b):
    _assert_binomial_matches_loop(beta, b)


@given(beta=st.floats(-3, 3), angle=st.floats(0, 2 * math.pi))
@settings(max_examples=40, deadline=None)
def test_complex_b_binomial_matches_the_loop_for_any_angle(beta, angle):
    _assert_binomial_matches_loop(beta, complex(math.cos(angle), math.sin(angle)))


def test_binomial_rejects_large_b():
    with pytest.raises(DomainError):
        binomial_series(1.0, 1.5, 4)


# ------------------------------------------------------------------- ps_mul


def test_mul_truncates_to_shorter():
    out = ps_mul(PowerSeries([0, 1]), PowerSeries([0, 1]))
    np.testing.assert_allclose(out.coeffs, [0, 0])


def test_mul_convolution_oracle():
    out = ps_mul(PowerSeries([1, 1, 1]), PowerSeries([1, -1, 0]))
    np.testing.assert_allclose(out.coeffs, [1, 0, 0])


def test_mul_identity():
    f = PowerSeries([2, 3 + 1j, -1, 0.5])
    one = PowerSeries([1, 0, 0, 0])
    np.testing.assert_array_equal(ps_mul(f, one).coeffs, f.coeffs)


@st.composite
def sparse_coeffs(draw, order):
    """Coefficients c_0..c_order: a zero run, a drawn core (possibly empty,
    so the operand may be all zero), then zeros to the end."""
    lead = draw(st.integers(0, order + 1))
    core = draw(st.lists(coeff, max_size=order + 1 - lead))
    c = np.zeros(order + 1, dtype=np.complex128)
    c[lead : lead + len(core)] = core
    return c


@st.composite
def sparse_pair(draw, max_order=40):
    a = draw(sparse_coeffs(draw(st.integers(0, max_order))))
    b = draw(sparse_coeffs(draw(st.integers(0, max_order))))
    return a, b


def dense_product(a, b):
    n = min(a.size, b.size) - 1
    return np.convolve(a[: n + 1], b[: n + 1])[: n + 1]


@given(pair=sparse_pair())
@example(pair=(np.zeros(5, dtype=np.complex128), np.ones(9, dtype=np.complex128)))
@example(pair=(np.array([0, 0, 0, 1, 1j]), np.array([0, 0, 2, 3, 0, 0, 0])))
@settings(max_examples=300, deadline=None)
def test_mul_matches_dense_convolution(pair):
    a, b = pair
    out = ps_mul(PowerSeries(a), PowerSeries(b)).coeffs
    n = min(a.size, b.size) - 1
    assert out.shape == (n + 1,)
    scale = 1.0 + np.convolve(np.abs(a[: n + 1]), np.abs(b[: n + 1]))[: n + 1]
    assert np.all(np.abs(out - dense_product(a, b)) <= 1e-13 * scale)


@given(pair=sparse_pair(), k=st.integers(0, 40), c=coeff, swap=st.booleans())
@settings(max_examples=200, deadline=None)
def test_mul_by_single_term_is_bit_exact(pair, k, c, swap):
    a, _ = pair
    mono = np.zeros(max(k + 1, a.size), dtype=np.complex128)
    mono[k] = c if c != 0 else 1.0
    f, g = (mono, a) if swap else (a, mono)
    out = ps_mul(PowerSeries(f), PowerSeries(g)).coeffs
    want = dense_product(f, g)
    assert np.array_equal(out.view(np.float64), want.view(np.float64))


def _dense(rng, size):
    return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)


@pytest.mark.parametrize("seed", range(12))
def test_blocked_mul_matches_dense_convolution(seed):
    # orders 513-4096 with leading and trailing zero runs; every seed here
    # leaves both spans longer than a block, so the product is blocked
    rng = np.random.default_rng(seed)
    a, b = (np.zeros(rng.integers(514, 4098), dtype=np.complex128) for _ in range(2))
    for c in (a, b):
        lead, trail = rng.integers(0, c.size // 4, 2)
        c[lead : c.size - trail] = _dense(rng, c.size - trail - lead)
    out = ps_mul(PowerSeries(a), PowerSeries(b)).coeffs
    n = min(a.size, b.size) - 1
    assert out.shape == (n + 1,)
    scale = 1.0 + np.convolve(np.abs(a[: n + 1]), np.abs(b[: n + 1]))[: n + 1]
    assert np.all(np.abs(out - dense_product(a, b)) <= 1e-13 * scale)


def _one_block_pairs():
    rng = np.random.default_rng(21)
    gamma = binomial_series(1.5, complex(math.cos(0.7), math.sin(0.7)), 4096).coeffs
    poly = np.zeros(4097, dtype=np.complex128)
    poly[:65] = _dense(rng, 65)
    short = np.zeros(4097, dtype=np.complex128)
    short[3 : 3 + 512] = _dense(rng, 512)
    dense = _dense(rng, 4097)
    pairs = [(poly, gamma), (short, dense)]
    for k, c in [(0, -1.0), (1, 0.5 - 2j), (300, -1j), (4095, 3.0)]:
        mono = np.zeros(4097, dtype=np.complex128)
        mono[k] = c
        pairs += [(mono, dense), (dense, mono)]
    return pairs


def span_product(a, b):
    """One np.convolve of the nonzero spans, cut to the outputs <= n and
    assigned at their offset."""
    n = min(a.size, b.size) - 1
    out = np.zeros(n + 1, dtype=np.complex128)
    (nz_a,), (nz_b,) = a[: n + 1].nonzero(), b[: n + 1].nonzero()
    lo_a, lo_b = nz_a[0], nz_b[0]
    span_a = a[lo_a : min(nz_a[-1], n - lo_b) + 1]
    span_b = b[lo_b : min(nz_b[-1], n - lo_a) + 1]
    prod = np.convolve(span_a, span_b)[: n + 1 - lo_a - lo_b]
    out[lo_a + lo_b : lo_a + lo_b + prod.size] = prod
    return out


@pytest.mark.parametrize("pair", _one_block_pairs())
def test_mul_with_a_span_of_one_block_is_convolve_bit_for_bit(pair):
    f, g = pair
    out = ps_mul(PowerSeries(f), PowerSeries(g)).coeffs
    assert out.tobytes() == span_product(f, g).tobytes()


def test_dense_mul_forms_only_the_truncated_triangle(monkeypatch):
    madds = []
    convolve = np.convolve

    def counting(a, b, *args, **kwargs):
        madds.append(len(a) * len(b))
        return convolve(a, b, *args, **kwargs)

    monkeypatch.setattr(series.np, "convolve", counting)
    rng = np.random.default_rng(4096)
    ps_mul(PowerSeries(_dense(rng, 4097)), PowerSeries(_dense(rng, 4097)))
    # the outputs of degree <= n, plus at most a half block per block
    assert sum(madds) <= 4097 * 4098 // 2 + 8 * 512**2 // 2


@given(f=series_strategy(16), g=series_strategy(16))
@settings(max_examples=60, deadline=None)
def test_mul_commutative(f, g):
    a, b = ps_mul(f, g), ps_mul(g, f)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


@given(f=series_strategy(12), g=series_strategy(12), h=series_strategy(12))
@settings(max_examples=60, deadline=None)
def test_mul_associative(f, g, h):
    a = ps_mul(ps_mul(f, g), h)
    b = ps_mul(f, ps_mul(g, h))
    n = min(a.order, b.order)
    np.testing.assert_allclose(a.coeffs[: n + 1], b.coeffs[: n + 1], atol=1e-12)


# ------------------------------------------------------------------- ps_exp


def test_exp_zero():
    np.testing.assert_allclose(ps_exp(PowerSeries.zero(4)).coeffs, [1, 0, 0, 0, 0])


def test_exp_of_z():
    out = ps_exp(PowerSeries([0, 1, 0, 0]))
    np.testing.assert_allclose(out.coeffs, [1, 1, 0.5, 1 / 6])


def test_exp_of_log_series():
    out = ps_exp(PowerSeries([0, 1, 0.5, 1 / 3]))
    np.testing.assert_allclose(out.coeffs, [1, 1, 1, 1])


def exp_reference(u: np.ndarray) -> np.ndarray:
    """The recurrence e_m = (1/m) sum_k k u_k e_{m-k}, summed over the
    reversed strided view of e."""
    n = u.size - 1
    e = np.zeros(n + 1, dtype=np.complex128)
    e[0] = 1.0
    ku = np.arange(n + 1) * u
    for m in range(1, n + 1):
        e[m] = np.dot(ku[1 : m + 1], e[m - 1 :: -1][:m]) / m
    return e


@pytest.mark.parametrize("n", [1, 2, 64, 1024])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exp_matches_strided_reference(n, seed):
    # |u_k| <= sqrt(2)/(k+1), so exp(|u|) has polynomially growing
    # coefficients: no overflow at any order here
    rng = np.random.default_rng(seed)
    u = (rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)) / np.arange(1, n + 2)
    u[0] = 0.0
    got = ps_exp(PowerSeries(u)).coeffs
    # relative to the absolute-value series, which bounds every partial sum
    majorant = exp_reference(np.abs(u).astype(np.complex128)).real
    assert np.all(np.abs(got - exp_reference(u)) <= 1e-13 * majorant)


def _exp_dot_loop(u: np.ndarray) -> np.ndarray:
    """ps_exp's recurrence with the np.dot function in place of the
    ndarray.dot method, the reference for its bits."""
    n = u.size - 1
    e = np.zeros(n + 1, dtype=np.complex128)
    e[0] = 1.0
    ku_rev = np.arange(n, -1, -1) * u[::-1]
    for m in range(1, n + 1):
        e[m] = np.dot(e[:m], ku_rev[n - m : n]) / m
    return e


@pytest.mark.parametrize("n", [1, 2, 3, 257, 1024, 4096])
def test_exp_matches_the_dot_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    u = (rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)) / np.arange(1, n + 2)
    u[0] = 0.0
    assert ps_exp(PowerSeries(u)).coeffs.tobytes() == _exp_dot_loop(u).tobytes()


def test_exp_rejects_nonzero_constant():
    with pytest.raises(DomainError):
        ps_exp(PowerSeries([1, 1]))


def test_exp_overflow_is_a_domain_error_not_a_warning():
    # exp(1000 z) has coefficients e_m = 1000 e_{m-1} / m, and the product
    # 1000 e_340 is the first beyond the largest double; the suite turns
    # numpy warnings into errors
    u = PowerSeries([0, 1000] + [0] * 510)
    with pytest.raises(DomainError, match="non-finite coefficient 341 at order 511"):
        ps_exp(u)


@given(u=series_strategy(32, zero_constant=True), v=series_strategy(32, zero_constant=True))
@settings(max_examples=40, deadline=None)
def test_exp_additivity(u, v):
    n = min(u.order, v.order)
    u, v = u.truncate(n), v.truncate(n)
    lhs = ps_exp(u + v)
    rhs = ps_mul(ps_exp(u), ps_exp(v))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


# -------------------------------------------------- integrate / derivative


def test_integrate_constant():
    np.testing.assert_allclose(ps_integrate(PowerSeries([1, 0])).coeffs, [0, 1, 0])


def test_integrate_log_oracle():
    out = ps_integrate(PowerSeries([1, 1, 1]))
    np.testing.assert_allclose(out.coeffs, [0, 1, 0.5, 1 / 3])


def test_integrate_zero():
    out = ps_integrate(PowerSeries.zero(3))
    assert np.all(out.coeffs == 0)


def test_derivative_of_z():
    np.testing.assert_allclose(ps_derivative(PowerSeries([0, 1])).coeffs, [1])


def test_derivative_termwise():
    out = ps_derivative(PowerSeries([0, 1, 0.5, 1 / 3]))
    np.testing.assert_allclose(out.coeffs, [1, 1, 1])


def test_derivative_of_constant_padded():
    out = ps_derivative(PowerSeries([5, 0, 0]))
    assert np.all(out.coeffs == 0)


@given(f=series_strategy(48))
@example(f=PowerSeries([0, 0, 0, 2.2250738585e-313]))
@settings(max_examples=60, deadline=None)
def test_derivative_integrate_roundtrip(f):
    # exact up to the single rounding of c/n followed by *n; for subnormal c
    # that rounding is absolute, at most n * smallest_subnormal / 2, and the
    # largest n at order 48 is 49
    back = ps_derivative(ps_integrate(f))
    atol = 49 * np.finfo(float).smallest_subnormal
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=5e-16, atol=atol)


# --------------------------------------------------------------- ps_div_by_z


def test_div_by_z_shift():
    np.testing.assert_allclose(ps_div_by_z(PowerSeries([0, 1, 2])).coeffs, [1, 2])


def test_div_by_z_monomial():
    np.testing.assert_allclose(ps_div_by_z(PowerSeries([0, 0, 1])).coeffs, [0, 1])


def test_div_by_z_rejects_nonzero_origin():
    with pytest.raises(DomainError):
        ps_div_by_z(PowerSeries([1, 1]))


# ------------------------------------------------- evaluation and tail bound


def test_eval_linear_no_tail():
    # the identity function, stored padded so the trailing-coefficient
    # window is empty of mass and the tail majorant vanishes
    f = PowerSeries([0, 1]).truncate(32)
    assert eval_on_points(f, np.array([0.5]))[0] == 0.5
    assert tail_estimate(f, 0.5) == 0.0


def test_eval_unpadded_reports_heuristic_tail():
    # stored at its bare degree, the same polynomial's trailing window
    # still contains the leading coefficient, so the majorant formula
    # M |z|^(N+1) / (1 - |z|) reports 1 * 0.25 / 0.5
    assert tail_estimate(PowerSeries([0, 1]), 0.5) == pytest.approx(0.5)


def test_eval_geometric():
    f = PowerSeries(np.ones(65))
    assert eval_on_points(f, np.array([0.5]))[0] == pytest.approx(2.0, abs=1e-15)
    assert tail_estimate(f, 0.5) == pytest.approx(0.5**65 / 0.5)


def test_padded_polynomial_has_zero_tail():
    assert tail_estimate(PowerSeries([0, 1, 2]).truncate(64), 0.99) == 0.0


def test_dilate_scales_coefficient_n_by_r_to_the_n():
    f = PowerSeries([1, 2, 3, 4])
    np.testing.assert_array_equal(f.dilate(0.5).coeffs, [1, 1, 0.75, 0.5])


_TINY = np.finfo(np.float64).tiny


def _dilate_before(f, r):
    """The dilation product without the flush, the reference for `dilate`."""
    return f.coeffs * r ** np.arange(f.order + 1)


@given(
    r=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    order=st.integers(0, 1024),
    log_scale=st.floats(-300.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(r=0.5, order=1024, log_scale=0.0, seed=0)
@example(r=0.3, order=1024, log_scale=-10.0, seed=1)
@settings(max_examples=200, deadline=None)
def test_dilate_matches_the_product_but_flushes_subnormals(r, order, log_scale, seed):
    rng = np.random.default_rng(seed)
    c = 10.0**log_scale * (rng.uniform(-1.0, 1.0, (order + 1, 2)) @ np.array([1.0, 1.0j]))
    f = PowerSeries(c)
    old = _dilate_before(f, r).view(np.float64)
    new = f.dilate(r).coeffs.view(np.float64)
    subnormal = (old != 0) & (np.abs(old) < _TINY)
    # every other part keeps its bits, zeros their sign
    assert new.view(np.uint64)[~subnormal].tobytes() == old.view(np.uint64)[~subnormal].tobytes()
    assert not np.any(new.view(np.uint64)[subnormal])
    assert not np.any((new != 0) & (np.abs(new) < _TINY))


# --------------------------------------------------------- value semantics


def test_rejects_non_finite():
    with pytest.raises(DomainError):
        PowerSeries([0, math.nan])
    with pytest.raises(DomainError):
        PowerSeries([math.inf, 0])


def test_rejects_empty():
    with pytest.raises(DomainError):
        PowerSeries(np.zeros(0))


def test_coefficients_immutable():
    f = PowerSeries([0, 1])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5


def test_truncate_and_pad():
    f = PowerSeries([1, 2, 3])
    assert f.truncate(1).order == 1
    padded = f.truncate(5)
    np.testing.assert_allclose(padded.coeffs, [1, 2, 3, 0, 0, 0])
    assert f.truncate(2) is f


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: PowerSeries.monomial(-1, order=5), r"monomial requires n >= 0, got -1"),
        (lambda: PowerSeries.monomial(-3), r"monomial requires n >= 0, got -3"),
        (lambda: PowerSeries.monomial(2, order=-1), r"monomial requires order >= 0, got -1"),
        (lambda: PowerSeries.zero(-3), r"zero requires order >= 0, got -3"),
        (lambda: PowerSeries.zero(10).truncate(-5), r"truncate requires order >= 0, got -5"),
    ],
)
def test_negative_degree_or_order_is_a_domain_error(build, match):
    # numpy would index from the end (z^5, an order-6 truncation) or raise
    # its own "negative dimensions" error
    with pytest.raises(DomainError, match=match):
        build()


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: PowerSeries.zero(2.5), r"zero requires an integer order, got 2\.5"),
        (lambda: PowerSeries.monomial(1.5), r"monomial requires an integer n, got 1\.5"),
        (lambda: PowerSeries.monomial(2, order=3.0), r"monomial requires an integer order, got 3\.0"),
        (lambda: PowerSeries.zero(10).truncate(2.5), r"truncate requires an integer order, got 2\.5"),
        (lambda: PowerSeries.zero(True), r"zero requires an integer order, got True"),
    ],
)
def test_non_integer_degree_or_order_is_a_domain_error(build, match):
    # numpy and slicing would raise their own TypeError
    with pytest.raises(DomainError, match=match):
        build()


def test_numpy_integer_degree_and_order_are_valid():
    assert PowerSeries.zero(np.int64(2)).order == 2
    assert PowerSeries.monomial(np.int32(1), order=np.int64(3)).coeffs.tolist() == [0j, 1 + 0j, 0j, 0j]
    assert PowerSeries([1, 2, 3]).truncate(np.uint8(1)).coeffs.tolist() == [1 + 0j, 2 + 0j]


def test_zero_degree_and_order_are_valid():
    assert PowerSeries.zero().coeffs.tolist() == [0j]
    assert PowerSeries.monomial(0).coeffs.tolist() == [1 + 0j]
    assert PowerSeries.monomial(2, order=0).coeffs.tolist() == [0j, 0j, 1 + 0j]
    assert PowerSeries([1, 2, 3]).truncate(0).coeffs.tolist() == [1 + 0j]


@given(f=series_strategy(32))
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_exact(f):
    back = PowerSeries.from_pairs(json.loads(json.dumps(f.to_dict()))["coeffs"])
    np.testing.assert_array_equal(back.coeffs, f.coeffs)


def test_json_shape():
    data = PowerSeries([0, 1 + 2j]).to_dict()
    assert data == {"coeffs": [[0.0, 0.0], [1.0, 2.0]]}


@pytest.mark.parametrize("pairs", [[[0]], [[1, 2, 3]], ["1"], [True], [[0, None]], 5, {"coeffs": [0]}])
def test_from_pairs_rejects_malformed(pairs):
    with pytest.raises(DomainError):
        PowerSeries.from_pairs(pairs)


def test_from_pairs_accepts_reals_and_pairs():
    f = PowerSeries.from_pairs([0, [1, 2], 3.5])
    np.testing.assert_allclose(f.coeffs, [0, 1 + 2j, 3.5])
