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
    pochhammer,
    ps_derivative,
    ps_div_by_z,
    ps_exp,
    ps_integrate,
    ps_mul,
)
from betacesaro.series import eval_on_points, tail_estimate

# ---------------------------------------------------------------- strategies

coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def series_strategy(max_order=64, zero_constant=False):
    def build(values):
        c = np.array(values, dtype=np.complex128)
        if zero_constant:
            c[0] = 0.0
        return PowerSeries(c)

    return st.lists(coeff, min_size=2, max_size=max_order + 1).map(build)


# ---------------------------------------------------------------- pochhammer


def test_pochhammer_empty_product():
    assert pochhammer(0.5, 0) == 1


def test_pochhammer_factorial():
    assert pochhammer(1, 5) == 120


def test_pochhammer_half():
    assert pochhammer(0.5, 3) == pytest.approx(0.5 * 1.5 * 2.5)


def test_pochhammer_negative_n_rejected():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


def test_pochhammer_moderate_n_no_overflow():
    v = pochhammer(0.5, 150)
    assert math.isfinite(abs(v)) and abs(v) > 0


def test_binomial_high_order_stays_finite():
    # the ratio (beta)_n / n! is bounded even where (beta)_n overflows
    f = binomial_series(0.5, 1.0, 400)
    assert np.all(np.isfinite(f.coeffs))
    assert abs(f.coeffs[-1]) < 1.0


# ---------------------------------------------------------- binomial_series


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
        want = pochhammer(beta, n) / math.factorial(n) * b**n
        assert f.coeffs[n] == pytest.approx(want, rel=1e-12, abs=1e-300)


@given(beta=st.floats(-2, 3), angle=st.floats(0, 2 * math.pi))
@settings(max_examples=50, deadline=None)
def test_binomial_recurrence_exact(beta, angle):
    b = complex(math.cos(angle), math.sin(angle))
    c = binomial_series(beta, b, 32).coeffs
    for n in range(32):
        assert c[n + 1] == c[n] * b * (beta + n) / (n + 1)


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


def test_exp_rejects_nonzero_constant():
    with pytest.raises(DomainError):
        ps_exp(PowerSeries([1, 1]))


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
