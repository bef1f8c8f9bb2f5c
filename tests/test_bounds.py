"""Boundedness constants, the decision table, and divergence probes."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacesaro import (
    BlochParams,
    DomainError,
    PowerSeries,
    SymbolGBeta,
    bound_constant,
    classify,
    counterexample_probe,
    default_probe_ts,
    growth_bound,
    point_spectrum,
    seminorm_estimate,
    apply_beta_cesaro,
)

from betacesaro.bounds import REGIME_TOL, REGIMES, WITNESSES, compare, least_squares, regime

from .conftest import random_poly
from .references import classify_reference, one_minus_power_bound

# ------------------------------------------------------------ bound_constant


def test_bound_constant_alexander_small_alpha():
    # sup of 2 sqrt(1 - t^2) is 2 at t = 0
    assert bound_constant(0.5, 0.0) == pytest.approx(2.0, abs=1e-6)


def test_bound_constant_boundary_supremum():
    # sup of 2 sqrt(1 + t) is attained in the t -> 1 limit
    assert bound_constant(0.5, 0.5) == pytest.approx(2 * math.sqrt(2), abs=1e-6)


@pytest.mark.parametrize("beta", [0.9, 0.99, 0.999])
def test_bound_constant_finite_near_log_regime(beta):
    v = bound_constant(1.0, beta)
    assert math.isfinite(v) and v > 0


def test_bound_constant_log_regime_value():
    # the log-factor branch has the removable limit 2 at t = 0
    assert bound_constant(1.0, 0.5) == pytest.approx(2.0, abs=1e-6)


def _reference_profile(alpha, beta, t):
    # the radial profiles in scalar float arithmetic, one t at a time
    if compare(alpha, 1.0) < 0:
        return (1.0 + t) ** alpha * (1.0 - t) ** (alpha - beta) / (1.0 - alpha)
    if compare(alpha, 1.0) == 0:
        ratio = 2.0 if t < 1e-8 else math.log((1.0 + t) / (1.0 - t)) / t
        return (1.0 - t) ** (1.0 - beta) * ratio
    k = math.ceil(alpha)
    alternating = float(k) if t < 1e-8 else (1.0 - (1.0 - t) ** k) / t
    return (1.0 + t) ** alpha * (1.0 - t) ** (1.0 - beta) / (alpha - 1.0) * alternating


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.25), (1.0, 0.5), (2.5, 1.0), (4.2, -1.5)])
def test_profiles_match_scalar_reference(alpha, beta):
    # array and scalar pow may differ by one ulp, and 1 - (1-t)^K cancels:
    # for t >= 1e-3 that is at most 1000 ulps of the result; the t = 0 and
    # t < 1e-8 points take the removable limits
    t = np.concatenate([[0.0, 5e-9], np.linspace(1e-3, 1.0 - 1e-9, 257)])
    got = regime(alpha, beta).profile(alpha, beta, t)
    want = [_reference_profile(alpha, beta, x) for x in t.tolist()]
    np.testing.assert_allclose(got, want, rtol=1000 * np.finfo(float).eps, atol=0)


def test_bound_constant_rejects_uncovered():
    with pytest.raises(DomainError):
        bound_constant(0.5, 0.7)
    with pytest.raises(DomainError):
        bound_constant(1.0, 1.0)
    with pytest.raises(DomainError):
        bound_constant(2.0, 1.5)
    with pytest.raises(DomainError):
        bound_constant(-1.0, -2.0)


# ----------------------------------------------------------------- classify

TABLE = [
    # (alpha, beta, bounded, compact)
    (0.5, 0.25, True, True),   # beta < alpha < 1
    (0.5, 0.5, True, True),    # beta = alpha < 1
    (0.5, 0.7, False, False),  # beta > alpha
    (1.0, 0.5, True, True),    # beta < alpha = 1
    (1.0, 1.0, False, False),  # beta = alpha = 1
    (1.0, 2.0, False, False),  # beta > alpha
    (2.0, 0.5, True, True),    # beta < 1 < alpha
    (2.0, 1.0, True, True),    # beta = 1 < alpha
    (2.0, 1.5, False, False),  # 1 < beta < alpha
    (2.0, 2.0, False, False),  # beta = alpha > 1
]


@pytest.mark.parametrize("alpha,beta,bounded,compact", TABLE)
def test_decision_table(alpha, beta, bounded, compact):
    c = classify(alpha, beta)
    assert c.bounded == bounded
    assert ("Compact" in c.verdict) == compact
    assert ("EssentialNormZero" in c.verdict) == compact
    assert c.source  # every verdict carries its justification


def test_classify_requires_positive_alpha():
    with pytest.raises(DomainError):
        classify(0.0, 0.5)


@given(
    alpha=st.floats(0.01, 5.0, allow_nan=False),
    beta=st.floats(-2.0, 5.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_classify_total_and_deterministic(alpha, beta):
    c1 = classify(alpha, beta)
    c2 = classify(alpha, beta)
    assert c1 == c2
    assert c1.verdict in (("Unbounded",), ("Bounded", "Compact", "EssentialNormZero"))


def test_classify_json():
    data = classify(2.0, 1.0).to_dict()
    assert "Bounded" in data["verdict"]


# Offsets from a regime boundary: on it, within REGIME_TOL of it, and past it.
_OFFSETS = st.sampled_from([0.0, 5e-13, -5e-13, 2e-12, -2e-12])


@st.composite
def near_boundaries(draw):
    """alpha in (0, 5] or an offset from 1, and beta in [-2, 5] or an offset
    from 1 or from alpha, so that every boundary is drawn on and off."""
    alpha = draw(st.floats(0.0, 5.0, exclude_min=True) | _OFFSETS.map(lambda d: 1.0 + d))
    beta = draw(st.floats(-2.0, 5.0) | _OFFSETS.map(lambda d: 1.0 + d) | _OFFSETS.map(lambda d: alpha + d))
    return alpha, beta


@given(point=near_boundaries())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_classify_matches_the_chain_it_replaced(point):
    assert classify(*point) == classify_reference(*point)


def test_each_row_has_one_kind_of_evidence():
    for row in REGIMES:
        if row.classification.bounded:
            assert row.witness is None and callable(row.profile)
        else:
            assert row.profile is None and row.witness in WITNESSES


# The sweep: alpha x beta with beta also alpha, duplicates removed.
SWEEP = sorted({(a, b) for a in (0.5, 0.8, 1.0, 1.5, 2.0, 3.0) for b in (-1.0, 0.0, 0.5, 1.0, a, 1.5, 2.5)})


def test_every_row_holds_its_evidence_on_the_sweep_and_its_boundaries():
    # on an Unbounded row its witness diverges, on a Bounded row the
    # supremum of its profile is finite; each sweep point also moved by
    # 5e-13 on either coordinate, which leaves it on the same boundaries
    assert len(SWEEP) == 39
    assert sum(classify(a, b).bounded for a, b in SWEEP) == 22
    points = [(a + da, b + db) for a, b in SWEEP for da, db in
              [(0.0, 0.0), (5e-13, 0.0), (-5e-13, 0.0), (0.0, 5e-13), (0.0, -5e-13)]]
    failed = []
    for alpha, beta in points:
        row = regime(alpha, beta)
        if row.witness is not None:
            holds = counterexample_probe(alpha, beta, row.witness, default_probe_ts()).verdict == "diverges"
        else:
            holds = math.isfinite(bound_constant(alpha, beta))
        if not holds:
            failed.append((alpha, beta))
    assert failed == []


# -------------------------------------------------------- regime boundaries


def test_compare_tolerance():
    assert compare(0.1 + 0.2, 0.3) == 0
    assert compare(1.0 + 1e-13, 1.0) == 0
    assert compare(1.0 + 1e-11, 1.0) == 1
    assert compare(1.0 - 1e-11, 1.0) == -1


def test_classify_rounded_beta_equal_alpha_is_compact():
    # 0.1 + 0.2 is one ulp above 0.3: beta = alpha < 1, which is compact
    assert "Compact" in classify(0.3, 0.1 + 0.2).verdict


def test_classify_beta_within_tolerance_of_one():
    assert classify(2.0, 1.0 + 1e-13) == classify(2.0, 1.0)


def _monomial_image_ratio(alpha, m):
    """||C_1 z^m|| / ||z^m|| in the alpha-Bloch seminorm, from closed forms.

    (C_1 z^m)' = z^(m-1) / (1-z) and (z^m)' = m z^(m-1) take their largest
    modulus on each circle at z = r, so both seminorms are 1-D suprema over
    r = 1 - x, taken in logs on a geometric grid of x.
    """
    x = np.geomspace(1e-9, 1.0 - 1e-9, 400_001)
    log_r = np.log1p(-x)
    log_w = alpha * (np.log(x) + np.log1p(1.0 - x))
    image = np.max(log_w + (m - 1) * log_r - np.log(x))
    source = np.max(log_w + (m - 1) * log_r + math.log(m))
    return math.exp(image - source)


@pytest.mark.parametrize("alpha, limit", [(1.5, 1.0463), (2.0, 0.6796), (3.0, 0.4028)])
def test_beta_one_below_alpha_monomial_images_do_not_decay(alpha, limit):
    # A known disagreement, pinned: classify(alpha, 1) for alpha > 1 says
    # Compact, but C_1 maps the normalized monomials, which tend to 0 on
    # compact sets, to images whose norms tend to L(alpha) =
    # e (alpha-1)^(alpha-1) / alpha^alpha > 0, so C_1 is not compact there.
    big_l = math.e * (alpha - 1.0) ** (alpha - 1.0) / alpha**alpha
    assert big_l == pytest.approx(limit, abs=1e-4)
    assert _monomial_image_ratio(alpha, 2**14) == pytest.approx(big_l, abs=1e-3)
    assert "Compact" in classify(alpha, 1.0).verdict


def _kernel_image_ratio(alpha, a):
    """||C_1 f_a|| / ||f_a|| for f_a = ((1-az)^(-alpha) - 1) / (a alpha), from
    closed forms on a local grid z = 1 - (1-a) zeta around z = 1.

    f_a' = (1-az)^(-alpha-1) and (C_1 f_a)' = f_a(z) / (z (1-z)).  With
    eps = 1 - a: 1 - az = eps (1 + zeta - eps zeta), 1 - z = eps zeta and
    1 - |z|^2 = 2 eps Re(zeta) - eps^2 |zeta|^2, so nothing cancels.  Both
    seminorms grow like 1/eps, and their suprema sit near z = 1 on this grid.
    """
    eps = 1.0 - a
    rho = np.geomspace(1e-3, 1e3, 1500)
    thetas = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 1601)
    image = source = 0.0
    for theta in np.array_split(thetas, 16):  # bounded temporaries
        zeta = rho * np.exp(1j * theta[:, None])
        w = np.maximum(2.0 * eps * zeta.real - eps**2 * np.abs(zeta) ** 2, 0.0) ** alpha
        one_minus_az = eps * (1.0 + zeta - eps * zeta)
        f = (one_minus_az ** (-alpha) - 1.0) / (a * alpha)
        z = 1.0 - eps * zeta
        image = max(image, np.max(w * np.abs(f) / (np.abs(z) * eps * np.abs(zeta))))
        source = max(source, np.max(w * np.abs(one_minus_az) ** (-alpha - 1.0)))
    return image / source


@pytest.mark.parametrize("alpha, bound", [(1.5, 1.3803), (2.0, 0.8438), (3.0, 0.4682)])
def test_beta_one_below_alpha_kernel_images_do_not_decay(alpha, bound):
    # The normalized kernel functions f_a / ||f_a|| also tend to 0 on compact
    # sets as a -> 1, and C_1 keeps their image norms near a bound above
    # L(alpha): a larger lower bound of the essential norm of C_1, which
    # classify still calls Compact (see the monomial test above).
    big_l = math.e * (alpha - 1.0) ** (alpha - 1.0) / alpha**alpha
    ratio = _kernel_image_ratio(alpha, 1.0 - 1e-6)
    assert ratio == pytest.approx(bound, abs=1e-3)
    assert ratio > big_l


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.1 + 0.2), (2.0, 1.0 + 1e-13)])
def test_bound_constant_finite_within_tolerance(alpha, beta):
    assert math.isfinite(bound_constant(alpha, beta))


_JITTER = st.floats(-5e-13, 5e-13)


@st.composite
def regime_points(draw):
    """alpha in (0, 5] and beta in [-2, 5], plus points within 5e-13 of the
    boundaries alpha = 1, beta = 1 and beta = alpha."""
    alpha = draw(st.floats(0.0, 5.0, exclude_min=True) | _JITTER.map(lambda d: 1.0 + d))
    near_alpha = _JITTER.map(lambda d: alpha + d)
    beta = draw(st.floats(-2.0, 5.0) | _JITTER.map(lambda d: 1.0 + d) | near_alpha)
    return alpha, beta


# |delta| <= 0.9 REGIME_TOL stays within the tolerance after the rounding of
# x + delta - x, which is at most half an ulp of 5
_NEAR_ZERO = st.floats(-0.9 * REGIME_TOL, 0.9 * REGIME_TOL)
# a coordinate exactly on a boundary or far from every boundary, so that only
# the perturbed coordinate approaches one
_ALPHA_ANCHOR = st.just(1.0) | st.floats(0.05, 5.0).filter(lambda a: abs(a - 1.0) > 1e-9)
_BETA_ANCHOR = st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 5.0).filter(
    lambda b: min(abs(b), abs(b - 1.0)) > 1e-9
)


@st.composite
def boundary_pairs(draw):
    """A point (alpha0, beta0) on one of the boundaries beta = alpha,
    alpha = 1, beta = 1 and beta = 0, and the point moved off it by delta."""
    d = draw(_NEAR_ZERO)
    boundary = draw(st.sampled_from(["beta=alpha", "alpha=1", "beta=1", "beta=0"]))
    if boundary == "alpha=1":
        b0 = draw(_BETA_ANCHOR)
        return (1.0, b0), (1.0 + d, b0)
    a0 = draw(_ALPHA_ANCHOR)
    b0 = {"beta=alpha": a0, "beta=1": 1.0, "beta=0": 0.0}[boundary]
    return (a0, b0), (a0, b0 + d)


# on the beta = 1 row, max_j Re(a_j / g(0)) is 1 and 0.2 in the first two
# symbols, so `n_max` reads alpha, and -0.5 in the third, so it is None
_SPECTRUM_SYMBOLS = (
    (((1.0, 1.0),), PowerSeries.zero()),
    (((-1.0, 1.0), (0.5, -1.0)), PowerSeries([3.0])),
    (((-1.0, 1.0),), PowerSeries([3.0])),
)


def _n_max_or_raises(s, alpha):
    try:
        return point_spectrum(s, alpha).n_max
    except DomainError:
        return "raises"
_GROWTH_RADII = np.linspace(0.0, 0.999, 9)


@given(pair=boundary_pairs())
@settings(max_examples=300, deadline=None)
def test_regime_is_its_boundary_value_within_the_tolerance(pair):
    (a0, b0), (a, b) = pair
    assert classify(a, b) == classify(a0, b0)
    for terms, h in _SPECTRUM_SYMBOLS:
        on = _n_max_or_raises(SymbolGBeta(terms=terms, beta=b0, h=h), a0)
        near = _n_max_or_raises(SymbolGBeta(terms=terms, beta=b, h=h), a)
        assert near == on
    # the alpha = 1 bound does not read alpha, so equal bits show the regime
    on = growth_bound(BlochParams(a0), _GROWTH_RADII, 1.5, 0.25)
    near = growth_bound(BlochParams(a), _GROWTH_RADII, 1.5, 0.25)
    assert near.tobytes() == on.tobytes()


def _over_t_before(num, t, limit):
    return np.divide(num, t, out=np.full(np.shape(t), limit, dtype=float), where=t >= 1e-8)


_PROFILES_BEFORE = {
    -1: lambda a, b, t: (1.0 + t) ** a * (1.0 - t) ** (a - b) / (1.0 - a),
    0: lambda a, b, t: (1.0 - t) ** (1.0 - b) * _over_t_before(np.log((1.0 + t) / (1.0 - t)), t, 2.0),
    1: lambda a, b, t: (1.0 + t) ** a * (1.0 - t) ** (1.0 - b) / (a - 1.0)
    * _over_t_before(1.0 - (1.0 - t) ** math.ceil(a), t, math.ceil(a)),
}


def _bound_constant_before(alpha, beta):
    """bound_constant as it was: the scan abscissae built per call, and every
    golden-section step divided through np.full / np.divide."""
    profile = _PROFILES_BEFORE[compare(alpha, 1.0)]

    def fn(t):
        return profile(alpha, beta, t)

    t = np.linspace(0.0, 1.0 - 1e-9, 4096 + 1)
    vals = fn(t)
    k = int(np.argmax(vals))
    a, b = t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = fn(d)
    return float(max(vals[k], fc, fd))


@pytest.mark.parametrize(
    "alpha, beta",
    [(0.5, 0.0), (0.5, 0.5), (0.3, 0.1 + 0.2), (1.0, 0.5), (1.0, -1.0), (2.0, 1.0), (2.5, 0.3), (4.0, -2.0)],
)
def test_bound_constant_matches_the_per_call_scan(alpha, beta):
    # (1.0, 0.5) peaks at t = 0, so its golden-section steps reach t < 1e-8
    assert bound_constant(alpha, beta) == _bound_constant_before(alpha, beta)


@given(point=regime_points())
@settings(max_examples=200, deadline=None)
def test_bound_constant_exists_iff_bounded(point):
    alpha, beta = point
    if classify(alpha, beta).bounded:
        value = bound_constant(alpha, beta)
        assert math.isfinite(value) and value > 0
        assert value == _bound_constant_before(alpha, beta)
    else:
        with pytest.raises(DomainError):
            bound_constant(alpha, beta)


# ---------------------------------------------------- counterexample probes


def test_probe_exponent_beta_minus_alpha():
    rep = counterexample_probe(0.5, 1.0, "Ex26", default_probe_ts(0.999))
    assert rep.verdict == "diverges"
    assert rep.fitted_exponent == pytest.approx(0.5, abs=0.05)


def test_probe_exponent_beta_minus_one():
    rep = counterexample_probe(1.0, 2.0, "Ex28", default_probe_ts())
    assert rep.verdict == "diverges"
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.05)


def test_probe_log_divergence_detected():
    # at beta = alpha the power-law exponent vanishes and the divergence is
    # purely logarithmic; the separate log regressor must flag it
    rep = counterexample_probe(1.0, 1.0, "Ex27", default_probe_ts())
    assert rep.verdict == "diverges"
    assert rep.fitted_exponent == pytest.approx(0.0, abs=0.05)
    assert rep.log_coefficient > 0.5


def test_probe_regime_guards():
    with pytest.raises(DomainError, match=r"^Ex26 requires beta > alpha$"):
        counterexample_probe(1.0, 0.5, "Ex26", [0.5, 0.9])
    with pytest.raises(DomainError, match=r"^Ex27 requires beta >= alpha >= 1$"):
        counterexample_probe(0.5, 1.0, "Ex27", [0.5, 0.9])
    with pytest.raises(DomainError, match=r"^Ex28 requires beta > 1$"):
        counterexample_probe(1.0, 0.9, "Ex28", [0.5, 0.9])
    with pytest.raises(DomainError, match=r"^unknown probe 'Ex99'$"):
        counterexample_probe(0.5, 1.0, "Ex99", [0.5, 0.9])
    with pytest.raises(DomainError, match=r"^unknown probe \['Ex26'\]$"):
        counterexample_probe(0.5, 1.0, ["Ex26"], [0.5, 0.9])
    # equal up to REGIME_TOL is not strictly greater
    with pytest.raises(DomainError, match=r"^Ex26 requires beta > alpha$"):
        counterexample_probe(1.0, 1.0 + 1e-15, "Ex26", [0.5, 0.9])
    with pytest.raises(DomainError, match=r"^Ex28 requires beta > 1$"):
        counterexample_probe(0.5, 1.0 + 1e-15, "Ex28", [0.5, 0.9])


# The displayed quantities of the paper's three witnesses, written out
# independently of WITNESSES.
WITNESS_QUANTITIES = {
    "Ex26": lambda a, b, t: (1.0 + t) ** a / (1.0 - t) ** (b - a),
    "Ex27": lambda a, b, t: (1.0 + t) ** a / (1.0 - t) ** (b - a) * abs(math.log(1.0 - t)) / t,
    "Ex28": lambda a, b, t: (1.0 + t) ** (a + 1.0) / (1.0 - t) ** (b - 1.0),
}


@pytest.mark.parametrize("t_max", [0.5, 0.9, 0.999, 0.9999])
@pytest.mark.parametrize(
    "which, alpha, beta",
    [
        ("Ex26", 0.5, 1.0),
        ("Ex26", 2, 3),
        ("Ex26", 1.0, 1.0 + 1e-9),
        ("Ex27", 1.0, 1.0),
        # beta = alpha = 1 up to REGIME_TOL
        ("Ex27", 1.0 - 1e-13, 1.0 - 2e-13),
        ("Ex27", 1.5, 2.5),
        ("Ex28", 1.0, 2.0),
        ("Ex28", 0.5, 1.5),
        ("Ex28", 3, 2),
    ],
)
def test_probe_samples_are_the_witness_quantity_bit_for_bit(which, alpha, beta, t_max):
    assert WITNESSES.keys() == WITNESS_QUANTITIES.keys()
    ts = default_probe_ts(t_max)
    rep = counterexample_probe(alpha, beta, which, ts)
    assert rep.samples == tuple((t, WITNESS_QUANTITIES[which](alpha, beta, t)) for t in ts)


@pytest.mark.parametrize(
    "which, alpha, beta",
    [("Ex26", 0.5, 1.0), ("Ex26", 3.0, 7.0), ("Ex27", 1.0, 1.0), ("Ex27", 1.5, 2.5), ("Ex28", 1.0, 2.0),
     ("Ex28", 3.0, 2.0)],
)
def test_witness_log_form_is_the_log_of_its_quantity(which, alpha, beta):
    _, _, quantity, log_quantity = WITNESSES[which]
    for t in default_probe_ts(0.999999):
        assert log_quantity(alpha, beta, t) == pytest.approx(math.log(quantity(alpha, beta, t)), rel=1e-12)


@pytest.mark.parametrize(
    "which, alpha, beta, t_max",
    [("Ex26", 0.5, 400.0, 0.9999), ("Ex27", 400.0, 700.0, 0.9999), ("Ex28", 1e300, 2.0, 0.1)],
)
def test_probe_past_the_float_range_fits_the_log_form(which, alpha, beta, t_max):
    # these ended in ZeroDivisionError ((1 - t)^(beta - alpha) underflows
    # to 0) and OverflowError ((1 + t)^(alpha + 1) is past the float range)
    rep = counterexample_probe(alpha, beta, which, default_probe_ts(t_max))
    assert rep.verdict == "diverges" and rep.fitted_exponent > 100
    assert math.inf in [v for _, v in rep.samples]


@pytest.mark.parametrize("alpha, beta, which", [(1e308, 2.0, "Ex28"), (1.0, 1e308, "Ex26")])
def test_probe_with_logs_past_the_float_range_is_a_domain_error(alpha, beta, which):
    # math.fsum of the logs overflows, or the logs themselves are infinite
    with pytest.raises(DomainError, match=f"^{which} has no finite fit"):
        counterexample_probe(alpha, beta, which, default_probe_ts())


def test_probe_ex27_accepts_boundary_within_tolerance():
    # beta = alpha = 1 up to REGIME_TOL meets Ex27's beta >= alpha >= 1
    rep = counterexample_probe(1.0 - 1e-13, 1.0 - 2e-13, "Ex27", default_probe_ts())
    assert rep.verdict == "diverges"


def test_probe_rejects_bad_abscissas():
    with pytest.raises(DomainError):
        counterexample_probe(0.5, 1.0, "Ex26", [])
    with pytest.raises(DomainError):
        counterexample_probe(0.5, 1.0, "Ex26", [0.5, 1.0])


@pytest.mark.parametrize("ts", [[0.5], [0.5, 0.9], [0.5, 0.5, 0.5], [0.5, 0.9, 0.5, 0.9]])
def test_probe_needs_three_distinct_abscissas(ts):
    # a fit of an exponent, a log term and a constant: fewer distinct t
    # used to give a minimum-norm "fit" and a verdict from one sample
    with pytest.raises(DomainError, match="at least three distinct values"):
        counterexample_probe(0.5, 1.0, "Ex26", ts)


def test_probe_samples_sorted_and_serializable():
    rep = counterexample_probe(0.5, 1.0, "Ex26", [0.9, 0.5, 0.99])
    ts = [t for t, _ in rep.samples]
    assert ts == sorted(ts)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["verdict"] == "diverges"
    assert data["samples"] == [list(s) for s in rep.samples]


def test_default_probe_ts_shape():
    ts = default_probe_ts()
    assert len(ts) == 12
    assert all(0 < t < 1 for t in ts)
    assert ts == sorted(ts)
    assert ts[0] >= 0.9 - 1e-12
    assert ts[-1] == pytest.approx(0.9999)


# ------------------------------------------------------ certified inequality


@given(seed=st.integers(0, 2**32 - 1), cell=st.sampled_from([(0.5, 0.25), (2.0, 1.0), (1.0, 0.5)]))
@settings(max_examples=20, deadline=None)
def test_bound_certifies_random_polynomials(seed, cell, coarse_grid):
    alpha, beta = cell
    f = random_poly(np.random.default_rng(seed), degree=64, pad=256)
    p = BlochParams(alpha)
    lhs = seminorm_estimate(apply_beta_cesaro(f, beta), p, coarse_grid).value
    rhs = bound_constant(alpha, beta) * seminorm_estimate(f, p, coarse_grid).value
    assert lhs <= rhs + 1e-6


# ------------------------------------------------------ power-gap majorant


def test_one_minus_power_bound_n1():
    assert one_minus_power_bound(1) == pytest.approx(1 + 2 * math.sqrt(2), abs=1e-12)


def test_one_minus_power_bound_decreasing_to_zero():
    vals = [one_minus_power_bound(n) for n in range(4, 200)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert one_minus_power_bound(10**6) < 1e-5


def test_one_minus_power_bound_rejects_zero():
    with pytest.raises(DomainError):
        one_minus_power_bound(0)


# ---------------------------------------------------------- least squares


def _exact_least_squares(columns, y):
    """Column coefficients of the fit of y by the columns and a constant,
    from the normal equations solved in exact rational arithmetic."""
    rows = [[Fraction(v) for v in row] + [Fraction(1)] for row in zip(*columns)]
    k = len(rows[0])
    a = [
        [sum(r[i] * r[j] for r in rows) for j in range(k)]
        + [sum(r[i] * Fraction(v) for r, v in zip(rows, y))]
        for i in range(k)
    ]
    for i in range(k):  # Gauss-Jordan; the Gram matrix is positive definite
        a[i] = [x / a[i][i] for x in a[i]]
        for j in range(k):
            if j != i:
                a[j] = [x - a[j][i] * p for x, p in zip(a[j], a[i])]
    return [row[-1] for row in a[:-1]]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("n_columns", [1, 2])
def test_least_squares_matches_the_exact_fit(seed, n_columns):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_columns + 1, 25))
    columns = [rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5)
               for _ in range(n_columns)]
    y = sum(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) * c for c in columns) + rng.normal(0, 0.1, n)
    got = least_squares([c.tolist() for c in columns], y.tolist())
    want = _exact_least_squares(columns, y)
    assert got is not None
    for g, w in zip(got, want):
        assert abs(Fraction(g) - w) <= Fraction(1e-12) * abs(w)


def test_least_squares_matches_the_exact_fit_of_the_counterexample_columns():
    big_l = [-math.log1p(-t) for t in default_probe_ts()]
    columns = [big_l, [math.log(x) for x in big_l]]
    y = [0.5 * x + math.log(1.0 + x) for x in big_l]
    for g, w in zip(least_squares(columns, y), _exact_least_squares(columns, y)):
        assert abs(Fraction(g) - w) <= Fraction(1e-12) * abs(w)


@pytest.mark.parametrize(
    "columns, y",
    [
        ([[0.1, 0.1, 0.1]], [1.0, 2.0, 3.0]),  # constant column
        ([[0.3, 0.3000000000000001]], [1.0, 2.0]),  # two adjacent floats
        ([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], [1.0, 5.0, 2.0]),  # duplicated column
        ([[1.0, 2.0, 3.0], [0.2, 0.4, 0.6]], [1.0, 5.0, 2.0]),  # proportional columns
        ([[1.0, 2.0, 3.0], [7.0, 7.0, 7.0]], [1.0, 5.0, 2.0]),  # one constant column
        ([[2.0]], [1.0]),  # no more samples than columns
        ([[1.0, 2.0], [3.0, 5.0]], [1.0, 2.0]),
        ([[]], []),
    ],
)
def test_least_squares_returns_none_when_the_columns_do_not_determine_the_fit(columns, y):
    assert least_squares(columns, y) is None
