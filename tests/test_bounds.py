"""Boundedness constants, the decision table, and divergence probes."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacesaro import (
    BlochParams,
    DomainError,
    bound_constant,
    classify,
    counterexample_probe,
    default_probe_ts,
    one_minus_power_bound,
    seminorm_estimate,
    apply_beta_cesaro,
)

from .conftest import random_poly

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


def test_bound_constant_rejects_uncovered():
    with pytest.raises(DomainError):
        bound_constant(0.5, 0.7)
    with pytest.raises(DomainError):
        bound_constant(1.0, 1.0)
    with pytest.raises(DomainError):
        bound_constant(2.0, 1.5)


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
    with pytest.raises(DomainError):
        counterexample_probe(1.0, 0.5, "Ex26", [0.5, 0.9])
    with pytest.raises(DomainError):
        counterexample_probe(0.5, 1.0, "Ex27", [0.5, 0.9])
    with pytest.raises(DomainError):
        counterexample_probe(1.0, 0.9, "Ex28", [0.5, 0.9])
    with pytest.raises(DomainError):
        counterexample_probe(0.5, 1.0, "Ex99", [0.5, 0.9])


def test_probe_rejects_bad_abscissas():
    with pytest.raises(DomainError):
        counterexample_probe(0.5, 1.0, "Ex26", [])
    with pytest.raises(DomainError):
        counterexample_probe(0.5, 1.0, "Ex26", [0.5, 1.0])


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
