"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or
in the failure report) and asserts the stated tolerance.  All randomness is
seeded, so the suite is deterministic.
"""
import math
import sys

import numpy as np
import pytest

from betacesaro import (
    BlochParams,
    PowerSeries,
    SymbolGBeta,
    apply_beta_cesaro,
    apply_generalized,
    approximate_eigen_probe,
    bound_constant,
    counterexample_probe,
    default_probe_ts,
    default_test_family,
    eigenfunction_psi,
    essential_norm_probe,
    growth_check,
    one_minus_power_bound,
    operator_matrix,
    preimage_under_cesaro,
    seminorm_estimate,
    symbol_series,
    truncated_spectrum,
)
from betacesaro.series import eval_on_points

from .conftest import grid_points, random_poly


def report(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    assert ok, f"{name}: {detail}"


def random_symbol(rng, beta, n_terms=2, with_h=True):
    angles = rng.uniform(0, 2 * math.pi, n_terms)
    while n_terms > 1 and np.min(np.abs(np.diff(np.sort(angles)))) < 1e-6:
        angles = rng.uniform(0, 2 * math.pi, n_terms)
    terms = tuple(
        (complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)), complex(np.cos(t), np.sin(t)))
        for t in angles
    )
    h = (
        PowerSeries(rng.uniform(-0.5, 0.5, (5, 2)) @ np.array([1.0, 1.0j]))
        if with_h
        else PowerSeries.zero()
    )
    return SymbolGBeta(terms=terms, beta=beta, h=h)


def test_criterion_01_alexander_norm_witness(grid):
    rng = np.random.default_rng(1)
    alexander_beta = 0.0
    worst = 0.0
    for _ in range(200):
        f = random_poly(rng, degree=64, pad=256)
        for alpha in (0.5, 1.0, 2.0):
            p = BlochParams(alpha)
            ratio = (
                seminorm_estimate(apply_beta_cesaro(f, alexander_beta), p, grid).value
                / seminorm_estimate(f, p, grid).value
            )
            worst = max(worst, ratio)
    z = PowerSeries([0, 1]).truncate(32)
    eq = seminorm_estimate(apply_beta_cesaro(z, 0.0), BlochParams(1.0), grid).value
    ok = worst <= 1 + 1e-6 and abs(eq - 1.0) <= 1e-9
    report(ok, "criterion-01", f"worst ratio {worst:.6f} (<= 1+1e-6), identity ratio {eq}")


def test_criterion_02_spectrum_exactness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        s = random_symbol(rng, beta=rng.uniform(0.0, 2.0))
        spec = truncated_spectrum(operator_matrix(s, 64))
        g0 = s.value_at_zero()
        want = sorted((g0 / n for n in range(1, 65)), key=abs, reverse=True)
        worst = max(worst, max(abs(a - b) for a, b in zip(spec, want)))
    report(worst <= 1e-12, "criterion-02", f"max eigenvalue deviation {worst:.2e} (<= 1e-12)")


def test_criterion_03_eigen_identity():
    def max_rel_err(s, n, eigenvalue):
        psi = eigenfunction_psi(s, n, 256)
        c = np.zeros(257, dtype=np.complex128)
        c[n:] = psi.coeffs[: 257 - n]
        f = PowerSeries(c)
        out = apply_generalized(f, s)
        want = f.scale(eigenvalue)
        return float(np.max(np.abs(out.coeffs - want.coeffs) / (1.0 + np.abs(want.coeffs))))

    cesaro = SymbolGBeta.beta_cesaro(1.0)
    shifted = SymbolGBeta(terms=((1.0, 1.0),), beta=1.0, h=PowerSeries([-2.0]))
    worst = 0.0
    for n in range(1, 9):
        worst = max(worst, max_rel_err(cesaro, n, 1.0 / n))
        worst = max(worst, max_rel_err(shifted, n, -1.0 / n))
    report(worst <= 1e-10, "criterion-03", f"max relative coefficient error {worst:.2e} (<= 1e-10)")


def test_criterion_04_bound_certification(grid):
    rng = np.random.default_rng(4)
    worst = -math.inf
    for alpha, beta in ((0.5, 0.25), (2.0, 1.0), (1.0, 0.5)):
        p = BlochParams(alpha)
        c = bound_constant(alpha, beta)
        for _ in range(100):
            f = random_poly(rng, degree=64, pad=256)
            lhs = seminorm_estimate(apply_beta_cesaro(f, beta), p, grid).value
            rhs = c * seminorm_estimate(f, p, grid).value
            worst = max(worst, lhs - rhs)
    report(worst <= 1e-6, "criterion-04", f"worst certificate slack {worst:.3e} (<= 1e-6)")


def test_criterion_05_counterexample_exponents():
    ts = default_probe_ts(0.9999)
    cases = [
        ("Ex26", 0.5, 1.0, 0.5),
        ("Ex26", 0.5, 0.7, 0.2),
        ("Ex27", 1.0, 1.5, 0.5),
        ("Ex28", 1.0, 2.0, 1.0),
    ]
    worst = 0.0
    for which, alpha, beta, want in cases:
        rep = counterexample_probe(alpha, beta, which, ts)
        worst = max(worst, abs(rep.fitted_exponent - want))
        assert rep.verdict == "diverges"
    log_rep = counterexample_probe(1.0, 1.0, "Ex27", ts)
    worst = max(worst, abs(log_rep.fitted_exponent - 0.0))
    ok = worst <= 0.05 and log_rep.log_coefficient > 0.5 and log_rep.verdict == "diverges"
    report(
        ok,
        "criterion-05",
        f"max exponent error {worst:.3f} (<= 0.05), log coefficient {log_rep.log_coefficient:.3f}",
    )


def test_criterion_06_growth_bound_suite(grid):
    rng = np.random.default_rng(6)
    failures = 0
    for i in range(500):
        f = random_poly(rng, degree=64, pad=256)
        alpha = (0.5, 1.0, 2.0)[i % 3]
        failures += not growth_check(f, BlochParams(alpha), grid).passed
    report(failures == 0, "criterion-06", f"{failures} failures out of 500 growth checks")


def test_criterion_07_approximate_eigenvalue(grid):
    p = BlochParams(1.0)
    worst = 0.0
    for n in range(1, 33):
        v = approximate_eigen_probe(SymbolGBeta.alexander(), n, p, grid)
        worst = max(worst, abs(v - 1.0 / n))
    rng = np.random.default_rng(7)
    bound_ok = True
    for _ in range(10):
        s = random_symbol(rng, beta=0.0)
        g = eval_on_points(symbol_series(s, 256), grid_points(grid))
        sup_g = float(np.max(np.abs(g)))
        for n in (1, 4, 16):
            v = approximate_eigen_probe(s, n, p, grid)
            bound_ok = bound_ok and v <= sup_g / n + 1e-12
    ok = worst <= 1e-3 and bound_ok
    report(ok, "criterion-07", f"max |value - 1/n| = {worst:.2e} (<= 1e-3), sup-bound ok: {bound_ok}")


def test_criterion_08_essential_norm_decay(grid):
    dilations = [0.5, 0.9, 0.99, 0.999]
    ok = True
    detail = []
    for sym, alpha in ((SymbolGBeta.alexander(), 1.0), (SymbolGBeta.beta_cesaro(1.0), 2.0)):
        p = BlochParams(alpha)
        fam = default_test_family(p, grid)
        rep = essential_norm_probe(sym, p, dilations, fam, grid)
        values = [v for _, v in rep.samples]
        ok = ok and all(b < a for a, b in zip(values, values[1:])) and values[-1] < 0.1 * values[0]
        detail.append(f"alpha={alpha}: {values[0]:.3f} -> {values[-1]:.2e}")
    report(ok, "criterion-08", "; ".join(detail))


def test_criterion_09_one_minus_power_bound():
    v1 = one_minus_power_bound(1)
    err1 = abs(v1 - (1 + 2 * math.sqrt(2)))
    large_ok = all(one_minus_power_bound(n) < 1e-3 for n in (10**4, 10**5, 10**6))
    ok = err1 <= 1e-12 and large_ok
    report(ok, "criterion-09", f"|value(1) - (1+2sqrt2)| = {err1:.1e}, large-n below 1e-3: {large_ok}")


def test_criterion_10_separability_round_trip():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        g = random_poly(rng, degree=64, pad=64)
        back = apply_beta_cesaro(preimage_under_cesaro(g), 1.0)
        n = min(back.order, g.order)
        worst = max(worst, float(np.max(np.abs(back.coeffs[: n + 1] - g.coeffs[: n + 1]))))
    report(worst <= 1e-12, "criterion-10", f"max round-trip coefficient error {worst:.2e} (<= 1e-12)")
