"""Null families, compactness probes, and essential-norm decay."""
import numpy as np
import pytest

from betacesaro import (
    BlochParams,
    DomainError,
    PowerSeries,
    SymbolGBeta,
    apply_generalized,
    bound_constant,
    compact_approximant,
    compactness_probe,
    default_test_family,
    essential_norm_probe,
    null_family,
    seminorm_estimate,
    truncated_log_witness,
)
from betacesaro.compactness import _half_disk_sup

# ------------------------------------------------------------- null families


def test_monomial_family_half_disk_decay(grid):
    p = BlochParams(1.0)
    fam = null_family("monomial", 12, p, grid)
    assert fam.kind == "monomial"
    # |z|^m <= 2^-m on the half disk, divided by the normalization
    sup = _half_disk_sup(fam.members[9])
    assert sup <= 2**-10 / fam.normalization[9] + 1e-12
    # 2^-10 / 0.737 sits just above the 1e-3 threshold, so the numeric
    # null verification needs one or two more members to clear it
    assert fam.verified_null
    assert not null_family("monomial", 10, p, grid).verified_null


def test_monomial_family_first_member_is_identity(grid):
    fam = null_family("monomial", 3, BlochParams(1.0), grid)
    assert fam.normalization[0] == pytest.approx(1.0)
    np.testing.assert_allclose(fam.members[0].coeffs[:2], [0, 1])


def test_dilation_default_base_is_log_witness(grid):
    fam = null_family("dilation", 3, BlochParams(1.0), grid)
    assert len(fam.members) == 3
    # member m is -log(1 - r z) / its seminorm, with r = 1 - 2^-m
    w = truncated_log_witness(256)
    for m, (f, nrm) in enumerate(zip(fam.members, fam.normalization), start=1):
        want = w.coeffs * (1.0 - 2.0**-m) ** np.arange(257)
        np.testing.assert_allclose(f.coeffs * nrm, want, rtol=1e-15)


def test_null_family_rejects_bad_kind(grid):
    with pytest.raises(DomainError):
        null_family("fourier", 4, BlochParams(1.0), grid)
    with pytest.raises(DomainError):
        null_family("monomial", 0, BlochParams(1.0), grid)


# -------------------------------------------------------- compactness probe


def test_probe_alexander_exact_reciprocal_decay(grid):
    p = BlochParams(1.0)
    fam = null_family("monomial", 64, p, grid)
    rep = compactness_probe(SymbolGBeta.alexander(), p, fam, grid)
    assert rep.verdict == "compact-consistent"
    values = [v for _, v in rep.samples]
    np.testing.assert_allclose(values, 1.0 / np.arange(1, 65), rtol=1e-12)
    assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-6)


def test_probe_unbounded_regime_inconsistent(grid):
    # beta > alpha: the image norms never reach a factor-10 drop at desk
    # scale, so the trend check refuses the compact-consistent verdict
    p = BlochParams(0.5)
    fam = null_family("monomial", 16, p, grid)
    rep = compactness_probe(SymbolGBeta.beta_cesaro(1.0), p, fam, grid)
    assert rep.verdict == "inconsistent"
    values = [v for _, v in rep.samples]
    assert min(values) > 0.1 * values[0]


def test_probe_zero_operator(grid):
    p = BlochParams(1.0)
    fam = null_family("monomial", 6, p, grid)
    rep = compactness_probe(SymbolGBeta(terms=(), beta=1.0), p, fam, grid)
    assert all(v == 0 for _, v in rep.samples)
    assert rep.verdict == "compact-consistent"


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("beta_of_alpha", [0.0, 0.5])
def test_probe_compact_cells_eventually_decreasing(alpha, beta_of_alpha, grid):
    beta = alpha * beta_of_alpha
    p = BlochParams(alpha)
    fam = null_family("monomial", 12, p, grid)
    rep = compactness_probe(SymbolGBeta.beta_cesaro(beta), p, fam, grid)
    values = [v for _, v in rep.samples]
    tail = values[len(values) // 2 :]
    noise = 1e-9 * (1 + values[0])
    assert all(b <= a + noise for a, b in zip(tail, tail[1:]))


# ------------------------------------------------------ essential-norm probe


def test_essnorm_alexander_strictly_decreasing(grid):
    p = BlochParams(1.0)
    fam = default_test_family(p, grid)
    rep = essential_norm_probe(SymbolGBeta.alexander(), p, [0.5, 0.9, 0.99, 0.999], fam, grid)
    values = [v for _, v in rep.samples]
    assert all(v >= 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.1 * values[0]
    assert rep.verdict == "essential-norm-zero-consistent"


def test_essnorm_cesaro_above_one_decreasing(grid):
    p = BlochParams(2.0)
    fam = default_test_family(p, grid)
    rep = essential_norm_probe(SymbolGBeta.beta_cesaro(1.0), p, [0.5, 0.9, 0.99, 0.999], fam, grid)
    values = [v for _, v in rep.samples]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.1 * values[0]


def test_essnorm_rejects_bad_dilations(grid):
    p = BlochParams(1.0)
    fam = [PowerSeries([0, 1]).truncate(8)]
    s = SymbolGBeta.alexander()
    with pytest.raises(DomainError):
        essential_norm_probe(s, p, [0.9, 0.5], fam, grid)
    with pytest.raises(DomainError):
        essential_norm_probe(s, p, [0.5, 1.0], fam, grid)


def test_essnorm_labels_argmax_members(grid):
    p = BlochParams(1.0)
    fam = default_test_family(p, grid, m_max=4)
    rep = essential_norm_probe(SymbolGBeta.alexander(), p, [0.5, 0.9], fam, grid)
    assert len(rep.labels) == 2
    assert all(lab.startswith("member-") for lab in rep.labels)


def test_essnorm_bounded_by_norm_plus_approximant(grid):
    # sanity inequality: the distance estimate on a unit-seminorm family is
    # at most the certified operator bound plus the approximant's own norm
    alpha, beta, s_dil = 2.0, 1.0, 0.9
    p = BlochParams(alpha)
    sym = SymbolGBeta.beta_cesaro(beta)
    fam = default_test_family(p, grid, m_max=8)
    rep = essential_norm_probe(sym, p, [s_dil], fam, grid)
    value = rep.samples[0][1]
    k_norm = max(
        seminorm_estimate(compact_approximant(f, sym, s_dil), p, grid).value for f in fam
    )
    assert value <= bound_constant(alpha, beta) + k_norm + 1e-9


def test_default_test_family_contents(grid):
    p = BlochParams(1.0)
    fam = default_test_family(p, grid)
    assert len(fam) == 33  # monomials m <= 32 plus the log witness
    for f in fam:
        assert seminorm_estimate(f, p, grid).value <= 1 + 1e-9


def test_truncated_log_witness_coefficients():
    w = truncated_log_witness(5)
    np.testing.assert_allclose(w.coeffs, [0, 1, 0.5, 1 / 3, 0.25, 0.2])


def test_image_of_null_family_member_matches_direct_apply(grid):
    p = BlochParams(1.0)
    fam = null_family("monomial", 4, p, grid)
    s = SymbolGBeta.beta_cesaro(0.5)
    out = apply_generalized(fam.members[2], s)
    direct = apply_generalized(PowerSeries.monomial(3, order=256), s).scale(
        1.0 / fam.normalization[2]
    )
    np.testing.assert_allclose(out.coeffs, direct.coeffs, atol=1e-12)
