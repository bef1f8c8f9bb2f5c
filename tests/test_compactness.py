"""Null families, compactness probes, and essential-norm decay."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from betacesaro.bloch import SampleGrid, _estimate, eval_on_grid, normalize
from betacesaro.compactness import MEMBER_CACHE_SIZE, _unit_member
from betacesaro.series import DEFAULT_ORDER

from .references import approximate_eigen_probe

# ------------------------------------------------------------- null families

_HALF_DISK = SampleGrid([0.5], 64)


def half_disk_sup(f):
    """The largest |f| sampled on |z| = 1/2, which bounds f on the half disk."""
    return float(np.max(np.abs(eval_on_grid(f, _HALF_DISK))))


def unscaled_member(kind, m, order=DEFAULT_ORDER):
    """Member m of the family `kind` before its scaling to unit seminorm."""
    if kind == "monomial":
        return PowerSeries.monomial(m, order=max(order, 2 * m))
    return truncated_log_witness(order).dilate(1.0 - 2.0**-m)


def normalization(kind, m, p, g, order=DEFAULT_ORDER):
    """The estimated seminorm member m of the family `kind` is scaled by."""
    return _estimate(unscaled_member(kind, m, order), p, g).value


def test_monomial_family_half_disk_decay(grid):
    p = BlochParams(1.0)
    fam = null_family("monomial", 12, p, grid)
    assert fam.kind == "monomial"
    # |z|^m <= 2^-m on the half disk, divided by the normalization
    sup = half_disk_sup(fam.members[9])
    assert sup <= 2**-10 / normalization("monomial", 10, p, grid) + 1e-12
    # 2^-10 / 0.737 sits just above 1e-3, which member 12 falls below
    assert half_disk_sup(fam.members[11]) < 1e-3 <= sup


def test_monomial_family_first_member_is_identity(grid):
    p = BlochParams(1.0)
    fam = null_family("monomial", 3, p, grid)
    assert normalization("monomial", 1, p, grid) == pytest.approx(1.0)
    np.testing.assert_allclose(fam.members[0].coeffs[:2], [0, 1])


def test_dilation_default_base_is_log_witness(grid):
    p = BlochParams(1.0)
    fam = null_family("dilation", 3, p, grid)
    assert len(fam.members) == 3
    # member m is -log(1 - r z) / its seminorm, with r = 1 - 2^-m
    w = truncated_log_witness(256)
    for m, f in enumerate(fam.members, start=1):
        want = w.coeffs * (1.0 - 2.0**-m) ** np.arange(257)
        np.testing.assert_allclose(f.coeffs * normalization("dilation", m, p, grid), want, rtol=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.5, 2.0, 3.0])
def test_dilation_family_is_never_verified_null(alpha, grid):
    # a known limitation, pinned: on the default grid at order 256 the last
    # dilation of -log(1-z) keeps a half-disk sup of 0.12-0.63, so the family
    # does not tend to 0 on compact sets and no probe verdict on it can be
    # trusted; the monomials do
    p = BlochParams(alpha)
    dilation = null_family("dilation", 32, p, grid, order=256)
    assert half_disk_sup(dilation.members[-1]) > 0.1
    monomial = null_family("monomial", 32, p, grid, order=256)
    assert half_disk_sup(monomial.members[-1]) <= 3e-8


def test_dilation_family_stops_where_the_dilation_rounds_to_one(grid, monkeypatch):
    # 1 - 2^-m is below 1 up to m = 53 and rounds to 1 from m = 54, where a
    # member would be the undilated witness; no member is built
    p = BlochParams(1.0)
    assert 1.0 - 2.0**-53 < 1.0 == 1.0 - 2.0**-54
    assert len(null_family("dilation", 53, p, grid, order=64).members) == 53

    def must_not_run(*args, **kwargs):
        raise AssertionError("built a member")

    monkeypatch.setattr("betacesaro.compactness._unit_member", must_not_run)
    with pytest.raises(DomainError, match="m_max <= 53"):
        null_family("dilation", 54, p, grid, order=64)


def test_null_family_rejects_bad_kind(grid):
    with pytest.raises(DomainError):
        null_family("fourier", 4, BlochParams(1.0), grid)
    with pytest.raises(DomainError):
        null_family("monomial", 0, BlochParams(1.0), grid)


def _families_and_probes(p, grid):
    """Bytes and normalizations of every family the probes build at order
    1024, and the to_dict of both probes, at params p."""
    s = SymbolGBeta.beta_cesaro(0.5)
    out = []
    for kind in ("monomial", "dilation"):
        fam = null_family(kind, 2, p, grid, order=1024)
        norms = [normalization(kind, m, p, grid, 1024) for m in (1, 2)]
        out.append(([f.coeffs.tobytes() for f in fam.members], norms))
        out.append(compactness_probe(s, p, fam, grid).to_dict())
    test_fam = default_test_family(p, grid, m_max=1, order=1024)
    out.append([f.coeffs.tobytes() for f in test_fam])
    out.append(essential_norm_probe(s, p, [0.5, 0.99], test_fam, grid).to_dict())
    return out


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_shared_members_give_the_bits_of_a_cold_build(warm, grid):
    # the normalized members are shared across calls, one per alpha; cycling
    # alpha must give every family and probe the bits of a build from an
    # empty member cache
    alphas = (0.5, 2.0, 1.0, 0.5)
    cold = {}
    for alpha in alphas[:3]:
        _unit_member.cache_clear()
        cold[alpha] = _families_and_probes(BlochParams(alpha), grid)
    if not warm:
        _unit_member.cache_clear()
    for alpha in alphas:
        assert _families_and_probes(BlochParams(alpha), grid) == cold[alpha]
    assert _unit_member.cache_info().hits > 0


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_member_cache_is_bounded(warm, grid):
    if warm:
        null_family("dilation", 8, BlochParams(1.0), grid, order=64)
    else:
        _unit_member.cache_clear()
    null_family("monomial", 40, BlochParams(1.0), grid, order=64)
    assert _unit_member.cache_info().currsize <= MEMBER_CACHE_SIZE


def test_member_cache_holds_the_probe_benchmark_traffic(grid):
    # the families of the probes_n1024 benchmark: 15 members, built once
    _unit_member.cache_clear()
    for _ in range(2):
        for alpha in (0.5, 1.0, 2.0):
            p = BlochParams(alpha)
            null_family("monomial", 2, p, grid, order=1024)
            null_family("dilation", 2, p, grid, order=1024)
            default_test_family(p, grid, m_max=1, order=1024)
    assert _unit_member.cache_info().misses == 15 <= MEMBER_CACHE_SIZE


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


def test_essnorm_fits_no_slope_through_indistinguishable_dilations(grid):
    # two adjacent floats are increasing, but too close to fit a line through
    p = BlochParams(1.0)
    fam = default_test_family(p, grid, m_max=4, order=64)
    rep = essential_norm_probe(SymbolGBeta.alexander(), p, [0.3, 0.3000000000000001], fam, grid)
    assert len(rep.samples) == 2
    assert rep.fitted_exponent is None


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


def _essnorm_before(s, p, dilations, family, g):
    """The distance as the probe first computed it, ||C f - C(f_d)||
    maximized over f: per dilation, the maximum, the first member attaining
    it and the runner-up distance."""
    out = []
    for d in dilations:
        dists = [
            seminorm_estimate(apply_generalized(f, s) - compact_approximant(f, s, d), p, g).value
            for f in family
        ]
        ranked = sorted(dists, reverse=True)
        out.append((ranked[0], dists.index(ranked[0]), ranked[1]))
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    beta=st.floats(-1.0, 2.5),
    order=st.sampled_from([64, 256, 1024]),
    dilations=st.lists(st.floats(0.3, 0.999, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=4, unique=True).map(sorted),
)
@settings(max_examples=25, deadline=None)
def test_essnorm_matches_the_two_application_distance(seed, alpha, beta, order, dilations,
                                                      coarse_grid):
    # by linearity C(f - f_d) = C f - C(f_d); the one-application form keeps
    # the values to rounding and the labels wherever the maximum is clear
    r = np.random.default_rng(seed)
    b = np.exp(1j * r.uniform(0.0, 2 * np.pi, 2))
    s = SymbolGBeta(terms=((r.uniform(0.2, 2.0), b[0]), (r.uniform(-2.0, -0.2), b[1])), beta=beta)
    p = BlochParams(alpha)
    fam = default_test_family(p, coarse_grid, m_max=4, order=order)
    rep = essential_norm_probe(s, p, dilations, fam, coarse_grid)
    before = _essnorm_before(s, p, dilations, fam, coarse_grid)
    for (d, value), label, (best, best_i, second) in zip(rep.samples, rep.labels, before):
        assert value == pytest.approx(best, rel=1e-12)
        if best - second > 1e-9 * best:
            assert label == f"member-{best_i}"


def test_essnorm_applies_the_operator_once_per_sample(grid, monkeypatch):
    calls = []

    def counting(f, s):
        calls.append(f)
        return apply_generalized(f, s)

    def must_not_run(*args, **kwargs):
        raise AssertionError("compact_approximant called")

    monkeypatch.setattr("betacesaro.compactness.apply_generalized", counting)
    monkeypatch.setattr("betacesaro.operators.compact_approximant", must_not_run)
    p = BlochParams(1.0)
    fam = default_test_family(p, grid, m_max=4, order=64)
    dilations = [0.5, 0.9, 0.99]
    essential_norm_probe(SymbolGBeta.beta_cesaro(1.0), p, dilations, fam, grid)
    assert len(calls) == len(dilations) * len(fam)


@pytest.mark.parametrize("dilations", [[0.5, 0.9, 0.99, 0.999], [0.9]])
def test_essnorm_zero_operator_is_consistent(grid, dilations):
    # g = 0: every distance is 0, which is the essential-norm-zero signature
    # (a single all-zero sample included), as for the compactness probe
    p = BlochParams(2.0)
    fam = default_test_family(p, grid, m_max=4)
    rep = essential_norm_probe(SymbolGBeta(terms=(), beta=1.0), p, dilations, fam, grid)
    assert all(v == 0 for _, v in rep.samples)
    assert rep.verdict == "essential-norm-zero-consistent"


def test_essnorm_rejects_empty_family(grid, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("applied the operator")

    monkeypatch.setattr("betacesaro.compactness.apply_generalized", must_not_run)
    with pytest.raises(DomainError, match="nonempty test family"):
        essential_norm_probe(SymbolGBeta.alexander(), BlochParams(1.0), [0.5, 0.9], [], grid)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_unit_monomials_keep_their_bits(alpha, grid):
    # the families share one member builder; each unit monomial equals the
    # expression it replaced bit for bit
    p = BlochParams(alpha)

    def unit(m, order):
        return normalize(PowerSeries.monomial(m, order=max(order, 2 * m)), p, grid)

    fam = null_family("monomial", 40, p, grid, order=64)
    for m, f in enumerate(fam.members, start=1):
        scaled = unscaled_member("monomial", m, 64).scale(1.0 / normalization("monomial", m, p, grid, 64))
        assert np.array_equal(f.coeffs, unit(m, 64).coeffs) and np.array_equal(f.coeffs, scaled.coeffs)
    test_fam = default_test_family(p, grid, m_max=40, order=64)
    for m, f in enumerate(test_fam[:-1], start=1):
        assert np.array_equal(f.coeffs, unit(m, 64).coeffs)
    log_unit = normalize(truncated_log_witness(64), p, grid)
    assert np.array_equal(test_fam[-1].coeffs, log_unit.coeffs)
    # the acceptance reference builds its unit monomial by the same
    # expression as the library's shared member, up to m = 200
    s = SymbolGBeta.beta_cesaro(0.5)
    for n in (1, 4, 200):
        h_n = _unit_member("monomial", n, DEFAULT_ORDER, p, grid)
        assert np.array_equal(h_n.coeffs, unit(n, DEFAULT_ORDER).coeffs)
        want = seminorm_estimate(apply_generalized(h_n, s), p, grid).value
        assert approximate_eigen_probe(s, n, p, grid) == want


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
        1.0 / normalization("monomial", 3, p, grid)
    )
    np.testing.assert_allclose(out.coeffs, direct.coeffs, atol=1e-12)
