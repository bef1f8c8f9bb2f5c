"""The one rule for integer arguments and the one rule for real arguments."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from betacesaro import (
    BlochParams,
    DomainError,
    PowerSeries,
    SampleGrid,
    SymbolGBeta,
    binomial_series,
    bound_constant,
    classify,
    compact_approximant,
    counterexample_probe,
    default_grid,
    default_probe_ts,
    default_test_family,
    eigenfunction_psi,
    essential_norm_probe,
    growth_bound,
    null_family,
    operator_matrix,
    point_spectrum,
    symbol_series,
    truncated_log_witness,
)
from betacesaro.errors import check_integer, check_real
from betacesaro.operators import symbol_spectrum

from .references import approximate_eigen_probe, one_minus_power_bound

SYMBOL = SymbolGBeta.beta_cesaro(1.0)
PARAMS = BlochParams(1.0)
GRID = SampleGrid(np.array([0.0, 0.5, 0.9]), 8)

# (where, name, low, call): call(value) passes value as that argument.
# test_series pins PowerSeries.zero, monomial and truncate, test_bloch
# SampleGrid's n_angles and default_grid's counts.
SITES = [
    ("binomial_series", "order", 0, lambda v: binomial_series(1.0, 1.0, v)),
    ("symbol_series", "order", 0, lambda v: symbol_series(SYMBOL, v)),
    ("operator_matrix", "N", 1, lambda v: operator_matrix(SYMBOL, v)),
    ("symbol_spectrum", "N", 1, lambda v: symbol_spectrum(SYMBOL, v)),
    ("eigenfunction_psi", "n", 1, lambda v: eigenfunction_psi(SYMBOL, v, 8)),
    ("eigenfunction_psi", "order", 1, lambda v: eigenfunction_psi(SYMBOL, 1, v)),
    ("null_family", "m_max", 1, lambda v: null_family("monomial", v, PARAMS, GRID, order=8)),
    ("null_family", "order", 0, lambda v: null_family("dilation", 1, PARAMS, GRID, order=v)),
    ("approximate_eigen_probe", "n", 1, lambda v: approximate_eigen_probe(SYMBOL, v, PARAMS, GRID)),
    ("truncated_log_witness", "order", 0, lambda v: truncated_log_witness(v)),
    ("default_test_family", "m_max", 0, lambda v: default_test_family(PARAMS, GRID, m_max=v, order=8)),
    ("default_test_family", "order", 0, lambda v: default_test_family(PARAMS, GRID, m_max=1, order=v)),
    ("one_minus_power_bound", "n", 1, lambda v: one_minus_power_bound(v)),
]


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize("where, name, low, call", SITES, ids=[f"{w}-{n}" for w, n, _, _ in SITES])
def test_every_count_order_and_degree_is_checked_by_one_rule(where, name, low, call, bad):
    # a float or a bool used to give a wrong answer (eigenfunction_psi at
    # n = 2.5, 3 eigenvalues from symbol_spectrum at N = 2.5) or numpy's own
    # TypeError; a value below the range had no check in some of them
    value, message = {
        "float": (2.5, f"an integer {name}, got 2.5"),
        "bool": (True, f"an integer {name}, got True"),
        "below": (low - 1, f"{name} >= {low}, got {low - 1}"),
    }[bad]
    with pytest.raises(DomainError, match=f"^{re.escape(f'{where} requires {message}')}$"):
        call(value)


def test_check_integer_returns_a_python_int_in_range():
    value = check_integer("f", "n", np.uint8(3), 1, 3)
    assert value == 3 and type(value) is int
    with pytest.raises(DomainError, match=r"^f requires n <= 3, got 4$"):
        check_integer("f", "n", np.int64(4), 1, 3)


def _symbol_file(beta=0.5, a=(1, 0), b_angle=0):
    return json.dumps({"terms": [{"a": a, "b_angle": b_angle}], "beta": beta})


TS = default_probe_ts()

# (id, where, name, low, high, call): call(value) passes value as that
# argument.  test_bloch and test_series check the arrays: SampleGrid's
# radii and a PowerSeries' coefficients.
INF = math.inf
REAL_SITES = [
    ("BlochParams", "BlochParams", "alpha", 0, INF, lambda v: BlochParams(v)),
    ("weights", "SampleGrid.weights", "alpha", 0, INF, lambda v: GRID.weights(v)),
    ("classify", "classify", "alpha", 0, INF, lambda v: classify(v, 1.0)),
    ("classify-beta", "classify", "beta", -INF, INF, lambda v: classify(2.0, v)),
    # bound_constant checks its arguments through classify
    ("bound_constant-beta", "classify", "beta", -INF, INF, lambda v: bound_constant(2.0, v)),
    ("binomial_series-beta", "binomial_series", "beta", -INF, INF, lambda v: binomial_series(v, 1.0, 3)),
    ("Ex26-alpha", "counterexample_probe", "alpha", 0, INF,
     lambda v: counterexample_probe(v, 2.0, "Ex26", TS)),
    ("Ex28-alpha", "counterexample_probe", "alpha", 0, INF,
     lambda v: counterexample_probe(v, 2.0, "Ex28", TS)),
    ("Ex28-beta", "counterexample_probe", "beta", -INF, INF,
     lambda v: counterexample_probe(2.0, v, "Ex28", TS)),
    ("point_spectrum", "point_spectrum", "alpha", 0, INF, lambda v: point_spectrum(SYMBOL, v)),
    ("r_max", "default_grid", "r_max", 0, 1, lambda v: default_grid(8, 16, v)),
    ("t_max", "default_probe_ts", "t_max", 0, 1, lambda v: default_probe_ts(v)),
    ("Ex26-t", "counterexample_probe", "t", 0, 1,
     lambda v: counterexample_probe(1.0, 2.0, "Ex26", [0.5, v, 0.9])),
    ("essnorm-dilation", "essential_norm_probe", "dilation", 0, 1,
     lambda v: essential_norm_probe(SYMBOL, PARAMS, [v], [PowerSeries.monomial(1)], GRID)),
    ("approximant-dilation", "compact_approximant", "dilation", 0, 1,
     lambda v: compact_approximant(PowerSeries.monomial(1), SYMBOL, v)),
    ("symbol-beta", "SymbolGBeta", "beta", -INF, INF, lambda v: SymbolGBeta(terms=((1.0, 1.0),), beta=v)),
    ("file-beta", "SymbolGBeta.from_json", "beta", -INF, INF,
     lambda v: SymbolGBeta.from_json(_symbol_file(beta=v))),
    ("file-b_angle", "SymbolGBeta.from_json", "b_angle", -INF, INF,
     lambda v: SymbolGBeta.from_json(_symbol_file(b_angle=v))),
    ("file-a", "SymbolGBeta.from_json", "a", -INF, INF, lambda v: SymbolGBeta.from_json(_symbol_file(a=v))),
    ("file-a-pair", "SymbolGBeta.from_json", "a", -INF, INF,
     lambda v: SymbolGBeta.from_json(_symbol_file(a=[1, v]))),
    ("coefficient", "PowerSeries.from_pairs", "coefficient", -INF, INF,
     lambda v: PowerSeries.from_pairs([0, v])),
    ("coefficient-pair", "PowerSeries.from_pairs", "coefficient", -INF, INF,
     lambda v: PowerSeries.from_pairs([[v, 0]])),
]


def _real_cases():
    for site, where, name, low, high, call in REAL_SITES:
        cases = {
            "string": ("0.5", f"a finite real {name}, got '0.5'"),
            "bool": (True, f"a finite real {name}, got True"),
            "nan": (math.nan, f"a finite real {name}, got nan"),
            "inf": (math.inf, f"a finite real {name}, got inf"),
            "-inf": (-math.inf, f"a finite real {name}, got -inf"),
            # float(10**400) overflows: an int too large for a float is infinite
            "huge-int": (10**400, f"a finite real {name}, got {10**400}"),
        }
        if low > -INF:
            cases["at-low"] = (float(low), f"{name} > {low}, got {float(low)}")
            cases["below"] = (low - 1.0, f"{name} > {low}, got {low - 1.0}")
        if high < INF:
            cases["at-high"] = (float(high), f"{name} < {high}, got {float(high)}")
            cases["above"] = (high + 1.0, f"{name} < {high}, got {high + 1.0}")
        for bad, (value, message) in cases.items():
            yield pytest.param(call, value, f"{where} requires {message}", id=f"{site}-{bad}")


@pytest.mark.parametrize("call, value, message", _real_cases())
def test_every_real_argument_is_checked_by_one_rule(call, value, message):
    # alpha = inf was accepted (BlochParams, classify), an alpha <= 0 gave
    # counterexample_probe a `diverges` fit and SampleGrid.weights all ones,
    # a string t was read as a float, a string radius, dilation or beta
    # ended in a bare TypeError, and a symbol file took strings and booleans;
    # a NaN or infinite beta got a verdict from classify and
    # counterexample_probe (or a ZeroDivisionError), and binomial_series
    # read beta = True as 1
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "b", [True, np.True_, "1", None, math.nan, complex(1.0, math.inf), 10**400, 1.5],
    ids=["bool", "np-bool", "string", "none", "nan", "inf", "huge-int", "outside"],
)
def test_binomial_series_point_is_a_complex_in_the_closed_disk(b):
    # True was read as b = 1, "1" and None ended in abs()'s TypeError, and
    # NaN passed the |b| test
    message = f"binomial_series requires a complex b with |b| <= 1, got {b!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        binomial_series(1.0, b, 3)


def test_check_real_returns_a_float_and_keeps_its_bits():
    for value in (np.float64(0.1), 3, 2**60 + 1, 1e-300):
        x = check_real("f", "x", value, 0)
        assert type(x) is float and x == float(value)
    # the dataclasses store what they were given
    assert type(BlochParams(2).alpha) is int
    assert type(SymbolGBeta.beta_cesaro(np.float64(0.5)).beta) is np.float64


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PowerSeries([[1, 2], [3]]), "PowerSeries requires a rectangular array of coefficients"),
        (lambda: PowerSeries([0.5, [1.0]]), "PowerSeries requires a rectangular array of coefficients"),
        (lambda: PowerSeries([[0, 1], [2, 3]]),
         "PowerSeries requires a scalar or vector of coefficients, got shape (2, 2)"),
        (lambda: SampleGrid([[0.1], [0.2, 0.3]], 4), "SampleGrid requires a rectangular array of radii"),
        (lambda: growth_bound(PARAMS, "abc", 1.0, 0.0), "growth_bound requires real radii, got dtype <U3"),
        (lambda: growth_bound(PARAMS, 0.5j, 1.0, 0.0),
         "growth_bound requires real radii, got dtype complex128"),
        (lambda: growth_bound(PARAMS, False, 1.0, 0.0), "growth_bound requires real radii, got dtype bool"),
        (lambda: growth_bound(PARAMS, [0.5, False], 1.0, 0.0), "growth_bound requires real radii, got False"),
        (lambda: growth_bound(PARAMS, [[0.1], [0.2, 0.3]], 1.0, 0.0),
         "growth_bound requires a rectangular array of radii"),
        (lambda: growth_bound(PARAMS, 0.5, "1.0", 0.0), "growth_bound requires a finite real seminorm, got '1.0'"),
        (lambda: growth_bound(PARAMS, 0.5, 1j, 0.0), "growth_bound requires a finite real seminorm, got 1j"),
        (lambda: growth_bound(PARAMS, 0.5, math.nan, 0.0), "growth_bound requires a finite real seminorm, got nan"),
        (lambda: growth_bound(PARAMS, 0.5, True, 0.0), "growth_bound requires a finite real seminorm, got True"),
        (lambda: growth_bound(PARAMS, 0.5, -1.0, 0.0), "growth_bound requires seminorm >= 0, got -1.0"),
        (lambda: growth_bound(PARAMS, 0.5, 1.0, "0.0"), "growth_bound requires a finite real f0, got '0.0'"),
        (lambda: growth_bound(PARAMS, 0.5, 1.0, 1j), "growth_bound requires a finite real f0, got 1j"),
        (lambda: growth_bound(PARAMS, 0.5, 1.0, math.nan), "growth_bound requires a finite real f0, got nan"),
        (lambda: growth_bound(PARAMS, 0.5, 1.0, True), "growth_bound requires a finite real f0, got True"),
        (lambda: growth_bound(PARAMS, 0.5, 1.0, -1.0), "growth_bound requires f0 >= 0, got -1.0"),
        (lambda: SymbolGBeta(terms=((10**400, 1.0),), beta=1.0),
         "symbol weights a_j and points b_j must be finite"),
        (lambda: SymbolGBeta(terms=((1.0, 10**400),), beta=1.0),
         "symbol weights a_j and points b_j must be finite"),
        (lambda: SymbolGBeta(terms=((1.0, 1.0),), beta=1.0, h=[1, 2]),
         "SymbolGBeta requires a PowerSeries h, got list"),
        (lambda: SymbolGBeta(terms=((1.0, 1.0),), beta=1.0, h=None),
         "SymbolGBeta requires a PowerSeries h, got NoneType"),
        (lambda: SymbolGBeta(terms=5, beta=1.0), "SymbolGBeta requires terms that are (a_j, b_j) pairs, got 5"),
        (lambda: SymbolGBeta(terms=(5,), beta=1.0),
         "SymbolGBeta requires terms that are (a_j, b_j) pairs, got (5,)"),
        (lambda: SymbolGBeta(terms=((1.0,),), beta=1.0),
         "SymbolGBeta requires terms that are (a_j, b_j) pairs, got ((1.0,),)"),
        (lambda: SymbolGBeta(terms=((1.0, 1.0, 1.0),), beta=1.0),
         "SymbolGBeta requires terms that are (a_j, b_j) pairs, got ((1.0, 1.0, 1.0),)"),
    ],
    ids=["ragged-series", "ragged-scalar-and-list", "matrix-series", "ragged-radii",
         "string-r", "complex-r", "bool-r", "bool-in-r", "ragged-r",
         "string-seminorm", "complex-seminorm", "nan-seminorm", "bool-seminorm", "negative-seminorm",
         "string-f0", "complex-f0", "nan-f0", "bool-f0", "negative-f0", "huge-int-a", "huge-int-b",
         "list-h", "none-h", "int-terms", "int-term", "one-number-term", "three-number-term"],
)
def test_malformed_arrays_and_symbol_parts_raise_domain_error(call, message):
    # a ragged list ended in numpy's own ValueError, a list h built a symbol
    # whose value_at_zero() then raised AttributeError, and terms that are not
    # pairs ended in TypeError (not iterable) or ValueError (unpacking); a
    # matrix of coefficients was flattened, growth_bound read a bool radius as
    # 0 or 1 and ended in numpy's ValueError or TypeError on a string or a
    # complex one (its seminorm and f0 in TypeError; a NaN one returned nan,
    # True read as 1 and a negative seminorm gave a negative bound), and an
    # int too large for a float ended in OverflowError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# any value a caller might pass: numbers of every kind and range, strings,
# bytes, None, numpy scalars and arrays of every scalar dtype, and lists,
# tuples and dicts of them, nested
_NUMBER = st.one_of(
    st.integers(),
    st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**400]),
    st.floats(),
    st.complex_numbers(),
)
_ANY_LEAF = st.one_of(
    _NUMBER,
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.sampled_from([np.True_, np.float16(0.5), np.int8(-3), np.uint64(2**63), np.complex64(1j),
                     np.datetime64("2000-01-01"), object(), {1, 2}]),
    hnp.arrays(hnp.scalar_dtypes() | hnp.byte_string_dtypes() | hnp.unicode_string_dtypes(),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
)
_ANY = st.recursive(
    _ANY_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
_CONSTRUCTORS = {
    "PowerSeries": lambda draw: PowerSeries(draw(_ANY)),
    "SampleGrid": lambda draw: SampleGrid(draw(_ANY), draw(_ANY)),
    "SymbolGBeta": lambda draw: SymbolGBeta(
        terms=draw(_ANY | st.lists(st.tuples(_NUMBER | _ANY, _NUMBER | _ANY), max_size=3)),
        beta=draw(_NUMBER | _ANY),
        h=draw(_ANY | st.just(PowerSeries([0.5]))),
    ),
}


@settings(max_examples=500, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_CONSTRUCTORS)), data=st.data())
def test_constructors_build_or_raise_domain_error(name, data):
    # Python's and numpy's own errors (TypeError, OverflowError, a plain
    # ValueError) fail the property; the rows above pin each one it found
    try:
        _CONSTRUCTORS[name](data.draw)
    except DomainError:
        pass
