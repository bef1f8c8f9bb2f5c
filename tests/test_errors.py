"""The one rule for integer arguments and the one rule for alpha."""
import re

import numpy as np
import pytest

from betacesaro import (
    BlochParams,
    DomainError,
    SampleGrid,
    SymbolGBeta,
    approximate_eigen_probe,
    binomial_series,
    counterexample_probe,
    default_probe_ts,
    default_test_family,
    eigenfunction_psi,
    null_family,
    one_minus_power_bound,
    operator_matrix,
    point_spectrum,
    symbol_series,
    truncated_log_witness,
)
from betacesaro.errors import check_integer
from betacesaro.operators import symbol_spectrum

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
    ("approximate_eigen_probe", "n", 1, lambda v: approximate_eigen_probe(SYMBOL, v, PARAMS, GRID)),
    ("truncated_log_witness", "order", 0, lambda v: truncated_log_witness(v)),
    ("default_test_family", "m_max", 0, lambda v: default_test_family(PARAMS, GRID, m_max=v, order=8)),
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


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: counterexample_probe(a, 2.0, "Ex26", default_probe_ts()),
        lambda a: counterexample_probe(a, 2.0, "Ex28", default_probe_ts()),
        lambda a: point_spectrum(SYMBOL, a),
        lambda a: GRID.weights(a),
    ],
    ids=["counterexample_probe-Ex26", "counterexample_probe-Ex28", "point_spectrum", "SampleGrid.weights"],
)
def test_alpha_must_be_positive_at_every_site(call, alpha):
    # counterexample_probe used to fit a `diverges` verdict at alpha = -1,
    # and SampleGrid.weights returned all ones at alpha = 0
    with pytest.raises(DomainError, match="^alpha must be positive$"):
        call(alpha)
