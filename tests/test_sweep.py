"""The sweep as a pinned table: each probe's verdict on the 39 (alpha, beta)
configurations of `test_bounds.SWEEP`, with the plain symbol and the CLI
defaults, and whether it agrees with `classify`.

A change that moves a row re-records the table on purpose, and says which
rows moved, with their old and new values:

    PYTHONPATH=src python -m tests.test_sweep --record
"""
import json
import math
import sys
from pathlib import Path

import pytest

from betacesaro import (
    BlochParams,
    SymbolGBeta,
    bound_constant,
    classify,
    compactness_probe,
    counterexample_probe,
    default_grid,
    default_probe_ts,
    default_test_family,
    essential_norm_probe,
    null_family,
)
from betacesaro.bounds import regime

from .test_bounds import SWEEP

GOLDEN_PATH = Path(__file__).parent / "data" / "sweep_golden.json"
# the CLI defaults of `compactness --m-max` and `essnorm --dilations`
M_MAX = 32
DILATIONS = [0.5, 0.9, 0.99, 0.999]
# floats may move in their last bits between CPUs (numpy's array powers)
FLOAT_RTOL = 1e-9
FLOATS = ("bound_constant", "compactness_exponent")


def sweep_row(alpha: float, beta: float) -> dict:
    """Every verdict of one configuration, and the probes' agreement with
    `classify`: `compactness` should call the operator compact exactly when
    it is, `essnorm` its essential norm zero exactly when it is, and the
    row's witness (Unbounded rows only) should diverge."""
    c = classify(alpha, beta)
    witness = regime(alpha, beta).witness
    s, p, g = SymbolGBeta.beta_cesaro(beta), BlochParams(alpha), default_grid()
    comp = compactness_probe(s, p, null_family("monomial", M_MAX, p, g), g)
    ess = essential_norm_probe(s, p, DILATIONS, default_test_family(p, g), g)
    witness_verdict = (
        None if witness is None
        else counterexample_probe(alpha, beta, witness, default_probe_ts()).verdict
    )
    return {
        "alpha": alpha,
        "beta": beta,
        "classify": c.to_dict(),
        "bound_constant": bound_constant(alpha, beta) if c.bounded else None,
        "compactness": comp.verdict,
        "compactness_exponent": comp.fitted_exponent,
        "essnorm": ess.verdict,
        "witness": witness_verdict,
        "agree": {
            "compactness": (comp.verdict == "compact-consistent") == ("Compact" in c.verdict),
            "essnorm": (ess.verdict == "essential-norm-zero-consistent") == ("EssentialNormZero" in c.verdict),
            "witness": None if witness is None else witness_verdict == "diverges",
        },
    }


def sweep_table() -> dict:
    rows = [sweep_row(a, b) for a, b in SWEEP]
    disagreements = {
        probe: sum(row["agree"][probe] is False for row in rows)
        for probe in ("compactness", "essnorm", "witness")
    }
    return {"disagreements": disagreements, "rows": rows}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def table():
    return sweep_table()


def test_golden_covers_the_sweep(golden):
    assert [(row["alpha"], row["beta"]) for row in golden["rows"]] == SWEEP


def test_disagreement_counts(table, golden):
    assert table["disagreements"] == golden["disagreements"]


@pytest.mark.parametrize("alpha, beta", SWEEP)
def test_sweep_row(table, golden, alpha, beta):
    # both tables list the rows in SWEEP order (test_golden_covers_the_sweep)
    i = SWEEP.index((alpha, beta))
    got, want = table["rows"][i], golden["rows"][i]
    for key in FLOATS:
        if want[key] is None:
            assert got[key] is None, key
        else:
            assert math.isclose(got[key], want[key], rel_tol=FLOAT_RTOL), key
    exact = lambda row: {k: v for k, v in row.items() if k not in FLOATS}
    assert exact(got) == exact(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_sweep --record")
    GOLDEN_PATH.write_text(json.dumps(sweep_table(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
