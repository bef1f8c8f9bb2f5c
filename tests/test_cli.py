"""Command-line interface: reports, determinism, and exit codes."""
import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacesaro import (
    BlochParams,
    DomainError,
    SymbolGBeta,
    cli,
    compactness_probe,
    default_grid,
    default_test_family,
    essential_norm_probe,
    null_family,
)
from betacesaro.bloch import MAX_N_ANGULAR, MAX_N_RADIAL
from betacesaro.cli import MAX_ORDER, _emit, _json, main

from .references import main_reference, symbol_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_reference(capsys, *argv):
    code = main_reference(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["schema"] == "bcl-report/1"
    return report


# ----------------------------------------------------------------- commands


def test_classify_report(capsys):
    report = run_json(capsys, "classify", "--alpha", "2", "--beta", "1")
    assert "Bounded" in report["result"]["verdict"]
    assert "EssentialNormZero" in report["result"]["verdict"]
    assert report["config"]["alpha"] == 2.0
    assert report["config"]["command"] == "classify"


def test_spectrum_from_symbol_file(capsys, tmp_path):
    path = tmp_path / "cesaro.json"
    path.write_text(symbol_json(SymbolGBeta.beta_cesaro(1.0)))
    report = run_json(capsys, "spectrum", "--symbol", str(path), "--N", "4")
    evs = [complex(re, im) for re, im in report["result"]["eigenvalues"]]
    np.testing.assert_allclose(evs, [1, 0.5, 1 / 3, 0.25])


def test_apply_alexander_identity(capsys):
    report = run_json(capsys, "apply", "--beta", "0", "--f", "[0,1]")
    assert report["result"]["coeffs"] == [[0.0, 0.0], [1.0, 0.0]]


def test_seminorm_json_and_csv(capsys):
    report = run_json(capsys, "seminorm", "--alpha", "1", "--f", "[0,0,1]")
    assert report["result"]["value"] == pytest.approx(4 / (3 * 3**0.5), abs=1e-3)
    code, out, _ = run(capsys, "seminorm", "--alpha", "1", "--f", "[0,0,1]", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "value,argmax_re,argmax_im,max_tail"


def test_matrix_report(capsys):
    report = run_json(capsys, "matrix", "--beta", "1", "--N", "3")
    entries = report["result"]["entries"]
    assert entries[2] == [[1 / 3, 0.0], [1 / 3, 0.0], [1 / 3, 0.0]]


def test_eigenfunction_report(capsys):
    report = run_json(capsys, "eigenfunction", "--beta", "1", "--n", "2", "--N", "6")
    coeffs = [complex(re, im) for re, im in report["result"]["coeffs"]]
    np.testing.assert_allclose(coeffs, [1, 2, 3, 4, 5, 6, 7], atol=1e-12)


def test_bound_report(capsys):
    report = run_json(capsys, "bound", "--alpha", "1", "--beta", "0.5")
    assert report["result"]["constant"] == pytest.approx(2.0, abs=1e-6)


def test_counterexample_report(capsys):
    report = run_json(capsys, "counterexample", "--alpha", "0.5", "--beta", "1", "--which", "Ex26")
    assert report["result"]["verdict"] == "diverges"
    assert report["result"]["fitted_exponent"] == pytest.approx(0.5, abs=0.05)


def test_preimage_roundtrip_report(capsys):
    report = run_json(capsys, "preimage", "--f", "[0,1,0.5]")
    assert report["result"]["roundtrip_max_error"] == 0.0


def test_essnorm_report(capsys):
    report = run_json(
        capsys,
        "essnorm",
        "--alpha",
        "1",
        "--beta",
        "0",
        "--dilations",
        "0.5,0.9,0.99,0.999",
        "--grid-radial",
        "16",
        "--grid-angular",
        "32",
    )
    per = report["result"]["per_dilation"]
    assert per[0]["dilation"] == 0.5
    assert per[1]["max_distance"] < per[0]["max_distance"]
    assert report["result"]["verdict"] == "essential-norm-zero-consistent"


@pytest.mark.parametrize(
    "command, verdict",
    [("essnorm", "essential-norm-zero-consistent"), ("compactness", "compact-consistent")],
)
def test_probes_call_the_zero_operator_consistent(capsys, tmp_path, command, verdict):
    # g = (1 - w)^0 - 1 = 0: every probe value is 0, which both probes accept
    path = tmp_path / "zero.json"
    path.write_text('{"terms": [{"a": [1, 0], "b_angle": 0}], "beta": 0, "h": {"coeffs": [[-1, 0]]}}')
    report = run_json(capsys, command, "--alpha", "2", "--symbol", str(path))
    assert all(v == 0 for _, v in report["result"]["samples"])
    assert report["result"]["verdict"] == verdict


def test_compactness_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "compactness",
        "--alpha",
        "1",
        "--beta",
        "0",
        "--m-max",
        "16",
        "--grid-radial",
        "16",
        "--grid-angular",
        "32",
    )
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "compact-consistent"
    # unbounded regime: verdict failure maps to exit 2
    code, out, _ = run(
        capsys,
        "compactness",
        "--alpha",
        "0.5",
        "--beta",
        "1",
        "--m-max",
        "12",
        "--grid-radial",
        "16",
        "--grid-angular",
        "32",
    )
    assert code == 2
    assert json.loads(out)["result"]["verdict"] == "inconsistent"


@pytest.mark.parametrize(
    "argv",
    [
        ["essnorm", "--alpha", "1", "--beta", "0", "--dilations", "0.5"],
        ["compactness", "--alpha", "2", "--beta", "0", "--m-max", "1"],
    ],
)
def test_single_sample_probe_is_inconclusive(capsys, argv):
    # one sample shows no trend either way: neither consistent nor inconsistent
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["result"]["verdict"] == "inconclusive"


# ------------------------------------------------------------- error paths


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "nosuch")
    assert code == 1
    assert err.strip()
    assert len(err.strip().splitlines()) == 1


def test_missing_series_is_usage_error(capsys):
    code, _, err = run(capsys, "apply", "--beta", "0")
    assert code == 1


def test_counterexample_regime_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "counterexample", "--alpha", "1", "--beta", "0.5", "--which", "Ex26")
    assert code == 1


def test_malformed_symbol_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "spectrum", "--symbol", str(path), "--N", "4")
    assert code == 1


def test_missing_symbol_file(capsys, tmp_path):
    code, _, err = run(capsys, "spectrum", "--symbol", str(tmp_path / "nope.json"), "--N", "4")
    assert code == 1


def test_bad_inline_series_is_error(capsys):
    code, _, err = run(capsys, "apply", "--beta", "0", "--f", "[not valid")
    assert code == 1


PROBE_EX26 = ["counterexample", "--alpha", "0.5", "--beta", "1", "--which", "Ex26"]

# argv entries that name a file with these bytes, written into tmp_path
INPUT_FILES = {
    "non-utf8.json": b"[0, 1\xff]",
    "no-coeffs.json": b'{"coefs": [0, 1]}',
    "g0.json": b'{"terms": [{"a": [1, 0], "b_angle": 0}], "beta": 0, "h": {"coeffs": [[-1, 0]]}}',
    # Python's json reads NaN and Infinity
    "nan-angle.json": b'{"terms": [{"a": [1, 0], "b_angle": NaN}], "beta": 0.5}',
    "nan-beta.json": b'{"terms": [{"a": [1, 0], "b_angle": 0}], "beta": NaN}',
    # beyond Python's 4300-digit limit, json.loads raises a plain ValueError
    "5000-digits.json": b"[0, 1" + b"0" * 5000 + b"]",
    # every number in a symbol file is a JSON number, checked by the real rule
    "string-beta.json": b'{"terms": [{"a": [1, 0], "b_angle": 0}], "beta": "0.5"}',
    "bool-beta.json": b'{"terms": [{"a": [1, 0], "b_angle": 0}], "beta": true}',
    "bool-weight.json": b'{"terms": [{"a": [true, 0], "b_angle": 0}], "beta": 0.5}',
    "string-angle.json": b'{"terms": [{"a": [1, 0], "b_angle": "0"}], "beta": 0.5}',
    "400-digit-beta.json": b'{"terms": [{"a": [1, 0], "b_angle": 0}], "beta": 1' + b"0" * 400 + b"}",
    # a misspelled h key was read as h = 0
    "h-typo.json": b'{"terms": [{"a": [1, 0], "b_angle": 0}], "beta": 0.5, "h": {"coefs": [[2, 0]]}}',
}

# the message of a report that holds an infinite sample
NON_FINITE = "error: report holds a non-finite number"

# the message of a symbol-file number, not wrapped as `malformed symbol file`
SYMBOL_NUMBER = "error: SymbolGBeta.from_json requires a finite real"


# (argv, the start of its one stderr line)
MALFORMED_INPUT = [
    (["classify", "--alpha", "1", "--beta", "nan"], "usage error:"),
    (["bound", "--alpha", "inf", "--beta", "0.5"], "usage error:"),
    (PROBE_EX26 + ["--tmax", "nan"], "usage error:"),
    (PROBE_EX26 + ["--tmax", "1"], "error:"),
    (["apply", "--beta", "0", "--f", "[[0]]"], "error:"),
    (["apply", "--beta", "0", "--f", "5"], "error:"),
    (["essnorm", "--alpha", "1", "--beta", "0", "--dilations", "0.5,abc"], "usage error:"),
    (["apply", "--beta", "0", "--f", "[0, 1" + "0" * 400 + "]"], "error:"),
    (["bound", "--alpha", "-1", "--beta", "-2"], "error:"),
    (["eigenfunction", "--beta", "1", "--n", "1", "--N", "-5"], "usage error:"),
    (["spectrum", "--beta", "1", "--N", "0"], "usage error:"),
    (["matrix", "--beta", "1", "--N", "2.5"], "usage error:"),
    (["apply", "--beta", "0", "--f", "[" * 100_000], "error:"),
    (["apply", "--beta", "0", "--f-file", "non-utf8.json"], "error:"),
    (["apply", "--beta", "0", "--f-file", "no-coeffs.json"], "error:"),
    (["eigenfunction", "--symbol", "g0.json", "--n", "1", "--N", "4"], "error:"),
    # n / g(0) raised OverflowError: an int too large for a float
    (["eigenfunction", "--beta", "0.5", "--n", "1" + "0" * 400, "--N", "4"],
     "error: eigenfunction_psi requires n within the float range, got 1329 bits"),
    (["seminorm", "--alpha", "1", "--f", "[0, 1]", "--grid-radial", str(MAX_N_RADIAL + 1)], "error:"),
    (["compactness", "--alpha", "1", "--beta", "0", "--grid-angular", str(MAX_N_ANGULAR + 1)], "error:"),
    (["essnorm", "--alpha", "1", "--beta", "0", "--grid-radial", str(MAX_N_RADIAL + 1)], "error:"),
    (["compactness", "--alpha", "2", "--beta", "1", "--kind", "dilation"], "usage error:"),
    (["counterexample", "--alpha", "-1", "--beta", "2", "--which", "Ex26"], "error:"),
    (["counterexample", "--alpha", "0", "--beta", "2", "--which", "Ex28"], "error:"),
    # (1 - t)^(beta - alpha) underflowed to 0 and (1 + t)^(alpha + 1) overflowed: tracebacks;
    # the fit now reads the log form, and the report's infinite sample is the one error
    (["counterexample", "--alpha", "0.5", "--beta", "400", "--which", "Ex26"], NON_FINITE),
    (["counterexample", "--alpha", "400", "--beta", "700", "--which", "Ex27"], NON_FINITE),
    (["counterexample", "--alpha", "1e300", "--beta", "2", "--which", "Ex28", "--tmax", "0.1"], NON_FINITE),
    (["counterexample", "--alpha", "1e308", "--beta", "2", "--which", "Ex28"],
     "error: Ex28 has no finite fit at alpha=1e+308, beta=2.0: its samples are too large even as logs"),
    (["spectrum", "--N", "3", "--symbol", "nan-angle.json"], "error:"),
    (["spectrum", "--N", "3", "--symbol", "nan-beta.json"], "error:"),
    (["apply", "--beta", "0", "--f", "[0, 1" + "0" * 5000 + "]"], "error:"),
    (["apply", "--beta", "0", "--f-file", "5000-digits.json"], "error:"),
    (["spectrum", "--N", "2", "--symbol", "string-beta.json"], f"{SYMBOL_NUMBER} beta, got '0.5'"),
    (["spectrum", "--N", "2", "--symbol", "bool-beta.json"], f"{SYMBOL_NUMBER} beta, got True"),
    (["spectrum", "--N", "2", "--symbol", "bool-weight.json"], f"{SYMBOL_NUMBER} a, got True"),
    (["spectrum", "--N", "2", "--symbol", "string-angle.json"], f"{SYMBOL_NUMBER} b_angle, got '0'"),
    (["spectrum", "--N", "2", "--symbol", "400-digit-beta.json"], f"{SYMBOL_NUMBER} beta, got 10000"),
    (["spectrum", "--N", "2", "--symbol", "h-typo.json"], "error: malformed symbol file: KeyError('coeffs')"),
    # "-inf" is not a number to the parser, so --beta has no value
    (["classify", "--alpha", "2", "--beta", "-inf"], "usage error: argument --beta: expected one argument"),
    # a negative list reaches the library's check, not argparse's `expected one argument`
    (["essnorm", "--alpha", "1", "--beta", "0", "--dilations", "-0.5,0.9"],
     "error: essential_norm_probe requires dilation > 0, got -0.5"),
    # the whole line, newline included: the report encoder's message is the standard encoder's
    (["counterexample", "--alpha", "400", "--beta", "700", "--which", "Ex27", "--format", "json"],
     f"{NON_FINITE}: Out of range float values are not JSON compliant: inf\n"),
]


def _with_input_files(tmp_path, argv):
    for name, data in INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    return [str(tmp_path / a) if a in INPUT_FILES else a for a in argv]


@pytest.mark.parametrize("argv, prefix", MALFORMED_INPUT)
def test_malformed_input_is_one_line_error(capsys, tmp_path, argv, prefix):
    argv = _with_input_files(tmp_path, argv)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text, value", [("-1e-3", -0.001), ("-1E+0", -1.0), ("-.5", -0.5), ("-2", -2.0)])
def test_negative_values_in_every_float_notation_are_values(capsys, text, value):
    # argparse took "-1e-3" and "-1E+0" for options: `expected one argument`
    assert run_json(capsys, "classify", "--alpha", "2", "--beta", text)["config"]["beta"] == value


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--beta", "1", "--N", str(MAX_ORDER + 1)],
        ["compactness", "--alpha", "2", "--beta", "1", "--N", str(MAX_ORDER + 1)],
    ],
)
def test_order_above_the_cap_is_rejected_before_allocating(capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a command ran past the order cap")

    for name in ("operator_matrix", "null_family", "default_grid"):
        monkeypatch.setattr(cli, name, must_not_run)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: argument --N: N must be an integer in [1, {MAX_ORDER}], got '{MAX_ORDER + 1}'\n"


def test_order_cap_is_inclusive():
    assert cli._truncation_order(str(MAX_ORDER)) == MAX_ORDER


@pytest.mark.parametrize("m_max", ["0", "-1", "2.5", "abc", str(MAX_ORDER + 1)])
def test_family_size_outside_the_cap_is_rejected_before_allocating(capsys, monkeypatch, m_max):
    def must_not_run(*args, **kwargs):
        raise AssertionError("compactness ran past the family-size cap")

    for name in ("null_family", "default_grid"):
        monkeypatch.setattr(cli, name, must_not_run)
    code, out, err = run(capsys, "compactness", "--alpha", "2", "--beta", "1", "--m-max", m_max)
    assert code == 1
    assert out == ""
    assert err == f"usage error: argument --m-max: m_max must be an integer in [1, {MAX_ORDER}], got '{m_max}'\n"


def test_family_size_cap_is_inclusive():
    argv = ["compactness", "--alpha", "2", "--beta", "1", "--m-max", str(MAX_ORDER)]
    args = cli.build_parser().parse_args(argv)
    assert args.m_max == MAX_ORDER


def _symbol_file(tmp_path, terms, h0):
    path = tmp_path / "symbol.json"
    terms = [{"a": [a, 0], "b_angle": angle} for a, angle in terms]
    path.write_text(json.dumps({"terms": terms, "beta": 1, "h": {"coeffs": [[h0, 0]]}}))
    return str(path)


@pytest.mark.parametrize(
    "argv, symbol",
    [
        (["preimage", "--f", "[0,1e308,1e308]"], None),
        (["seminorm", "--alpha", "1", "--f", "[0,1e308,1e308]"], None),
        # the series is finite, its values on the grid overflow
        (["seminorm", "--alpha", "1", "--f", "[0" + ",1e307" * 7 + "]", "--format", "csv"], None),
        # g(0) = 0.001: psi's coefficients overflow
        (["eigenfunction", "--n", "50"], ([(1.0, 0.0)], -0.999)),
        # g(0) = 1e-15 vanishes up to REGIME_TOL: no eigenfunctions
        (["eigenfunction", "--n", "1", "--N", "4"], ([(1.0, 0.0), (-1.0, math.pi)], 1e-15)),
    ],
    ids=[
        "preimage-overflow",
        "seminorm-overflow",
        "seminorm-csv-overflow",
        "psi-overflow",
        "psi-vanishing-symbol",
    ],
)
def test_overflow_and_vanishing_symbol_are_one_line_errors(capsys, tmp_path, argv, symbol):
    if symbol:
        argv = [*argv, "--symbol", _symbol_file(tmp_path, *symbol)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def _reject_constant(name):
    raise AssertionError(f"report is not valid JSON: {name}")


def test_undefined_fit_is_null_not_infinity(capsys, tmp_path):
    # a = 1, b = 1, beta = 0, h = -1: the symbol vanishes, every image norm
    # is 0, and no exponent can be fitted
    path = tmp_path / "g0.json"
    symbol = {"terms": [{"a": [1, 0], "b_angle": 0}], "beta": 0, "h": {"coeffs": [[-1, 0]]}}
    path.write_text(json.dumps(symbol))
    code, out, err = run(capsys, "compactness", "--alpha", "2", "--symbol", str(path))
    assert code == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["result"]["fitted_exponent"] is None
    assert all(v == 0 for _, v in report["result"]["samples"])


def test_non_finite_report_is_one_line_error(capsys):
    args = argparse.Namespace(command="bound", format="json", out=None)
    with pytest.raises(DomainError, match="non-finite"):
        _emit(args, {"constant": math.inf}, None)
    assert capsys.readouterr().out == ""


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


# strings with non-ASCII, quote, backslash and control characters
_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀'),
                max_size=8)
_LEAF = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e308, -1e308, 0.1]),
    st.integers(),
    st.sampled_from([-3, 0, 2**70, -(2**70)]),
    st.booleans(),
    st.none(),
    _TEXT,
)


def _nested(depth):
    """JSON values whose containers (dicts, lists, tuples, empty ones too)
    nest at most `depth` deep."""
    if depth == 0:
        return _LEAF
    inner = _nested(depth - 1)
    return (
        _LEAF
        | st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=3)
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_nested(4))
def test_report_encoder_writes_what_json_dumps_writes(value):
    assert _json(value, "\n") == _dumps(value)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.inf)], ids=repr)
def test_report_encoder_rejects_non_finite_floats_with_the_json_message(x):
    value = {"result": {"samples": [[0.5, 1.0], [0.9, x]]}}
    with pytest.raises(ValueError) as expected:
        _dumps(value)
    with pytest.raises(ValueError) as got:
        _json(value, "\n")
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, object(), [b"x"], {1: 2}, {"a": 1, 2: 3}],
                         ids=["np-int", "set", "object", "bytes", "int-key", "mixed-keys"])
def test_report_encoder_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json(value, "\n")


@pytest.mark.parametrize(
    "shape",
    [
        {"terms": 5},
        [1, 2],
        {"terms": [], "beta": "x"},
        {"terms": [{"a": [1, 0], "b_angle": "q"}], "beta": 1},
        pytest.param(b"{not json", id="invalid-json"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'{"terms": [], "beta": 1\xff}', id="non-utf8"),
    ],
)
def test_wrong_symbol_shape_is_one_line_error(capsys, tmp_path, shape):
    path = tmp_path / "symbol.json"
    path.write_bytes(shape if isinstance(shape, bytes) else json.dumps(shape).encode())
    code, out, err = run(capsys, "spectrum", "--symbol", str(path), "--N", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


# --------------------------------------------------------------- invariants


# stdout and exit code of fixed commands, recorded once from a known-good build
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_report(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out.encode() == case["stdout"].encode()


def _golden_pairs():
    """(JSON case, CSV case) for each argv recorded in both formats."""
    by_argv = {tuple(case["argv"]): case for case in GOLDEN}
    csv_argv = [argv for argv in by_argv if argv[-2:] == ("--format", "csv")]
    return [(by_argv[(*argv[:-1], "json")], by_argv[argv]) for argv in csv_argv]


@pytest.mark.parametrize("json_case, csv_case", _golden_pairs(), ids=lambda case: " ".join(case["argv"]))
def test_csv_golden_is_the_view_of_the_json_golden_result(capsys, json_case, csv_case):
    result = json.loads(json_case["stdout"])["result"]
    _emit(argparse.Namespace(format="csv", out=None), result, cli.COMMANDS[json_case["argv"][0]].csv)
    assert capsys.readouterr().out.encode() == csv_case["stdout"].encode()


def _no_view(result):
    raise AssertionError("a JSON report built its CSV rows")


@pytest.mark.parametrize("case", [pair[0] for pair in _golden_pairs()], ids=lambda case: " ".join(case["argv"]))
def test_json_report_builds_no_csv_rows(capsys, monkeypatch, case):
    for name, command in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name, command._replace(csv=_no_view))
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out.encode() == case["stdout"].encode()


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["seminorm", "--alpha", "1", "--f", "[0,0,1]", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_embeds_config(capsys):
    report = run_json(capsys, "bound", "--alpha", "2", "--beta", "1")
    assert report["config"] == {"alpha": 2.0, "beta": 1.0, "command": "bound"}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--beta", "1"],
        ["spectrum", "--beta", "1", "--N", "3"],
        ["compactness", "--alpha", "2", "--beta", "1"],
        ["essnorm", "--alpha", "2", "--beta", "1"],
        ["seminorm", "--alpha", "1", "--f", "[0,0.5,[0,-1],0.25]"],
    ],
)
def test_default_order_env_is_ignored(capsys, monkeypatch, argv):
    # --N is the only input of the truncation order: BCL_DEFAULT_N, set to an
    # order or to garbage, changes no report and no exit status
    monkeypatch.delenv("BCL_DEFAULT_N", raising=False)
    code, unset, err = run(capsys, *argv)
    assert code in (0, 2), err
    for value in ["8", "abc"]:
        monkeypatch.setenv("BCL_DEFAULT_N", value)
        assert run(capsys, *argv) == (code, unset, err)


def _library_probe(command):
    # the reports of the probe commands at their CLI defaults, built at order 8
    p, grid, s = BlochParams(2.0), default_grid(), SymbolGBeta.beta_cesaro(1.0)
    if command == "compactness":
        fam = null_family("monomial", 3, p, grid, order=8)
        return compactness_probe(s, p, fam, grid).to_dict()
    family = default_test_family(p, grid, order=8)
    return essential_norm_probe(s, p, [0.5, 0.9, 0.99, 0.999], family, grid).to_dict()


@pytest.mark.parametrize(
    "argv",
    [
        ["compactness", "--alpha", "2", "--beta", "1", "--m-max", "3", "--N", "8"],
        ["essnorm", "--alpha", "2", "--beta", "1", "--N", "8"],
    ],
)
def test_probe_commands_take_order_flag(capsys, argv):
    _, out, err = run(capsys, *argv)
    result = json.loads(out)["result"]
    expected = json.loads(json.dumps(_library_probe(argv[0])))
    assert {k: result[k] for k in expected} == expected, err


@pytest.mark.parametrize("command", ["compactness", "essnorm"])
def test_probe_commands_reject_too_low_order(capsys, command):
    # at order 4 the family member z^2 has a zero seminorm estimate on the
    # default grid, so it cannot be normalized: a one-line error, not a traceback
    code, out, err = run(capsys, command, "--alpha", "2", "--beta", "1", "--N", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: member has zero estimated seminorm")
    assert len(err.strip().splitlines()) == 1


def test_output_written_to_file(tmp_path):
    path = tmp_path / "out.json"
    assert main(["classify", "--alpha", "2", "--beta", "1", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["schema"] == "bcl-report/1"


# --help of the program and of each command, recorded once at 80 columns
# under Python 3.11; argparse takes its width from COLUMNS
HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_help_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", HELP_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_help_text(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


# the benchmark's recorded commands, read only
CLI_REFS = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "cli_refs.json").read_text(encoding="utf-8")
)["cases"]

DISPATCH_ARGV = [
    *(case["argv"] for case in GOLDEN + HELP_GOLDEN + CLI_REFS),
    *(argv for argv, _ in MALFORMED_INPUT),
    # no command, a misspelled one, an abbreviated --help and a stray argument
    [],
    ["--help"],
    ["seminor"],
    ["classify", "--he"],
    ["classify", "--alpha", "1", "--beta", "0.5", "extra"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=lambda argv: " ".join(argv)[:80] or "no-argv")
def test_command_parser_alone_writes_what_the_top_level_parser_writes(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = _with_input_files(tmp_path, argv)
    assert run(capsys, *argv) == run_reference(capsys, *argv)


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    first = ["spectrum", "--beta", "1", "--N", "4"]
    code, report, _ = run(capsys, *first)
    assert code == 0
    code, out, err = run(capsys, "spectrum", "--beta", "1", "--N", "0")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")
    assert main(["spectrum", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: betacesaro spectrum")
    # each run takes its own order, not one from a parse that happened before
    assert len(run_json(capsys, "spectrum", "--beta", "1", "--N", "8")["result"]["eigenvalues"]) == 8
    assert len(run_json(capsys, "spectrum", "--beta", "1")["result"]["eigenvalues"]) == 256
    code, again, _ = run(capsys, *first)
    assert code == 0
    assert again.encode() == report.encode()
    assert len(calls) <= 1
