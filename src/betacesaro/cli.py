"""Command-line front end; every command writes a JSON or CSV report.

Reports are deterministic (identical config gives byte-identical output),
versioned with the schema tag ``bcl-report/1``, and embed the config that
produced them.  Exit status: 0 success, 1 usage or domain error, 2 when a
probe verdict fails its expected check.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bloch import DEFAULT_N_ANGULAR, DEFAULT_N_RADIAL, DEFAULT_R_MAX
from .bloch import BlochParams, default_grid, seminorm_estimate
from .bounds import WITNESSES, bound_constant, classify, counterexample_probe, default_probe_ts
from .compactness import (
    compactness_probe,
    default_test_family,
    essential_norm_probe,
    null_family,
)
from .errors import DomainError
from .operators import (
    SymbolGBeta,
    apply_beta_cesaro,
    apply_generalized,
    eigenfunction_psi,
    operator_matrix,
    preimage_under_cesaro,
    symbol_spectrum,
)
from .series import _TAIL_WINDOW, DEFAULT_ORDER, PowerSeries, _pairs

SCHEMA = "bcl-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2


# argparse's own pattern reads only -\d+ and -\d*\.\d+ as negative numbers,
# which makes `-1e-3` an option; any "-" followed by a digit or ".digit" is a value
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # usage errors exit 1, not argparse's 2, and --help returns 0 from main
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        raise _ParserExit(status)


class _UsageError(Exception):
    pass


class _ParserExit(Exception):
    pass


def _finite_float(text: str) -> float:
    """The argparse type of every float option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value: {text!r}")
    return value


def _float_list(text: str) -> str:
    """The argparse type of comma-separated float lists; the text is kept as
    given so that the report config echoes it."""
    for item in text.split(","):
        _finite_float(item)
    return text


# The largest --N and --m-max.  `matrix` costs the most at a given order,
# about 360 B per entry of its N x N JSON report: in-process, 390 MiB peak
# RSS and 3.8-4.7 s at this cap on a 2-core Xeon, and about 6 GB at
# N = 4096 (its CSV report: 292 MiB and 1.3-1.6 s).  `compactness` stores
# member m of its family at order max(N, 2m), about 16 m_max^2 bytes in all:
# in-process, `--m-max 1024 --N 1024` takes 0.6-0.7 s and peaks at 64 MB RSS.
MAX_ORDER = 1024


def _up_to_max_order(name: str) -> Callable[[str], int]:
    """The argparse type of an option taking an integer in [1, MAX_ORDER]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if not 1 <= value <= MAX_ORDER:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer in [1, {MAX_ORDER}], got {text!r}"
            )
        return value

    return parse


_truncation_order = _up_to_max_order("N")


def _order(args) -> int:
    return DEFAULT_ORDER if args.order is None else args.order


def _series_from_args(args) -> PowerSeries:
    if not (args.f_file or args.f):
        raise _UsageError("missing series input --f or --f-file")
    try:
        data = json.loads(Path(args.f_file).read_text("utf-8") if args.f_file else args.f)
    except (ValueError, RecursionError) as exc:  # ValueError: bad UTF-8, bad JSON, too many digits
        raise DomainError(f"malformed series: {exc}") from None
    if args.f_file and isinstance(data, dict):
        data = data.get("coeffs")  # a series file may be {"coeffs": [...]}
    return PowerSeries.from_pairs(data)


def _symbol_from_args(args) -> SymbolGBeta:
    if args.symbol:
        try:
            return SymbolGBeta.from_json(Path(args.symbol).read_text("utf-8"))
        except UnicodeDecodeError as exc:
            raise DomainError(f"malformed symbol file: {exc}") from None
    if args.beta is not None:
        return SymbolGBeta.beta_cesaro(args.beta)
    raise _UsageError("missing --symbol or --beta")


def _grid_from_args(args):
    return default_grid(args.grid_radial, args.grid_angular, args.rmax)


def _config_of(args) -> dict:
    skip = {"command", "out", "format", "f_file"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    cfg["command"] = args.command
    return cfg


def _json(value, indent: str) -> str:
    """`value` as JSON text, byte for byte what the standard library's
    encoder writes with sort_keys=True, indent=2 and allow_nan=False, in
    about two thirds of its time: given an indent, that encoder runs in pure
    Python.  `indent` is the newline and spaces before the closing bracket
    of `value`.  Dict keys must be strings.  The standard encoder tests a
    value for str, None, True, False, int and float before list and dict; no
    value is both a float and one of those, so testing the commonest first
    writes the same text."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a string fails the sort or the escape with a TypeError
        items = [encode_basestring_ascii(k) + ": " + _json(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, result: dict, csv_view) -> None:
    if args.format == "csv":
        header, rows = csv_view(result)
        if not all(math.isfinite(v) for row in rows for v in row if isinstance(v, float)):
            raise DomainError("report holds a non-finite number")
        buf = io.StringIO()
        writer = csv.writer(buf)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        report = {"schema": SCHEMA, "config": _config_of(args), "result": result}
        try:
            text = _json(report, "\n") + "\n"
        except ValueError as exc:
            raise DomainError(f"report holds a non-finite number: {exc}") from None
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ----------------------------------------------------------------


def _seminorm(args):
    f = _series_from_args(args)
    # pad polynomials so trailing zeros mark them tail-free on the grid
    f = f.truncate(f.order + _TAIL_WINDOW)
    return seminorm_estimate(f, BlochParams(args.alpha), _grid_from_args(args)).to_dict(), EXIT_OK


def _apply(args):
    f = _series_from_args(args)
    if args.order is not None:
        f = f.truncate(args.order)
    return apply_generalized(f, _symbol_from_args(args)).to_dict(), EXIT_OK


def _matrix(args):
    m = operator_matrix(_symbol_from_args(args), _order(args))
    return {"size": m.size, "entries": _pairs(m.entries)}, EXIT_OK


def _spectrum(args):
    return {"eigenvalues": _pairs(symbol_spectrum(_symbol_from_args(args), _order(args)))}, EXIT_OK


def _eigenfunction(args):
    return eigenfunction_psi(_symbol_from_args(args), args.n, _order(args)).to_dict(), EXIT_OK


def _classify(args):
    return classify(args.alpha, args.beta).to_dict(), EXIT_OK


def _bound(args):
    return {"constant": bound_constant(args.alpha, args.beta)}, EXIT_OK


def _counterexample(args):
    report = counterexample_probe(args.alpha, args.beta, args.which, default_probe_ts(args.tmax))
    return report.to_dict(), EXIT_OK if report.verdict == "diverges" else EXIT_VERDICT


def _compactness(args):
    p = BlochParams(args.alpha)
    grid = _grid_from_args(args)
    fam = null_family("monomial", args.m_max, p, grid, order=_order(args))
    report = compactness_probe(_symbol_from_args(args), p, fam, grid)
    return report.to_dict(), EXIT_OK if report.verdict == "compact-consistent" else EXIT_VERDICT


def _essnorm(args):
    p = BlochParams(args.alpha)
    grid = _grid_from_args(args)
    dilations = [float(t) for t in args.dilations.split(",")]
    family = default_test_family(p, grid, order=_order(args))
    report = essential_norm_probe(_symbol_from_args(args), p, dilations, family, grid)
    result = report.to_dict()
    result["per_dilation"] = [
        {"dilation": d, "max_distance": v, "argmax_member": lab}
        for (d, v), lab in zip(report.samples, report.labels)
    ]
    return result, EXIT_OK if report.verdict == "essential-norm-zero-consistent" else EXIT_VERDICT


def _preimage(args):
    g = _series_from_args(args)
    f = preimage_under_cesaro(g)
    roundtrip = apply_beta_cesaro(f, 1.0)
    n = min(g.order, roundtrip.order)
    err = float(np.max(np.abs(roundtrip.coeffs[: n + 1] - g.coeffs[: n + 1])))
    return {**f.to_dict(), "roundtrip_max_error": err}, EXIT_OK if err <= 1e-10 else EXIT_VERDICT


# CSV views: each reads its command's table from the command's JSON result
def _series_csv(result):
    return ["n", "re", "im"], [[n, *c] for n, c in enumerate(result["coeffs"])]


def _seminorm_csv(result):
    row = [result["value"], *result["argmax"], result["max_tail"]]
    return ["value", "argmax_re", "argmax_im", "max_tail"], [row]


def _matrix_csv(result):
    entries = result["entries"]
    return None, [[f"{re!r}" if im == 0 else f"{re!r}{im:+}j" for re, im in row] for row in entries]


def _fields_csv(*fields):
    return lambda result: (list(fields), [[result[f] for f in fields]])


def _rows_csv(field, *header):
    """The view whose rows are the result's `field`, a list of rows."""
    return lambda result: (list(header), result[field])


# -- command table -----------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


_OUTPUT = (
    _arg("--out", help="output path (default stdout)"),
    _arg("--format", choices=["json", "csv"], default="json"),
)
_GRID = (
    _arg("--grid-radial", type=int, default=DEFAULT_N_RADIAL),
    _arg("--grid-angular", type=int, default=DEFAULT_N_ANGULAR),
    _arg("--rmax", type=_finite_float, default=DEFAULT_R_MAX),
)
_SYMBOL = (
    _arg("--symbol", help="symbol JSON file"),
    _arg("--beta", type=_finite_float),
)
_SERIES = (
    _arg("--f", help="inline JSON coefficient list"),
    _arg("--f-file"),
)
_ORDER = _arg("--N", dest="order", type=_truncation_order)
_ALPHA = _arg("--alpha", type=_finite_float, required=True)
_BETA = _arg("--beta", type=_finite_float, required=True)
_WHICH = _arg("--which", choices=WITNESSES, required=True)
_TMAX = _arg("--tmax", type=_finite_float, default=0.9999)
_M_MAX = _arg("--m-max", dest="m_max", type=_up_to_max_order("m_max"), default=32)
_DILATIONS = _arg(
    "--dilations", type=_float_list, default="0.5,0.9,0.99,0.999", help="comma-separated, increasing"
)


class _Command(NamedTuple):
    help: str
    arguments: tuple
    run: Callable  # args -> (result, exit status)
    csv: Callable  # result -> (csv header or None, csv rows)


COMMANDS = {
    "seminorm": _Command(
        "estimate the weighted-derivative seminorm",
        (_ALPHA, *_OUTPUT, *_GRID, *_SERIES),
        _seminorm,
        _seminorm_csv,
    ),
    "apply": _Command(
        "apply the operator to a series", (*_OUTPUT, *_SYMBOL, *_SERIES, _ORDER), _apply, _series_csv
    ),
    "matrix": _Command(
        "coefficient matrix of the operator", (*_OUTPUT, *_SYMBOL, _ORDER), _matrix, _matrix_csv
    ),
    "spectrum": _Command(
        "eigenvalues of the truncated matrix",
        (*_OUTPUT, *_SYMBOL, _ORDER),
        _spectrum,
        _rows_csv("eigenvalues", "re", "im"),
    ),
    "eigenfunction": _Command(
        "candidate eigenfunction factor",
        (_arg("--n", type=int, required=True), *_OUTPUT, *_SYMBOL, _ORDER),
        _eigenfunction,
        _series_csv,
    ),
    "classify": _Command(
        "bounded/unbounded/compact verdict",
        (_ALPHA, _BETA, *_OUTPUT),
        _classify,
        _fields_csv("verdict", "source"),
    ),
    "bound": _Command(
        "certified operator-norm constant", (_ALPHA, _BETA, *_OUTPUT), _bound, _fields_csv("constant")
    ),
    "counterexample": _Command(
        "divergence probe along (0, 1)",
        (_ALPHA, _BETA, _WHICH, _TMAX, *_OUTPUT),
        _counterexample,
        _rows_csv("samples", "t", "value"),
    ),
    "compactness": _Command(
        "null-family image-norm decay probe",
        (_ALPHA, _M_MAX, *_OUTPUT, *_GRID, *_SYMBOL, _ORDER),
        _compactness,
        _rows_csv("samples", "m", "image_norm"),
    ),
    "essnorm": _Command(
        "distance to dilation approximants",
        (_ALPHA, _DILATIONS, *_OUTPUT, *_GRID, *_SYMBOL, _ORDER),
        _essnorm,
        _rows_csv("samples", "dilation", "max_distance"),
    ),
    "preimage": _Command(
        "explicit preimage under the Cesaro operator", (*_OUTPUT, *_SERIES), _preimage, _series_csv
    ),
}


def build_parser() -> _Parser:
    """The top-level parser; its `commands` maps each command name to the
    subparser that reads the rest of that command's line."""
    parser = _Parser(prog="betacesaro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, command in COMMANDS.items():
        sp = parser.commands[name] = sub.add_parser(name, help=command.help)
        for flags, kwargs in command.arguments:
            sp.add_argument(*flags, **kwargs)
    return parser


# built on the first call of main and reused: parsing never changes a parser
_parser: _Parser | None = None


def _parse(argv: list) -> argparse.Namespace:
    # a command line goes to its command's parser alone, which writes the same
    # help, errors and namespace as the top-level parser passing it on; the
    # top-level parser reads only a line that names no command
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        return _parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        # an overflow becomes inf or nan, which PowerSeries and _emit reject
        # with one line; numpy's warning would add lines before it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            command = COMMANDS[args.command]
            result, code = command.run(args)
            _emit(args, result, command.csv)
        return code
    except _ParserExit as exc:
        return exc.args[0]
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
