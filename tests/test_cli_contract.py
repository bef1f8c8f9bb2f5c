"""The exit-status contract of the CLI, as a property: a run exits 0 or 2 with
a report, or exits 1 with exactly one line on stderr, and never ends in a
traceback.  Every argv is drawn from a command's own argument table in
`cli.COMMANDS`, so a new command or option is covered with no new test code;
every run is in-process, through `cli.main`."""
import contextlib
import io
import json
from pathlib import PurePosixPath

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from betacesaro import cli
from betacesaro.cli import COMMANDS, EXIT_OK, EXIT_USAGE, EXIT_VERDICT, SCHEMA, _finite_float, _float_list, main


def _mostly(valid, invalid):
    """A value of valid nine times in ten, otherwise one of invalid."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 5 else valid)


# Option values.  Floats reach the extremes half the time, where the
# arithmetic underflows or overflows; integers stay small, since a valid
# large order or grid costs seconds, not an escape.
_EXTREME = st.sampled_from(["400", "700", "1e300", "1e308"])
_FLOATS = _mostly(
    st.one_of(_EXTREME, _EXTREME, st.sampled_from(["0.5", "0.9999", "1", "1.5", "2", "-1e-3", "5e-324"]),
              st.floats(0.0, 5.0).map(repr)),
    st.sampled_from(["nan", "inf", "-inf", "abc", "", "1" + "0" * 400]),
)
_INTS = _mostly(
    st.integers(1, 16).map(str),
    st.sampled_from(["0", "-1", "2.5", "1025", "abc", "", "1" + "0" * 400, "1" + "0" * 5000]),
)

# JSON numbers, and leaves of the wrong type: booleans, nulls, strings, an
# integer no float holds, NaN (which Python's json reads and writes)
_NUMBER = st.sampled_from([0, 1, 0.5, 2, 400, 1e308, -1e308, 5e-324]) | st.floats(-5.0, 5.0)
_LEAF = _mostly(_NUMBER, st.sampled_from([True, None, "0.5", [], {}, 10**400, float("nan")]))
_PAIR = _mostly(st.lists(_LEAF, min_size=2, max_size=2), st.lists(_LEAF, max_size=3))
_ANY_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["terms", "a", "b_angle", "beta", "h", "coeffs", "coefs"]), inner, max_size=3
    ),
    max_leaves=8,
)
_COEFFS = st.lists(_PAIR | _LEAF, min_size=1, max_size=6)
_SERIES = _mostly(_COEFFS | st.fixed_dictionaries({"coeffs": _COEFFS}), _ANY_JSON)
_TERM = st.fixed_dictionaries({"a": _PAIR, "b_angle": _LEAF})
_SYMBOL = _mostly(
    st.fixed_dictionaries(
        {"terms": st.lists(_TERM, max_size=3), "beta": _LEAF},
        optional={"h": st.fixed_dictionaries({"coeffs": _COEFFS})},
    ),
    # missing and misspelled keys, wrong types
    _ANY_JSON,
)
# bytes that are no JSON at all
_NOT_JSON = st.sampled_from([b"", b"{not json", b"[0, 1\xff]", b"[" * 1000])


def _as_file(values):
    return _mostly(values.map(lambda v: json.dumps(v).encode()), _NOT_JSON)


def _values(flags, kwargs):
    """The strategy of the text after an option, from its table entry: bytes
    stand for a file holding them, a PurePosixPath for a path in the run's
    directory."""
    name = flags[0]
    if "choices" in kwargs:
        return _mostly(st.sampled_from(list(kwargs["choices"])), st.sampled_from(["Ex99", ""]))
    if name in ("--symbol", "--f-file"):
        return _as_file(_SYMBOL if name == "--symbol" else _SERIES)
    if name == "--f":
        return _as_file(_SERIES).map(lambda data: data.decode("utf-8", "replace"))
    if name == "--out":
        return _mostly(st.just(PurePosixPath("out.txt")), st.just(PurePosixPath("missing/out.txt")))
    if kwargs.get("type") is _finite_float:
        return _FLOATS
    if kwargs.get("type") is _float_list:
        return st.lists(_FLOATS, min_size=1, max_size=4).map(",".join)
    return _INTS


# command -> (flags, required, value strategy) of each of its options
_OPTIONS = {
    name: [(flags, bool(kwargs.get("required")), _values(flags, kwargs)) for flags, kwargs in command.arguments]
    for name, command in COMMANDS.items()
}


@st.composite
def argvs(draw):
    """A command and its options, each option a (flag, value) pair."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = []
    for flags, required, values in _OPTIONS[command]:
        # a required option is left out now and then, an optional one often
        if draw(st.integers(0, 9)) < (9 if required else 5):
            options.append((flags[0], draw(values)))
    return command, draw(st.permutations(options))


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    # at the default order of 256 a `matrix` report has 65,536 entries and
    # takes a tenth of a second; the contract does not depend on the order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "DEFAULT_ORDER", 16)
        yield tmp_path_factory.mktemp("contract")


def _text(root, flag, value) -> str:
    """The argv text of a drawn value; a file's bytes are written first."""
    if isinstance(value, bytes):
        path = root / f"{flag.strip('-')}.json"
        path.write_bytes(value)
        return str(path)
    return str(root / value) if isinstance(value, PurePosixPath) else value


# Each example rewrites the files it names, so no example reads another's.
@settings(
    max_examples=500,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(drawn=argvs())
def test_every_run_exits_with_a_report_or_one_error_line(root, drawn):
    command, options = drawn
    argv = [command, *(text for flag, value in options for text in (flag, _text(root, flag, value)))]
    out_path = root / "out.txt"
    out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        return
    assert code in (EXIT_OK, EXIT_VERDICT)
    assert err.getvalue() == ""
    flags = dict(options)
    if "--out" in flags:
        assert out.getvalue() == ""
        report = out_path.read_text()
    else:
        report = out.getvalue()
    if flags.get("--format") == "csv":
        assert report
    else:
        assert json.loads(report)["schema"] == SCHEMA
