"""Span recorder for the traced run.

`Tracer.install` replaces each traced package function with a wrapper at
every module attribute the function object is bound to (``from .series
import eval_on_points`` binds it in several modules), so calls between
modules are seen as well as calls from the benchmark.  `Tracer.remove`
puts the originals back.  Both are cheap, so a run can switch tracing on
and off between ops.

A span is ``(id, parent, name, t0, t1, op)``; spans are kept in memory and
written out by `write_spans` when the run ends.  A layer's self time is its
span time minus the time of its direct child spans.  Counts computed from
array sizes are kept next to the spans, in `Tracer.counts`.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import betacesaro
from betacesaro import bloch, bounds, cli, compactness, operators, series

MODULES = (betacesaro, series, bloch, operators, bounds, compactness, cli)

OP_SPAN = "op"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _eval_on_points(tr, args, kwargs, out):
    f = _arg(args, kwargs, 0, "f")
    tr.counts["series.eval_on_points.points"] += out.size
    tr.counts["series.eval_on_points.madds"] += out.size * f.order
    if tr.parent_name() == "bloch.seminorm_estimate":
        tr.counts["bloch.points_evaluated"] += out.size


def _ps_mul(tr, args, kwargs, out):
    # np.convolve forms the full product of two (n+1)-term arrays
    tr.counts["series.ps_mul.madds"] += (out.order + 1) ** 2


def _seminorm_estimate(tr, args, kwargs, out):
    tr.counts["bloch.points_excluded"] += out.n_excluded


def _symbol_series(tr, args, kwargs, out):
    s = _arg(args, kwargs, 0, "s")
    order = _arg(args, kwargs, 1, "order")
    tr.repeat("operators.symbol_series", (s.terms, s.beta, s.h.coeffs.tobytes(), order))


def _operator_matrix(tr, args, kwargs, out):
    tr.counts["operators.operator_matrix.bytes"] += out.entries.nbytes


def _bound_constant(tr, args, kwargs, out):
    tr.repeat("bounds.bound_constant", (_arg(args, kwargs, 0, "alpha"), _arg(args, kwargs, 1, "beta")))


# (module, function, hook) for every traced public function.
TARGETS = (
    (series, "eval_on_points", _eval_on_points),
    (series, "ps_mul", _ps_mul),
    (series, "binomial_series", None),
    (series, "ps_exp", None),
    (bloch, "seminorm_estimate", _seminorm_estimate),
    (bloch, "growth_check", None),
    (operators, "apply_generalized", None),
    (operators, "compact_approximant", None),
    (operators, "symbol_series", _symbol_series),
    (operators, "operator_matrix", _operator_matrix),
    (operators, "truncated_spectrum", None),
    (operators, "eigenfunction_psi", None),
    (bounds, "bound_constant", _bound_constant),
    (bounds, "counterexample_probe", None),
    (bounds, "classify", None),
    (compactness, "null_family", None),
    (compactness, "default_test_family", None),
    (compactness, "compactness_probe", None),
    (compactness, "essential_norm_probe", None),
    (cli, "main", None),
    (cli, "build_parser", None),
)


def span_name(module, fn_name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{fn_name}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.names: list[str] = []
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self.repeats = defaultdict(int)
        self.op = -1
        # (module, attribute, original, wrapper) for every binding of a target
        self._patches = []
        for module, fn_name, hook in TARGETS:
            original = getattr(module, fn_name)
            wrapper = self._wrap(span_name(module, fn_name), original, hook)
            for m in MODULES:
                self._patches += [(m, attr, original, wrapper) for attr, value in vars(m).items() if value is original]

    # -- recording -----------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def repeat(self, name: str, key) -> None:
        if key in self.seen[name]:
            self.repeats[name] += 1
        else:
            self.seen[name].add(key)

    def span(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.names.append(name)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, name, t0, t1, self.op)

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            out = self.span(name, fn, args, kwargs)
            self.calls[name] += 1
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def remove(self) -> None:
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _, name, t0, t1, _ in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1, "op": op}))
                fh.write("\n")


# Per-layer metrics: name -> unit.  Counts repeat exactly for a seed; times
# (self_ms, per workload op) and trace.overhead_share do not.
METRICS = {
    **{
        f"{span_name(m, fn)}.{what}": unit
        for m, fn, _ in TARGETS
        for what, unit in (("calls", "count"), ("self_ms", "ms"))
    },
    "series.eval_on_points.points": "count",
    "series.eval_on_points.madds": "count",
    "series.ps_mul.madds": "count",
    "bloch.points_evaluated": "count",
    "bloch.points_excluded": "count",
    "bloch.excluded_share": "share",
    "operators.symbol_series.repeat_share": "share",
    "operators.operator_matrix.bytes": "bytes",
    "bounds.bound_constant.repeat_share": "share",
    "compactness.verdict_mismatch": "count",
    "cli.report_bytes": "bytes",
    "trace.overhead_share": "share",
}
