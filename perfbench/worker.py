"""Workload process: set up, warm up, then run one workload's ops.

Started by `run.py` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``.  It prints ``ready`` once set-up and warm-up are
done (the parent times set-up up to that line), then, unless it only
measures set-up, one JSON line with the run's raw results.

Modes:
  setup    set up, warm up, print ``ready``, exit
  measure  closed loop, one op at a time, for --seconds and at least
           MIN_SUSTAINED_OPS sustained ops; per-op latency of the package
           calls only
  trace    each op of the workload's fixed op list twice, untraced and
           traced
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import workloads as w
from tracing import METRICS, OP_SPAN, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# The timing metrics are taken over the SUSTAINED_SHARE of cycles (one op
# of each kind, in order) that took longest.  On a shared host the CPU runs
# 20-40% faster in bursts lasting seconds to minutes; the share of a run
# spent in such bursts, not the program, would otherwise set the timings.
SUSTAINED_SHARE = 0.3
# p90 of the sustained ops needs ten samples beyond it
MIN_SUSTAINED_OPS = 100
# inputs of the first DIGEST_OPS ops make the run's input digest
DIGEST_OPS = 16
MAX_FAILURE_DETAILS = 5


def _check_package_source() -> None:
    if SRC.resolve() not in Path(w.bc.__file__).resolve().parents:
        raise ImportError(f"betacesaro imported from {w.bc.__file__}, not from {SRC}")


def setup(name: str, seed: int):
    """Build the context, digest the first inputs and warm up with one op of
    each kind drawn from a separate stream."""
    ctx = w.make_context(name, seed)
    digest = w.digest_inputs(ctx.workload.inputs(ctx, w.OPS_STREAM, i) for i in range(DIGEST_OPS))
    for i in range(ctx.workload.kinds):
        inputs = ctx.workload.inputs(ctx, w.WARMUP_STREAM, i)
        ctx.workload.check(ctx, inputs, ctx.workload.call(ctx, inputs))
    return ctx, digest


class Loop:
    """Runs ops in order and keeps latencies, failures and op counters."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.counts: dict[str, int] = {}

    def step(self, i: int, call=None) -> None:
        wl = self.ctx.workload
        inputs = wl.inputs(self.ctx, w.OPS_STREAM, i)
        call = call or wl.call
        t0 = time.perf_counter()
        try:
            outputs = call(self.ctx, inputs)
        except Exception as exc:  # an op that raises counts as failed
            self.latencies.append(time.perf_counter() - t0)
            self._fail(f"op {i} raised {exc!r}")
            return
        self.latencies.append(time.perf_counter() - t0)
        result = wl.check(self.ctx, inputs, outputs)
        for k, v in result.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        if not result.ok:
            self._fail(f"op {i} failed its check: {result.detail}")

    def _fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_DETAILS:
            self.failures.append(detail)

    def summary(self) -> dict:
        lat = self.latencies
        return {
            "attempted": len(lat),
            "failed": self.failed,
            "failures": self.failures,
            "latencies_ms": [round(1000 * x, 4) for x in lat],
        }


def measure(ctx, seconds: float) -> dict:
    """Closed loop for `seconds`, then on to the end of the op-kind cycle and
    until the sustained cycles hold MIN_SUSTAINED_OPS ops."""
    kinds = ctx.workload.kinds
    loop = Loop(ctx)
    start = time.perf_counter()
    i = 0
    while i % kinds or n_sustained(i // kinds) * kinds < MIN_SUSTAINED_OPS or time.perf_counter() - start < seconds:
        loop.step(i)
        i += 1
    out = loop.summary()
    out["wall_s"] = time.perf_counter() - start
    out.update(timings(loop.latencies, kinds))
    return out


def n_sustained(cycles: int) -> int:
    return max(1, round(SUSTAINED_SHARE * cycles))


def timings(latencies: list[float], kinds: int) -> dict:
    """Throughput and latency quantiles over the ops of the sustained cycles."""
    cycles = [latencies[k : k + kinds] for k in range(0, len(latencies) - kinds + 1, kinds)]
    cycles.sort(key=sum, reverse=True)
    sustained = [x for c in cycles[: n_sustained(len(cycles))] for x in c]
    return {
        "ops_per_s": len(sustained) / sum(sustained),
        "latency_p50_ms": 1000 * statistics.median(sustained),
        "latency_p90_ms": 1000 * statistics.quantiles(sustained, n=10, method="inclusive")[-1],
        "latency_samples": len(sustained),
        "timed_s": sum(latencies),
    }


def trace(ctx, n_ops: int, spans_path: Path | None = None) -> dict:
    """Run each of the first n_ops ops twice, untraced and traced, in
    alternating order, so that both passes see the same machine; return
    the per-layer metrics of the traced pass."""
    tracer = Tracer()
    plain = Loop(ctx)
    traced = Loop(ctx)

    def call(c, inputs):
        return tracer.span(OP_SPAN, ctx.workload.call, (c, inputs), {})

    def traced_step(i):
        tracer.op = i
        tracer.install()
        try:
            traced.step(i, call)
        finally:
            tracer.remove()

    for i in range(n_ops):
        # alternate which pass goes first, so that neither always runs warm
        if i % 2 == 0:
            plain.step(i)
            traced_step(i)
        else:
            traced_step(i)
            plain.step(i)

    self_s = tracer.self_seconds()
    metrics = {}
    for name, unit in METRICS.items():
        layer, _, what = name.rpartition(".")
        if what == "calls":
            value = tracer.calls[layer]
        elif what == "self_ms":
            value = 1000 * self_s[layer] / n_ops
        elif what == "repeat_share":
            value = tracer.repeats[layer] / tracer.calls[layer] if tracer.calls[layer] else 0.0
        else:
            value = tracer.counts.get(name, traced.counts.get(name, 0))
        metrics[name] = value
    evaluated = tracer.counts["bloch.points_evaluated"]
    metrics["bloch.excluded_share"] = tracer.counts["bloch.points_excluded"] / evaluated if evaluated else 0.0
    metrics["trace.overhead_share"] = sum(traced.latencies) / sum(plain.latencies) - 1.0
    if spans_path is not None:
        tracer.write_spans(spans_path)

    digest = w.digest_inputs(ctx.workload.inputs(ctx, w.OPS_STREAM, i) for i in range(n_ops))
    return {
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
        "trace_ops": n_ops,
        "trace_digest": digest,
        "metrics": {k: {"value": v, "unit": METRICS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    _check_package_source()
    ctx, digest = setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        out = measure(ctx, args.seconds)
    else:
        out = trace(ctx, ctx.workload.trace_ops, Path(args.spans) if args.spans else None)
    out["digest"] = digest
    out["numpy"] = numpy.__version__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
