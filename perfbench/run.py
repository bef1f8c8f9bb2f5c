"""Benchmark of the betacesaro package: seeded closed-loop workloads.

    python3 perfbench/run.py --workload certify_n256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (``worker.py``) with ``PYTHONPATH`` set to the checkout's
``src``, one client, one op at a time.

--trace 0 reports the end-to-end metrics: ``setup_s`` (median over
SETUP_REPEATS + 1 fresh interpreters, from process start to the end of
warm-up), ``ops_per_s``, ``latency_p50_ms``, ``latency_p90_ms`` and
``peak_rss_mb``.  --trace 1 runs the workload's fixed op list untraced and
then traced, and reports the per-layer metrics of `tracing.METRICS`.

Human-readable lines, the failure share and the environment go to standard
output first; the last line is the JSON result.  The full record of every
run, with spans for traced runs, is written under ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("certify_n256", "probes_n1024", "coeff_n4096", "cli_mix")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds a worker may run beyond --seconds before it is stopped.
WORKER_GRACE_S = 120


class BenchError(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    """Environment of the workload processes: the checkout's sources first,
    one BLAS thread (one client, steadier timings), no CLI default
    override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("BCL_DEFAULT_N", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def environment(load: tuple, env: dict) -> dict:
    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "loadavg_at_start": list(load),
    }


def run_worker(workload: str, seed: int, mode: str, seconds: float, env: dict, spans: Path | None = None):
    """Start a worker; return (seconds from start to its ``ready`` line,
    its JSON result or None for set-up only)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if mode != "setup":
        cmd += ["--seconds", repr(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker ran past its time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    load = os.getloadavg()
    env = worker_env()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    if traced:
        _, raw = run_worker(workload, seed, "trace", seconds, env, RESULTS / f"{stem}.spans.jsonl")
        metrics = raw["metrics"]
    else:
        setups = [run_worker(workload, seed, "setup", seconds, env)[0] for _ in range(SETUP_REPEATS)]
        setup_s, raw = run_worker(workload, seed, "measure", seconds, env)
        setups.append(setup_s)
        raw["setup_samples_s"] = setups
        values = {"setup_s": statistics.median(setups), **{k: raw[k] for k in END_TO_END if k != "setup_s"}}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(load, env),
        "raw": raw,
        "metrics": metrics,
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def print_record(record: dict) -> None:
    raw = record["raw"]
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} numpy={raw['numpy']} "
        f"blas_threads={','.join(sorted(set(env['blas_threads'].values())))} commit={env['git_commit'][:12]} load={env['loadavg_at_start'][0]:.2f}"
    )
    failed_share = raw["failed"] / raw["attempted"]
    print(f"{record['workload']:14s} failed_share {failed_share:.6f} ({raw['failed']}/{raw['attempted']})")
    if "latency_samples" in raw:
        print(f"{record['workload']:14s} latency_samples {raw['latency_samples']} (of {raw['attempted']} ops)")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:14s} {name} {m['value']:.6g} {m['unit']}")
    for detail in raw["failures"]:
        print(f"{record['workload']:14s} FAILED {detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (see run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "betacesaro" / "__init__.py").is_file():
        print(f"error: no betacesaro sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_record(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["raw"]["attempted"] for r in records)
    failed = sum(r["raw"]["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
