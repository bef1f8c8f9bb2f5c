"""Smoke tests of the benchmark itself: seeding, tracing and the result line.

    python3 -m pytest perfbench -q

Each workload runs only a few ops here, so the whole file takes seconds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import betacesaro  # noqa: E402
import record_cli_refs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS, TARGETS  # noqa: E402

EXACT_UNITS = ("count", "bytes")


def smoke_trace(name, seed):
    """Traced run of one op of each kind."""
    ctx = workloads.make_context(name, seed)
    return worker.trace(ctx, ctx.workload.kinds)


def exact_counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS}


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs_and_counts(name):
    a = smoke_trace(name, 3)
    b = smoke_trace(name, 3)
    assert a["failed"] == 0, a["failures"]
    assert a["trace_digest"] == b["trace_digest"]
    assert exact_counts(a) == exact_counts(b)
    assert set(a["metrics"]) == set(METRICS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_different_seed_changes_inputs(name):
    digests = set()
    for seed in (3, 4):
        ctx = workloads.make_context(name, seed)
        digests.add(workloads.digest_inputs(ctx.workload.inputs(ctx, workloads.OPS_STREAM, i) for i in range(8)))
    assert len(digests) == 2


def test_tracer_restores_package_functions():
    smoke_trace("certify_n256", 1)
    for module, fn_name, _ in TARGETS:
        assert not hasattr(getattr(module, fn_name), "__wrapped__")
    assert not hasattr(betacesaro.seminorm_estimate, "__wrapped__")


def test_cli_refs_match_recorded_pool():
    refs = workloads.load_cli_refs()
    assert [c["argv"] for c in refs] == record_cli_refs.cases()


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_mix", "--seed", "5", "--seconds", "0.2", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_SUSTAINED_OPS / worker.SUSTAINED_SHARE
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
