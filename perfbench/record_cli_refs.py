"""Record the reference reports that `cli_mix` checks every op against.

    PYTHONPATH=src python3 perfbench/record_cli_refs.py

Builds a fixed pool of argument lists for the README commands (classify,
bound, counterexample, apply, spectrum, seminorm, preimage, eigenfunction),
runs each in process through `betacesaro.cli.main`, and writes the argv,
exit status and parsed report of every case to `cli_refs.json`.  The pool
comes from its own fixed seed, not from the workload seed, so the
references stay valid for every run.  Re-record only when a report is meant
to change.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

from workloads import CLI_REFS, run_cli

POOL_SEED = 18080844
CASES_PER_COMMAND = 12


def _coeffs(rng, degree: int) -> str:
    """Inline coefficient list [0, c1, ..., c_degree] as [re, im] pairs."""
    pairs = [[0.0, 0.0]] + [
        [round(float(x), 4), round(float(y), 4)] for x, y in rng.uniform(-1, 1, (degree, 2))
    ]
    return json.dumps(pairs)


def _num(x: float) -> str:
    return repr(round(float(x), 4))


def _bounded_pair(rng):
    regime = int(rng.integers(3))
    if regime == 0:
        alpha = rng.uniform(0.2, 0.9)
        return alpha, rng.uniform(0.0, alpha)
    if regime == 1:
        return rng.uniform(1.2, 3.0), rng.uniform(0.0, 1.0)
    return 1.0, rng.uniform(0.0, 0.95)


def _case(command: str, rng) -> list[str]:
    if command == "classify":
        alpha = rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 3.0)])
        beta = rng.choice([alpha, 1.0, rng.uniform(-0.5, 3.5)])
        return [command, "--alpha", _num(alpha), "--beta", _num(beta)]
    if command == "bound":
        alpha, beta = _bounded_pair(rng)
        return [command, "--alpha", _num(alpha), "--beta", _num(beta)]
    if command == "counterexample":
        which = ("Ex26", "Ex27", "Ex28")[int(rng.integers(3))]
        if which == "Ex26":
            alpha = rng.uniform(0.2, 2.0)
            beta = alpha + rng.uniform(0.2, 1.0)
        elif which == "Ex27":
            alpha = rng.uniform(1.0, 2.0)
            beta = alpha + rng.uniform(0.0, 1.0)
        else:
            alpha = rng.uniform(0.2, 2.0)
            beta = rng.uniform(1.2, 2.5)
        return [command, "--alpha", _num(alpha), "--beta", _num(beta), "--which", which]
    if command == "apply":
        return [command, "--beta", _num(rng.uniform(0.0, 2.0)), "--f", _coeffs(rng, int(rng.integers(1, 9)))]
    if command == "spectrum":
        return [command, "--beta", _num(rng.uniform(0.0, 2.0)), "--N", str(int(rng.integers(2, 17)))]
    if command == "seminorm":
        return [command, "--alpha", _num(rng.choice([0.5, 1.0, 2.0])), "--f", _coeffs(rng, int(rng.integers(1, 9)))]
    if command == "preimage":
        return [command, "--f", _coeffs(rng, int(rng.integers(1, 9)))]
    if command == "eigenfunction":
        return [command, "--beta", _num(rng.uniform(0.0, 1.0)), "--n", str(int(rng.integers(1, 5))), "--N", "16"]
    raise ValueError(command)


COMMANDS = ("classify", "bound", "counterexample", "apply", "spectrum", "seminorm", "preimage", "eigenfunction")


def cases() -> list[list[str]]:
    rng = np.random.default_rng(POOL_SEED)
    return [_case(command, rng) for command in COMMANDS for _ in range(CASES_PER_COMMAND)]


def main() -> int:
    os.environ.pop("BCL_DEFAULT_N", None)
    out = []
    for argv in cases():
        code, text = run_cli(argv)
        if code != 0:
            print(f"case {argv} exited {code}", file=sys.stderr)
            return 1
        out.append({"argv": argv, "exit": code, "report": json.loads(text)})
    with open(CLI_REFS, "w") as fh:
        json.dump({"pool_seed": POOL_SEED, "cases": out}, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} cases to {CLI_REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
