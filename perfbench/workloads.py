"""Seeded workloads: input generation, the timed op, and its correctness check.

Every op draws its inputs from ``numpy.random.default_rng([seed, stream, i])``
so op ``i`` of a seed is the same whatever ran before it, and the loop can
stop at any point without changing earlier inputs.  The op kind is
``i % Workload.kinds`` so that every run, whatever its seed, has the same
mix of op kinds; only the parameters inside each kind are random.

Package functions are always reached through module attributes at call
time (``bc.seminorm_estimate``, ``cli.main``) so that the traced run's
wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import betacesaro as bc
from betacesaro import cli

OPS_STREAM = 0
WARMUP_STREAM = 1

CLI_REFS = Path(__file__).with_name("cli_refs.json")


@dataclass
class OpResult:
    """What an op hands to its check, plus exact counters for the trace."""

    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)


def rng_for(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def random_poly(rng, degree: int, pad: int) -> bc.PowerSeries:
    """Degree-`degree` polynomial with coefficients in the unit bidisk,
    zero at the origin, zero-padded to order `pad` (tail-free on the grid)."""
    c = rng.uniform(-1.0, 1.0, (degree + 1, 2)) @ np.array([1.0, 1.0j])
    c[0] = 0.0
    return bc.PowerSeries(c).truncate(max(pad, degree))


def random_symbol(rng, beta: float) -> bc.SymbolGBeta:
    """Two terms a_j (1 - b_j w)^(-beta) with well-separated b_j, plus a
    degree-4 bounded part h."""
    while True:
        angles = rng.uniform(0.0, 2.0 * math.pi, 2)
        if abs(angles[0] - angles[1]) > 1e-3:
            break
    terms = tuple(
        (complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)), complex(math.cos(t), math.sin(t)))
        for t in angles
    )
    h = bc.PowerSeries(rng.uniform(-0.5, 0.5, (5, 2)) @ np.array([1.0, 1.0j]))
    return bc.SymbolGBeta(terms=terms, beta=float(beta), h=h)


def digest_inputs(parts) -> str:
    """Stable digest of a sequence of op inputs (arrays, numbers, strings)."""
    h = hashlib.sha256()
    for part in parts:
        for x in part:
            if isinstance(x, bc.PowerSeries):
                h.update(x.coeffs.tobytes())
            elif isinstance(x, bc.SymbolGBeta):
                h.update(repr((x.terms, x.beta)).encode())
                h.update(x.h.coeffs.tobytes())
            else:
                h.update(repr(x).encode())
            h.update(b"|")
    return h.hexdigest()


# -- certify_n256 --------------------------------------------------------------

CERTIFY_ORDER = 256
CERTIFY_DEGREE = 64
CERTIFY_SLACK = 1e-6


def certify_inputs(ctx, stream: int, i: int):
    """One bounded (alpha, beta) regime per op, cycling through the three
    certified regimes of `bound_constant`.

    The op certifies seminorm(C_beta f) <= bound_constant * seminorm(f) + 1e-6
    (acceptance criteria 01 and 04) and runs `growth_check` on the padded f
    (criterion 06).  `growth_check` on the image C_beta f is not part of the
    op: at alpha = 1 it fails for about one op in 200 at the parent commit,
    because the tail heuristic does not cover the image's slowly decaying
    coefficients (see RATIONALE.md).
    """
    rng = rng_for(ctx.seed, stream, i)
    regime = i % 3
    if regime == 0:  # beta <= alpha < 1
        alpha = float(rng.uniform(0.2, 0.9))
        beta = float(rng.uniform(0.0, alpha))
    elif regime == 1:  # beta <= 1 < alpha
        alpha = float(rng.uniform(1.2, 3.0))
        beta = float(rng.uniform(0.0, 1.0))
    else:  # beta < alpha = 1
        alpha = 1.0
        beta = float(rng.uniform(0.0, 0.95))
    f = random_poly(rng, CERTIFY_DEGREE, CERTIFY_ORDER)
    return (alpha, beta, f)


def certify_call(ctx, inputs):
    alpha, beta, f = inputs
    p = bc.BlochParams(alpha)
    constant = bc.bound_constant(alpha, beta)
    s_f = bc.seminorm_estimate(f, p, ctx.grid).value
    image = bc.apply_beta_cesaro(f, beta)
    s_img = bc.seminorm_estimate(image, p, ctx.grid).value
    return constant, s_f, s_img, bc.growth_check(f, p, ctx.grid)


def certify_check(ctx, inputs, outputs) -> OpResult:
    alpha, beta, _ = inputs
    constant, s_f, s_img, growth = outputs
    slack = s_img - constant * s_f
    ok = math.isfinite(slack) and slack <= CERTIFY_SLACK and growth.passed
    return OpResult(ok, f"alpha={alpha} beta={beta} slack={slack:.3e} growth={growth.passed}")


# -- probes_n1024 --------------------------------------------------------------

PROBE_ORDER = 1024
PROBE_FAMILY_SIZE = 2
PROBE_TEST_FAMILY_M = 1
PROBE_ALPHAS = (0.5, 1.0, 2.0)


def probe_inputs(ctx, stream: int, i: int):
    """A generalized symbol with beta drawn across all regimes, including the
    boundaries beta = alpha and beta = 1; the op kind cycles through the
    monomial family, the dilation family and the essential-norm probe."""
    rng = rng_for(ctx.seed, stream, i)
    kind = ("monomial", "dilation", "essnorm")[i % 3]
    alpha = float(PROBE_ALPHAS[rng.integers(len(PROBE_ALPHAS))])
    u = rng.uniform()
    if u < 0.2:
        beta = alpha
    elif u < 0.3:
        beta = 1.0
    else:
        beta = float(rng.uniform(0.0, 2.5))
    s = random_symbol(rng, beta)
    dilations = (float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.99, 0.999)))
    return (kind, alpha, s, dilations)


def probe_call(ctx, inputs):
    kind, alpha, s, dilations = inputs
    p = bc.BlochParams(alpha)
    if kind == "essnorm":
        family = bc.default_test_family(p, ctx.grid, m_max=PROBE_TEST_FAMILY_M, order=PROBE_ORDER)
        return bc.essential_norm_probe(s, p, list(dilations), family, ctx.grid)
    fam = bc.null_family(kind, PROBE_FAMILY_SIZE, p, ctx.grid, order=PROBE_ORDER)
    return bc.compactness_probe(s, p, fam, ctx.grid)


def probe_check(ctx, inputs, report) -> OpResult:
    """Samples must be finite and non-negative.  A verdict that disagrees
    with `classify` is counted, not failed: it is a known limitation of the
    probes, not a wrong number."""
    kind, alpha, s, _ = inputs
    if kind == "essnorm":
        consistent = report.verdict == "essential-norm-zero-consistent"
        expected = "EssentialNormZero" in bc.classify(alpha, s.beta).verdict
    else:
        consistent = report.verdict == "compact-consistent"
        expected = "Compact" in bc.classify(alpha, s.beta).verdict
    values = np.array([v for _, v in report.samples], dtype=float)
    ok = values.size > 0 and bool(np.all(np.isfinite(values))) and bool(np.all(values >= 0))
    return OpResult(
        ok,
        f"{kind} alpha={alpha} beta={s.beta} verdict={report.verdict}",
        {"compactness.verdict_mismatch": int(consistent != expected)},
    )


# -- coeff_n4096 ---------------------------------------------------------------

COEFF_ORDERS = (1024, 2048, 4096)
COEFF_MATRIX_SIZES = (256, 512, 1024)
SPECTRUM_TOL = 1e-12
EIGEN_TOL = 1e-10
ROUNDTRIP_TOL = 1e-12
# apply_generalized against the operator matrix: both sum the same products
# in different orders, so they agree to rounding of the summed magnitudes.
MATVEC_TOL = 1e-12


def coeff_inputs(ctx, stream: int, i: int):
    """Series order and matrix size cycle together through three sizes;
    beta in [0, 2], as in acceptance criterion 02."""
    rng = rng_for(ctx.seed, stream, i)
    size = i % 3
    s = random_symbol(rng, float(rng.uniform(0.0, 2.0)))
    n = int(rng.integers(1, 5))
    g = random_poly(rng, CERTIFY_DEGREE, COEFF_ORDERS[size])
    return (s, n, COEFF_MATRIX_SIZES[size], COEFF_ORDERS[size], g)


def coeff_call(ctx, inputs):
    s, n, size, order, g = inputs
    matrix = bc.operator_matrix(s, size)
    spectrum = bc.truncated_spectrum(matrix)
    psi = bc.eigenfunction_psi(s, n, order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[n:] = psi.coeffs[: order + 1 - n]
    eigvec = bc.PowerSeries(c)
    eig_image = bc.apply_generalized(eigvec, s)
    back = bc.apply_beta_cesaro(bc.preimage_under_cesaro(g), 1.0)
    image = bc.apply_generalized(g, s)
    return matrix, spectrum, eigvec, eig_image, back, image


def coeff_check(ctx, inputs, outputs) -> OpResult:
    s, n, size, order, g = inputs
    matrix, spectrum, eigvec, eig_image, back, image = outputs
    c = eigvec.coeffs
    g0 = s.value_at_zero()
    want = sorted((g0 / m for m in range(1, size + 1)), key=abs, reverse=True)
    spec_err = max(abs(a - b) for a, b in zip(spectrum, want))
    lam = g0 / n
    eig_err = float(
        np.max(np.abs(eig_image.coeffs - lam * c) / (1.0 + np.abs(lam * c)))
    )
    k = min(back.order, g.order)
    rt_err = float(np.max(np.abs(back.coeffs[: k + 1] - g.coeffs[: k + 1])))
    head = g.coeffs[1 : size + 1]
    mv = matrix.entries @ head
    scale = np.abs(matrix.entries) @ np.abs(head)
    mv_err = float(np.max(np.abs(image.coeffs[1 : size + 1] - mv) / (1.0 + scale)))
    ok = (
        len(spectrum) == size
        and spec_err <= SPECTRUM_TOL
        and eig_err <= EIGEN_TOL
        and rt_err <= ROUNDTRIP_TOL
        and mv_err <= MATVEC_TOL
    )
    return OpResult(
        ok,
        f"N={order} size={size} n={n} spec={spec_err:.1e} eig={eig_err:.1e} "
        f"roundtrip={rt_err:.1e} matvec={mv_err:.1e}",
    )


# -- cli_mix -------------------------------------------------------------------

REPORT_RTOL = 1e-9
REPORT_ATOL = 1e-12


def load_cli_refs() -> list[dict]:
    with open(CLI_REFS) as fh:
        data = json.load(fh)
    return data["cases"]


def cli_inputs(ctx, stream: int, i: int):
    """One recorded case per op; the command cycles through the recorded
    commands and the case within the command is drawn from the seed."""
    rng = rng_for(ctx.seed, stream, i)
    commands = sorted(ctx.cli_by_command)
    idx = ctx.cli_by_command[commands[i % len(commands)]]
    k = idx[int(rng.integers(len(idx)))]
    return (k, tuple(ctx.cli_cases[k]["argv"]))


def _same(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(a, b) for a, b in zip(got, want)
        )
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and math.isclose(got, want, rel_tol=REPORT_RTOL, abs_tol=REPORT_ATOL)
    )


def run_cli(argv) -> tuple[int, str]:
    """In-process `cli.main(argv)` with its report captured."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_call(ctx, inputs):
    return run_cli(inputs[1])


def cli_check(ctx, inputs, outputs) -> OpResult:
    case = ctx.cli_cases[inputs[0]]
    code, text = outputs
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = None
    ok = (
        code == case["exit"]
        and isinstance(report, dict)
        and report.get("schema") == "bcl-report/1"
        and _same(report, case["report"])
    )
    return OpResult(ok, f"case={inputs[0]} argv={case['argv']} exit={code}", {"cli.report_bytes": len(text)})


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: object        # (ctx, stream, i) -> inputs of op i
    call: object          # (ctx, inputs) -> outputs; the timed package calls
    check: object         # (ctx, inputs, outputs) -> OpResult; untimed
    kinds: int            # op kinds in the stratified cycle; warm-up runs each once
    trace_ops: int        # fixed op count of the traced run


WORKLOADS = {
    "certify_n256": Workload(certify_inputs, certify_call, certify_check, 3, 240),
    "probes_n1024": Workload(probe_inputs, probe_call, probe_check, 3, 60),
    "coeff_n4096": Workload(coeff_inputs, coeff_call, coeff_check, 3, 150),
    "cli_mix": Workload(cli_inputs, cli_call, cli_check, 8, 1600),
}


@dataclass
class Context:
    """Everything an op reads besides its own inputs, built once in set-up."""

    name: str
    seed: int
    grid: bc.SampleGrid
    cli_cases: list = field(default_factory=list)
    cli_by_command: dict = field(default_factory=dict)

    @property
    def workload(self) -> Workload:
        return WORKLOADS[self.name]


def make_context(name: str, seed: int) -> Context:
    ctx = Context(name=name, seed=seed, grid=bc.default_grid())
    if name == "cli_mix":
        ctx.cli_cases = load_cli_refs()
        for k, case in enumerate(ctx.cli_cases):
            ctx.cli_by_command.setdefault(case["argv"][0], []).append(k)
    return ctx
