"""Acceptance references that only the tests use: each checks a statement
of the paper, and no CLI command or library path reaches it, or keeps an
older form of the code as the reference of the new one."""
import json
import math
import sys

import numpy as np

from betacesaro import (
    BlochParams,
    DomainError,
    PowerSeries,
    SampleGrid,
    SymbolGBeta,
    apply_generalized,
    cli,
    seminorm_estimate,
)
from betacesaro.bloch import normalize
from betacesaro.bounds import Classification, compare
from betacesaro.errors import check_integer, check_real
from betacesaro.series import DEFAULT_ORDER, _pairs


def approximate_eigen_probe(s: SymbolGBeta, n: int, p: BlochParams, g: SampleGrid) -> float:
    """Norm of the operator applied to the unit vector z^n / ||z^n||; tends
    to 0 like 1/n, witnessing the approximate eigenvalue 0.  The unit vector
    is the monomial family's member m = n at the default order."""
    n = check_integer("approximate_eigen_probe", "n", n, 1)
    h_n, _ = normalize(PowerSeries.monomial(n, order=max(DEFAULT_ORDER, 2 * n)), p, g)
    return seminorm_estimate(apply_generalized(h_n, s), p, g).value


def one_minus_power_bound(n: int) -> float:
    """z-independent majorant of sup |1 - (1 - b z)^(1/n)| over the disk:

    |1 - exp(ln2/n)| + exp(ln2/n) * ((cos(pi/2n) - 1)^2 + sin^2(pi/2n))^(1/2)
    """
    n = check_integer("one_minus_power_bound", "n", n, 1)
    e = math.exp(math.log(2.0) / n)
    ang = math.pi / (2.0 * n)
    return abs(1.0 - e) + e * math.hypot(math.cos(ang) - 1.0, math.sin(ang))


_COMPACT = ("Bounded", "Compact", "EssentialNormZero")


def classify_reference(alpha: float, beta: float) -> Classification:
    """The (alpha, beta) decision as an if-chain on compare, the reference
    for `classify` and its table `bounds.REGIMES`."""
    check_real("classify", "alpha", alpha, 0)
    check_real("classify", "beta", beta)
    beta_vs_alpha = compare(beta, alpha)
    alpha_vs_1 = compare(alpha, 1.0)
    if beta_vs_alpha > 0:
        return Classification(("Unbounded",), ("counterexample: identity function, beta > alpha",))
    if beta_vs_alpha == 0:
        if alpha_vs_1 >= 0:
            return Classification(("Unbounded",), ("counterexample: principal log, beta = alpha >= 1",))
        return Classification(
            _COMPACT, ("essential norm zero for beta = alpha < 1 (hence compact, hence bounded)",)
        )
    # now beta < alpha
    if alpha_vs_1 < 0:
        return Classification(
            _COMPACT, ("bounded for beta <= alpha < 1", "compact for beta < alpha < 1")
        )
    if alpha_vs_1 == 0:
        return Classification(
            _COMPACT, ("bounded for beta < alpha = 1", "compact for beta < alpha = 1")
        )
    # alpha > 1
    beta_vs_1 = compare(beta, 1.0)
    if beta_vs_1 > 0:
        return Classification(("Unbounded",), ("counterexample: z/(1-z)^(alpha-1), 1 < beta < alpha",))
    if beta_vs_1 == 0:
        return Classification(
            _COMPACT, ("bounded for beta <= 1 < alpha", "essential norm zero for beta = 1 < alpha")
        )
    return Classification(
        _COMPACT, ("bounded for beta <= 1 < alpha", "compact for beta < 1 < alpha")
    )


def symbol_json(s: SymbolGBeta) -> str:
    """The symbol file of s, the format `SymbolGBeta.from_json` reads."""
    return json.dumps(
        {
            "terms": [{"a": _pairs(a), "b_angle": math.atan2(b.imag, b.real)} for a, b in s.terms],
            "beta": s.beta,
            "h": s.h.to_dict(),
        }
    )


_TOP_LEVEL = cli.build_parser()


def main_reference(argv=None) -> int:
    """`cli.main` with every command line parsed by the top-level parser,
    which hands the rest of the line to the command's subparser: the
    reference for `main`'s dispatch."""
    try:
        args = _TOP_LEVEL.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            command = cli.COMMANDS[args.command]
            result, code = command.run(args)
            cli._emit(args, result, command.csv)
        return code
    except cli._ParserExit as exc:
        return exc.args[0]
    except cli._UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
