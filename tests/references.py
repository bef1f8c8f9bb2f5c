"""Acceptance references that only the tests use: each checks a statement
of the paper, and no CLI command or library path reaches it."""
import math

from betacesaro import BlochParams, PowerSeries, SampleGrid, SymbolGBeta, apply_generalized, seminorm_estimate
from betacesaro.bloch import normalize
from betacesaro.errors import check_integer
from betacesaro.series import DEFAULT_ORDER


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
