"""Discrete logarithmic energy of point charges on the real line.

d equal charges at points x_1..x_d carry the normalized counting
measure. Its logarithmic potential evaluated at the off-axis point ai is
v = -(1/d) sum log |ai - x_k|, and its discrete energy is
I = -log(prod (x_j - x_k)^2) / (d (d-1)). Fixing v and minimising I is
the charge-configuration reading of the discriminant maximisation
problem, so the equilibrium solver is a thin wrapper over solve_max_disc.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, InputError
from .poly_core import log_disc_from_roots, log_modulus_at_ai, poly_from_roots
from .solvers import solve_max_disc


@dataclass(frozen=True)
class ChargeConfig:
    """Point charges with their potential at ai and discrete energy.
    energy_I is +inf exactly when two points coincide."""

    points: tuple[float, ...]
    a: float
    potential_v: float
    energy_I: float


def config_from_points(points, a: float) -> ChargeConfig:
    """Build a ChargeConfig, computing v and I in log space.

    v is the log-modulus and I the log-discriminant of the polynomial with
    the points as roots, so large d is fine. Coincident points give
    energy_I = +inf.
    """
    pts = tuple(float(x) for x in points)
    d = len(pts)
    if d < 2:
        raise DomainError("need at least two charges")
    if a <= 0 or not math.isfinite(a):
        raise DomainError("height a must be positive and finite")
    if not all(math.isfinite(x) for x in pts):
        raise InputError("points must be finite")

    v = -log_modulus_at_ai(pts, a) / d
    ld = log_disc_from_roots(poly_from_roots(pts))
    energy = math.inf if ld.sign == 0 else -ld.log_abs / (d * (d - 1.0))
    return ChargeConfig(points=pts, a=a, potential_v=v, energy_I=energy)


def energy_lower_bound(a: float, d: int, v: float) -> float:
    """Sharp lower bound on the energy of d charges whose potential at
    ai equals v. Requires v < -log a, which every configuration with
    finite energy satisfies strictly."""
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    if a <= 0 or not math.isfinite(a):
        raise DomainError("height a must be positive and finite")
    if not math.isfinite(v) or v >= -math.log(a):
        raise DomainError("potential must satisfy v < -log a")
    return 2.0 * v + math.log(2.0 * a) - math.log(d) / (d - 1.0)


def solve_equilibrium(a: float, d: int, v: float) -> ChargeConfig:
    """Minimum-energy configuration of d charges with potential v at ai.

    The potential constraint is |f(ai)| = exp(-v d) for the monic
    polynomial with the charges as roots, so minimising energy is
    maximising the discriminant; the two solver regimes correspond to the
    two shapes of equilibria. When the extremal pair is a mirror pair,
    the member with the smaller least root is returned.
    """
    if a <= 0 or not math.isfinite(a):
        raise DomainError("height a must be positive and finite")
    if not math.isfinite(v) or v >= -math.log(a):
        raise DomainError("potential must satisfy v < -log a")
    try:
        m = math.exp(-v * d)
    except OverflowError:
        raise DomainError("modulus exp(-v*d) overflows a float") from None
    solution = solve_max_disc(a, d, m)
    return config_from_points(solution.polys[0].roots, a)


def arctan_cdf_distance(config: ChargeConfig) -> float:
    """Kolmogorov distance between the empirical distribution of the
    charges and the arctan law F(x) = 1/2 + arctan(x/a)/pi, evaluated at
    the jump points (where the supremum of the deviation lives)."""
    pts = sorted(config.points)
    d = len(pts)
    worst = 0.0
    for k, x in enumerate(pts, start=1):
        target = 0.5 + math.atan(x / config.a) / math.pi
        worst = max(worst, abs(k / d - target), abs((k - 1) / d - target))
    return worst
