"""Discrete logarithmic energy of point charges on the real line.

d equal charges at points x_1..x_d carry the normalized counting
measure. Its logarithmic potential evaluated at the off-axis point ai is
v = -(1/d) sum log |ai - x_k|, and its discrete energy is
I = -log(prod (x_j - x_k)^2) / (d (d-1)). Fixing v and minimising I is
the charge-configuration reading of the discriminant maximisation
problem, so the equilibrium solver is a thin wrapper over solve_max_disc's
core.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_degree, check_height
from .poly_core import (
    LogDiscriminant,
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
)
from .binomial_family import _above_floor
from .solvers import _max_disc


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
    check_height(a)
    # poly_from_roots refuses fewer than two points and non-finite ones
    ld = log_disc_from_roots(poly_from_roots(pts))
    return _config(pts, a, ld, log_modulus_at_ai(pts, a))


def _config(
    pts: tuple[float, ...], a: float, ld: LogDiscriminant, log_m: float
) -> ChargeConfig:
    """ChargeConfig of validated points whose log-discriminant ld and
    log-modulus log |f(ai)| are already known."""
    d = len(pts)
    v = -log_m / d
    energy = math.inf if ld.sign == 0 else -ld.log_abs / (d * (d - 1.0))
    return ChargeConfig(points=pts, a=a, potential_v=v, energy_I=energy)


def _check_potential(a: float, v: float) -> None:
    """DomainError unless v is finite and below -log a, for a checked a."""
    if not math.isfinite(v) or v >= -math.log(a):
        raise DomainError("potential must satisfy v < -log a")


def energy_lower_bound(a: float, d: int, v: float) -> float:
    """Sharp lower bound on the energy of d charges whose potential at
    ai equals v. Requires v < -log a, which every configuration with
    finite energy satisfies strictly."""
    check_degree(d)
    check_height(a)
    _check_potential(a, v)
    return 2.0 * v + math.log(2.0 * a) - math.log(d) / (d - 1.0)


def solve_equilibrium(a: float, d: int, v: float) -> ChargeConfig:
    """Minimum-energy configuration of d charges with potential v at ai.

    The potential constraint is log |f(ai)| = -v d for the monic
    polynomial with the charges as roots, so minimising energy is
    maximising the discriminant; the two solver regimes correspond to the
    two shapes of equilibria. When the extremal pair is a mirror pair,
    the member with the smaller least root is returned. Every float-range
    refusal is the solver's, a DomainError that names the potential.
    """
    check_height(a)
    _check_potential(a, v)
    check_degree(d)
    # a numpy v would warn where -v d overflows, and a numpy a would give numpy roots
    a, v = float(a), float(v)
    # v < -log a puts -v d above d log a, except where the two round to
    # one float
    log_m = _above_floor(a, d, -v * d)
    try:
        solution = _max_disc(a, d, log_m)
    except DomainError as exc:
        raise DomainError("potential v = %r: %s" % (v, exc)) from None
    # the solver has taken the log-discriminant and log-modulus of these
    # very roots
    return _config(
        solution.polys[0].roots, a, solution.achieved_disc, solution.log_m
    )


def _arctan_cdf(x: float, a: float) -> float:
    """The arctan law F(x) = 1/2 + arctan(x/a)/pi."""
    return 0.5 + math.atan(x / a) / math.pi


def arctan_cdf_distance(config: ChargeConfig) -> float:
    """Kolmogorov distance between the empirical distribution of the
    charges and the arctan law F(x) = 1/2 + arctan(x/a)/pi, evaluated at
    the jump points (where the supremum of the deviation lives)."""
    pts = sorted(config.points)
    d = len(pts)
    deviations = []
    for k, x in enumerate(pts, start=1):
        target = _arctan_cdf(x, config.a)
        deviations += abs(k / d - target), abs((k - 1) / d - target)
    # np.max, unlike the builtin max, keeps a NaN deviation
    return float(np.max(deviations))
