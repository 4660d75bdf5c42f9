"""Extremal solvers for the two dual problems.

solve_min_abs: minimise |f(ai)| over monic real-rooted f at fixed
discriminant. solve_max_disc: maximise the discriminant at fixed
|f(ai)| = m. Both reduce their target to the log phase ratio log p and
make one decision on it (_dispatch, by binomial_family.crossover_side):
the binomial family for p < 1 (large modulus / small height), the
multiplier family for p > 1, and the shared boundary member, where both
families collapse to one polynomial, within a snap window around the
crossover p = 1, m = 2^(d-1) a^d. The ascent oracle that certifies both
numerically, and the roots-only stationarity residual, are in oracles.
"""

import math
from dataclasses import dataclass

from . import binomial_family as bf
from . import jacobi_family as jf
from .errors import check_degree, check_disc, check_height
from .poly_core import (
    LogDiscriminant,
    RealRootedPoly,
    _exp_or_inf,
    log_disc_from_roots,
    log_modulus_at_ai,
)

PROBLEM_MIN_ABS = "min_abs"
PROBLEM_MAX_DISC = "max_disc"
REGIME_BINOMIAL = "f_family"
REGIME_MULTIPLIER = "g_family"


@dataclass(frozen=True)
class ExtremalSolution:
    """One or two optimal polynomials plus the achieved objective values.

    polys holds two entries exactly when the binomial member has a
    nonzero subleading coefficient (mirror pair, sorted by smallest
    root); the shared boundary member has a single entry. achieved_m and
    achieved_disc are recomputed from the returned roots rather than
    echoing the inputs; achieved_m is exp(log_m), log_m being
    log |f(ai)| of polys[0], and is inf once the modulus leaves float
    range, like LogDiscriminant.value. lambda_or_b carries the family
    parameter: the Lagrange multiplier in the multiplier regime, the
    subleading coefficient of polys[0] otherwise. coeffs holds one
    ascending coefficient row per entry of polys, in the same order,
    from the family's closed form rather than from the rounded roots
    (inf where a coefficient leaves float range).
    """

    problem: str
    regime: str
    polys: tuple[RealRootedPoly, ...]
    coeffs: tuple[tuple[float, ...], ...]
    achieved_m: float
    log_m: float
    achieved_disc: LogDiscriminant
    lambda_or_b: float


def _finish(problem: str, regime: str, polys, coeffs, a: float, lambda_or_b: float):
    lead = polys[0]
    log_m = log_modulus_at_ai(lead.roots, a)
    return ExtremalSolution(
        problem=problem,
        regime=regime,
        polys=tuple(polys),
        coeffs=tuple(tuple(row) for row in coeffs),
        achieved_m=_exp_or_inf(log_m),
        log_m=log_m,
        achieved_disc=log_disc_from_roots(lead),
        lambda_or_b=lambda_or_b,
    )


def _dispatch(
    problem: str, a: float, d: int, log_p: float, solve_lambda
) -> ExtremalSolution:
    """The one regime decision, binomial_family.crossover_side: the
    boundary member within the snap window of the crossover log p = 0,
    the binomial mirror pair below it, and above it the multiplier member
    at the multiplier that solve_lambda() returns. The families' roots
    come sorted and finite, so they are the polynomials as they stand."""
    side = bf.crossover_side(a, d, log_p)
    if side > 0:
        lam = solve_lambda()
        # the multiplier is >= 2d - 2 and off the poles, so the roots come
        # from the unchecked core and family_coeffs makes the one member check
        poly = RealRootedPoly(tuple(jf._family_roots(a, d, lam)))
        return _finish(
            problem, REGIME_MULTIPLIER, [poly], [jf.family_coeffs(a, d, lam)], a, lam
        )
    # the boundary member is the binomial one at log p = 0, with B = 0
    log_p = log_p if side else 0.0
    lead = RealRootedPoly(tuple(bf._lattice_roots(a, d, log_p)))
    row = bf._binomial_row(a, d, bf._subleading(a, d, log_p))
    pair = [(lead, row)]
    if side < 0:
        # negating the roots negates every x^j with d - j odd, B among them
        mirror = RealRootedPoly(tuple(-r for r in reversed(lead.roots)))
        pair.append((mirror, [-c if (d - j) % 2 else c for j, c in enumerate(row)]))
        pair.sort(key=lambda member: member[0].roots[0])
    polys, rows = zip(*pair)
    return _finish(problem, REGIME_BINOMIAL, polys, rows, a, rows[0][d - 1])


def solve_max_disc(a: float, d: int, m: float) -> ExtremalSolution:
    """Maximise the discriminant over monic degree-d real-rooted f with
    |f(ai)| = m. Requires m > a^d (the unconstrained minimum of the
    modulus); RegimeError otherwise."""
    check_degree(d)
    check_height(a)
    a = float(a)
    return _max_disc(a, d, bf._log_modulus(a, d, m))


def _max_disc(a: float, d: int, log_m: float) -> ExtremalSolution:
    """solve_max_disc for a checked height and degree and log m > d log a."""
    return _dispatch(
        PROBLEM_MAX_DISC, a, d, bf._log_phase_of_modulus(a, d, log_m),
        lambda: jf._multiplier_from_modulus(a, d, log_m),
    )


def solve_min_abs(a: float, d: int, disc: float) -> ExtremalSolution:
    """Minimise |f(ai)| over monic degree-d real-rooted f with
    discriminant disc > 0."""
    check_degree(d)
    check_height(a)
    check_disc(disc)
    a, log_disc = float(a), math.log(disc)
    return _dispatch(
        PROBLEM_MIN_ABS, a, d, bf._log_phase_of_disc(a, d, log_disc),
        lambda: jf._multiplier_from_disc(a, d, log_disc),
    )

