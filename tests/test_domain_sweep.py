"""Domain sweep of both dual solvers and the equilibrium solver.

A fixed grid of heights, degrees and log phase ratios, from the
multiplier side of the crossover (log p > 0) down to the far binomial
side (log p = -700), plus the points where the binomial lattice once
lost its pole root. The far multiplier side (log p = 50, 230) sends the
multiplier up to about 1e200. Every call must either meet its target to 1e-9
relative in log, recomputed here from the returned roots, or raise the
named float-range error. A target that is not itself a float (m or
disc outside float range) is not a call the API can receive, so it is
not made; solve_equilibrium takes its potential v, which always is. Nor
are moduli at or below a^d (log p >= (d - 1) log 2), for which no
real-rooted polynomial exists.
"""

import math

import numpy as np
import pytest

from extremal_poly import binomial_family as bf
from extremal_poly import energy
from extremal_poly import jacobi_family as jf
from extremal_poly import lemniscate as lem
from extremal_poly import oracles
from extremal_poly import poly_core
from extremal_poly import solvers
from extremal_poly.energy import solve_equilibrium
from extremal_poly.errors import DomainError
from extremal_poly.poly_core import log_disc_from_roots, log_modulus_at_ai, rel_log_diff
from extremal_poly.solvers import REGIME_BINOMIAL, solve_max_disc, solve_min_abs

HEIGHTS = [float(a) for a in np.logspace(-3.0, 3.0, 7)]
DEGREES = [2, 3, 4, 5, 6, 7, 8, 20, 50, 300, 1000]
LOG_PS = [
    230.0, 50.0, 2.0, 0.3, 1e-6, 0.0, -1e-6, -0.3, -2.0, -10.0, -40.0, -150.0,
    -400.0, -700.0,
]
# degrees past DEGREES, on the multiplier side only, at a height where
# the boundary modulus 2^(d-1) a^d is a float (at a = 1 it overflows past
# d = 1025); d = 1100 is where the linear-space modulus target overflowed
FAR_DEGREES = [(0.5, 1100), (0.5, 3000)]
# a tiny height whose pole root is far past the smallest normal p
EXTRA = [(1e-14, 2, -735.0), (1e-14, 2, -741.0)]
# (a, d, disc) targets of solve_min_abs that missed with exit 0
MISSES = [
    (0.27386251022309027, 3, 5.817114997558921e43),
    (2.0, 5, 1e100),
    (0.3, 20, 1e300),
]
# the one float-range refusal; solve_equilibrium takes log m = -v d as it
# is, with no exp(-v d) to overflow or underflow
FLOAT_RANGE = ("past float range",)


def _log_m(a, d, log_p):
    # p = 2^(d-1) a^d / m
    return (d - 1) * math.log(2.0) + d * math.log(a) - log_p


def _log_disc(a, d, log_p):
    # inverts binomial_family._log_phase_of_disc
    return (2.0 * d - 2.0) * (
        0.5 * d * math.log(a)
        + (0.5 * d - 1.0) * math.log(2.0)
        + d / (2.0 * d - 2.0) * math.log(d)
        - log_p
    )


def _as_float(log_x):
    try:
        x = math.exp(log_x)
    except OverflowError:
        return None
    return x if x > 0.0 else None


def _check_solution(sol, a, target, which):
    """None if every returned polynomial meets the target, else why."""
    for poly in sol.polys:
        if which == "m":
            got = log_modulus_at_ai(poly.roots, a)
        else:
            got = log_disc_from_roots(poly).log_abs
        if not rel_log_diff(got, target) <= 1e-9:
            return "log %s %.17g misses %.17g" % (which, got, target)
    if sol.regime == REGIME_BINOMIAL:
        roots = sol.polys[0].roots
        total = math.fsum(roots)
        scale = math.fsum(abs(r) for r in roots)
        if not abs(sol.lambda_or_b + total) <= 1e-12 * scale:
            return "B %.17g is not -sum(roots) %.17g" % (sol.lambda_or_b, -total)
    return None


def _outcome(call, check):
    try:
        result = call()
    except DomainError as exc:
        if any(name in str(exc) for name in FLOAT_RANGE):
            return None
        return "DomainError: %s" % exc
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return check(result)


def _cases():
    for a in HEIGHTS:
        for d in DEGREES:
            for log_p in LOG_PS:
                yield a, d, log_p
    yield from EXTRA


def _far_moduli():
    for a, d in FAR_DEGREES:
        for log_p in LOG_PS:
            if log_p > 0.0:
                yield a, d, math.exp(_log_m(a, d, log_p))


def test_domain_sweep():
    failures = []
    calls = 0
    for a, d, log_p in _cases():
        log_m = _log_m(a, d, log_p)
        real_rooted = log_p < (d - 1) * math.log(2.0)
        m = _as_float(log_m)
        if m is not None and real_rooted:
            calls += 1
            bad = _outcome(
                lambda: solve_max_disc(a, d, m),
                lambda s: _check_solution(s, a, math.log(m), "m"),
            )
            if bad:
                failures.append(("max_disc", a, d, log_p, bad))
        disc = _as_float(_log_disc(a, d, log_p))
        if disc is not None:
            calls += 1
            bad = _outcome(
                lambda: solve_min_abs(a, d, disc),
                lambda s: _check_solution(s, a, math.log(disc), "disc"),
            )
            if bad:
                failures.append(("min_abs", a, d, log_p, bad))
        if not real_rooted:
            continue
        calls += 1
        v = -log_m / d
        bad = _outcome(
            lambda: solve_equilibrium(a, d, v),
            lambda c: None
            if rel_log_diff(log_modulus_at_ai(c.points, a), -v * d) <= 1e-9
            else "potential of the points misses v",
        )
        if bad:
            failures.append(("equilibrium", a, d, log_p, bad))
    for a, d, disc in MISSES:
        calls += 1
        bad = _outcome(
            lambda: solve_min_abs(a, d, disc),
            lambda s: _check_solution(s, a, math.log(disc), "disc"),
        )
        if bad:
            failures.append(("min_abs", a, d, disc, bad))
    assert calls > 1000
    assert not failures, "%d of %d calls failed, first: %r" % (
        len(failures), calls, failures[:5]
    )


def test_multiplier_solves_are_short(monkeypatch):
    # every multiplier solve of the sweep, both targets, counted at the
    # closed-form evaluations the Newton helper asks for
    counts = []
    newton = jf._newton_multiplier

    def counted(value_and_slope, target, d):
        counts.append(0)

        def tally(lam):
            counts[-1] += 1
            return value_and_slope(lam)

        return newton(tally, target, d)

    monkeypatch.setattr(jf, "_newton_multiplier", counted)
    for a, d, log_p in _cases():
        if log_p <= 0.0:
            continue
        m = _as_float(_log_m(a, d, log_p))
        if m is not None and log_p < (d - 1) * math.log(2.0):
            solve_max_disc(a, d, m)
        jf._multiplier_from_disc(a, d, _log_disc(a, d, log_p))
    for a, d, m in _far_moduli():
        solve_max_disc(a, d, m)
    assert len(counts) > 150
    assert max(counts) <= 12


def test_far_degree_modulus_solves():
    # the modulus solve meets log m at the lam it returns to within a few
    # ulps of lam; at d = 1100 the whole answer is checked from its roots
    for a, d, m in _far_moduli():
        sol = solve_max_disc(a, d, m)
        lam = sol.lambda_or_b
        assert sol.regime == "g_family"
        got = d * math.log(a) + jf._log_modulus_ratio_and_slope(d, lam)[0]
        assert rel_log_diff(got, math.log(m)) <= 1e-11, (a, d, m, lam)
        if d < 3000:
            assert _check_solution(sol, a, math.log(m), "m") is None, (a, d, m)


# every public function that takes a height, as a call at that height;
# "subleading", "log_phase_ratio" and "solve_multiplier" name quantities
# with no function of their own, read from the public call that forms them,
# and "JacobiFamilyParams" the member check that family_coeffs,
# family_roots and closed_form_disc share
HEIGHT_CALLS = {
    "binomial_coeffs": lambda a: bf.binomial_coeffs(a, 4, -1.0),
    "subleading": lambda a: bf.binomial_coeffs(a, 4, -1.0)[3],
    "lattice_roots": lambda a: bf.lattice_roots(a, 4, -1.0),
    "crossover_side": lambda a: bf.crossover_side(a, 4, -1.0),
    "log_phase_ratio": lambda a: bf.small_height_condition(a, 4, 1.0),
    "min_modulus_bound": lambda a: bf.min_modulus_bound(a, 4, 1.0),
    "small_height_condition": lambda a: bf.small_height_condition(a, 4, 1.0),
    "JacobiFamilyParams": lambda a: jf.family_coeffs(a, 4, 7.0),
    "solve_multiplier": lambda a: solvers.solve_max_disc(a, 4, 3.0).lambda_or_b,
    "solve_max_disc": lambda a: solvers.solve_max_disc(a, 4, 3.0),
    "solve_min_abs": lambda a: solvers.solve_min_abs(a, 4, 3.0),
    "stationarity_residual": lambda a: oracles.stationarity_residual([-1.0, 0.0, 1.0], a),
    "numeric_oracle_max_discs": lambda a: oracles.numeric_oracle_max_discs(a, 2, [3.0]),
    "log_modulus_at_ai": lambda a: poly_core.log_modulus_at_ai([-1.0, 1.0], a),
    "config_from_points": lambda a: energy.config_from_points([-1.0, 1.0], a),
    "energy_lower_bound": lambda a: energy.energy_lower_bound(a, 4, -1.0),
    "solve_equilibrium": lambda a: energy.solve_equilibrium(a, 4, -1.0),
}


@pytest.mark.parametrize("name", sorted(HEIGHT_CALLS))
@pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
def test_every_height_check_refuses_the_same_heights(name, a):
    # log_modulus_at_ai used to answer nan for a = nan and inf for a = inf
    with pytest.raises(DomainError) as err:
        HEIGHT_CALLS[name](a)
    assert str(err.value) == "height a must be positive and finite"


# every public function that takes a discriminant, as a call at that
# discriminant, and the log phase ratio, as above
DISC_CALLS = {
    "log_phase_ratio": lambda disc: bf.small_height_condition(1.0, 4, disc),
    "min_modulus_bound": lambda disc: bf.min_modulus_bound(1.0, 4, disc),
    "small_height_condition": lambda disc: bf.small_height_condition(1.0, 4, disc),
    "solve_min_abs": lambda disc: solvers.solve_min_abs(1.0, 4, disc),
    "radius_upper_bound": lambda disc: lem.radius_upper_bound(4, disc),
    "inscribed_disk_poly": lambda disc: lem.inscribed_disk_poly(4, disc),
}


@pytest.mark.parametrize("name", sorted(DISC_CALLS))
@pytest.mark.parametrize("disc", [math.nan, math.inf, 0.0, -1.0])
def test_every_disc_check_refuses_the_same_discriminants(name, disc):
    # the solvers' and the radius bounds' checks once had two messages
    with pytest.raises(DomainError) as err:
        DISC_CALLS[name](disc)
    assert str(err.value) == "discriminant must be positive and finite"


def test_large_poles_at_small_heights_answer():
    # the pole root a d / p comes from log a: at a = 1, the pole of the
    # first is e^710.8, past float range, although the answer's is e^708.5
    for sol in (
        solve_max_disc(0.1, 4, 1e305),
        solve_min_abs(1e-300, 4, 10.0),
    ):
        roots = sol.polys[0].roots
        assert sol.regime == REGIME_BINOMIAL
        assert len(roots) == 4 and all(map(math.isfinite, roots))
        assert list(roots) == sorted(roots)
