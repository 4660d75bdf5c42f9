"""The one crossover test, binomial_family.crossover_side, and everything
that decides by it.

Near p = 1 (m = 2^(d-1) a^d) the solvers, small_height_condition and the
binomial members' regime checks must all agree: the boundary member
within half the snap window of log p = 0, the binomial side below it and
the multiplier side above it.
"""

import math

import numpy as np
import pytest

from extremal_poly import binomial_family as bf
from extremal_poly.binomial_family import (
    binomial_coeffs,
    crossover_side,
    lattice_roots,
    small_height_condition,
)
from extremal_poly.errors import DomainError, RegimeError
from extremal_poly.solvers import REGIME_BINOMIAL, solve_max_disc, solve_min_abs

LOG2 = math.log(2.0)


def _unit_disc_height(d):
    # the height at which the boundary member's discriminant is 1, so that
    # disc and m near the crossover are floats at any degree
    return math.exp(-(2.0 / d) * ((0.5 * d - 1.0) * LOG2 + d / (2.0 * d - 2.0) * math.log(d)))


# (a, d): heights from 1e-3 to 2.5, and at large d the heights where the
# boundary discriminant is 1
CASES = [(1.0, 2), (1.0, 4), (0.3, 7), (2.5, 5), (1e-3, 3), (0.7, 30)] + [
    (_unit_disc_height(d), d) for d in (101, 1000, 3000)
]


def _grid(a, d, points):
    # log p from -10 to +10 windows, with the edges of the half window and
    # their neighbouring floats
    w = bf._snap_window(a, d)
    grid = [w * t for t in np.linspace(-10.0, 10.0, points)]
    for edge in (-0.5 * w, 0.5 * w):
        grid += [edge, math.nextafter(edge, -1.0), math.nextafter(edge, 1.0)]
    return grid


def _accepts(call) -> bool:
    try:
        call()
    except RegimeError:
        return False
    return True


def _binomial_checks(a, d, log_p, side):
    # the binomial members' regime checks accept exactly on the binomial
    # side and on the boundary, where they clamp to the boundary member
    assert _accepts(lambda: binomial_coeffs(a, d, log_p)) == (side <= 0)
    assert _accepts(lambda: lattice_roots(a, d, log_p)) == (side <= 0)
    if side == 0:
        assert binomial_coeffs(a, d, log_p)[d - 1] == 0.0  # B
        assert lattice_roots(a, d, log_p) == lattice_roots(a, d, 0.0)
        assert binomial_coeffs(a, d, log_p) == binomial_coeffs(a, d, 0.0)


@pytest.mark.parametrize("a, d", CASES)
def test_min_abs_side_agrees_everywhere(a, d):
    points = 11 if d >= 1000 else 41
    sides = set()
    for target in _grid(a, d, points):
        # disc with log phase ratio near target; the test reads back the
        # log p that the float disc really has
        log_disc = (2.0 * d - 2.0) * (bf._log_phase_of_disc(a, d, 0.0) - target)
        disc = math.exp(log_disc)
        log_p = bf._log_phase_of_disc(a, d, math.log(disc))
        side = crossover_side(a, d, log_p)
        sides.add(side)
        assert small_height_condition(a, d, disc) == (side <= 0)
        assert (solve_min_abs(a, d, disc).regime == REGIME_BINOMIAL) == (side <= 0)
        _binomial_checks(a, d, log_p, side)
    assert sides == {-1, 0, 1}


@pytest.mark.parametrize("a, d", CASES)
def test_max_disc_side_agrees_everywhere(a, d):
    points = 11 if d >= 1000 else 41
    sides = set()
    for target in _grid(a, d, points):
        m = math.exp((d - 1) * LOG2 + d * math.log(a) - target)
        log_p = bf._log_phase_of_modulus(a, d, math.log(m))
        side = crossover_side(a, d, log_p)
        sides.add(side)
        sol = solve_max_disc(a, d, m)
        assert (sol.regime == REGIME_BINOMIAL) == (side <= 0)
        # the multiplier solve answers on the multiplier side, from 2d - 2
        # on; the boundary member has B = 0
        if side > 0:
            assert sol.lambda_or_b >= 2.0 * d - 2.0
        if side == 0:
            assert sol.lambda_or_b == 0.0
        _binomial_checks(a, d, log_p, side)
    assert sides == {-1, 0, 1}


def test_small_height_condition_matches_solver_regime_near_threshold():
    # heights within 1e-11 (in log) of the threshold, where the predicate
    # kept a slack of its own and disagreed with solve_min_abs
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(2, 61))
        disc = float(np.exp(rng.uniform(-3.0, 6.0)))
        log_a = bf.log_threshold_height(d, math.log(disc)) + float(rng.uniform(-1e-11, 1e-11))
        a = math.exp(log_a)
        sol = solve_min_abs(a, d, disc)
        assert small_height_condition(a, d, disc) == (sol.regime == REGIME_BINOMIAL)
    # moduli within 1e-11 d (in log) of the crossover, with the achieved
    # discriminant, where it is a normal float
    seen = 0
    while seen < 300:
        d = int(rng.integers(2, 61))
        a = float(np.exp(rng.uniform(-1.0, 1.0)))
        log_m = d * math.log(a) + (d - 1) * LOG2 + float(rng.uniform(-1e-11, 1e-11)) * d
        sol = solve_max_disc(a, d, math.exp(log_m))
        log_disc = sol.achieved_disc.log_abs
        if abs(log_disc) > 700.0:
            continue
        seen += 1
        disc = math.exp(log_disc)
        assert small_height_condition(a, d, disc) == (sol.regime == REGIME_BINOMIAL)


def test_targets_inside_the_window_answer_with_the_boundary():
    # both were refused by slacks of their own, while solve_max_disc
    # answered these targets with the boundary member
    assert lattice_roots(1.0, 4, 1e-11) == lattice_roots(1.0, 4, 0.0)
    assert solve_max_disc(1.0, 4, 8.0 * (1.0 + 5e-12)).lambda_or_b == 0.0


def test_nan_log_phase_ratio_is_refused():
    for call in (crossover_side, lattice_roots, binomial_coeffs):
        with pytest.raises(DomainError, match="nan"):
            call(1.0, 4, math.nan)
