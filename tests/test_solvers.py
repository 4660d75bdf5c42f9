import collections
import math
import sys
import warnings

import numpy as np
import pytest

from extremal_poly import binomial_family as bf
from extremal_poly import errors
from extremal_poly import jacobi_family as jf
from extremal_poly.energy import solve_equilibrium
from extremal_poly.errors import DomainError, InputError, RegimeError
from extremal_poly.jacobi_family import closed_form_disc
from extremal_poly import oracles
from extremal_poly.oracles import (
    TOL_ORACLE,
    numeric_oracle_max_discs,
    stationarity_residual,
)
from extremal_poly.poly_core import log_disc_from_roots, rel_log_diff
from extremal_poly.solvers import (
    PROBLEM_MAX_DISC,
    PROBLEM_MIN_ABS,
    REGIME_BINOMIAL,
    REGIME_MULTIPLIER,
    solve_max_disc,
    solve_min_abs,
)
from extremal_poly.verification import run_suite

SQ3 = math.sqrt(3.0)


class TestSolveMaxDisc:
    def test_boundary_snap_degree_two(self):
        sol = solve_max_disc(1.0, 2, 2.0)
        assert sol.problem == PROBLEM_MAX_DISC
        assert sol.regime == REGIME_BINOMIAL
        assert len(sol.polys) == 1
        assert sol.lambda_or_b == 0.0
        assert sol.polys[0].roots == pytest.approx([-1.0, 1.0], rel=1e-12)
        assert sol.achieved_disc.value == pytest.approx(4.0, rel=1e-12)

    def test_boundary_snap_degree_three(self):
        sol = solve_max_disc(1.0, 3, 4.0)
        assert sol.regime == REGIME_BINOMIAL
        assert sol.polys[0].roots == pytest.approx([-SQ3, 0.0, SQ3], abs=1e-12)
        assert sol.achieved_disc.value == pytest.approx(108.0, rel=1e-11)

    def test_binomial_regime_pair(self):
        sol = solve_max_disc(0.5, 2, 1.0)
        assert sol.regime == REGIME_BINOMIAL
        assert len(sol.polys) == 2
        assert sol.lambda_or_b == pytest.approx(SQ3, rel=1e-12)
        # mirror pair: second poly's roots are the negated first
        first, second = sol.polys
        assert second.roots == pytest.approx([-r for r in reversed(first.roots)])
        assert sol.achieved_m == pytest.approx(1.0, rel=1e-12)
        assert sol.achieved_disc.value == pytest.approx(4.0, rel=1e-11)

    def test_multiplier_regime(self):
        sol = solve_max_disc(1.0, 2, 1.5)
        assert sol.regime == REGIME_MULTIPLIER
        assert len(sol.polys) == 1
        assert sol.lambda_or_b == pytest.approx(3.0, rel=1e-12)
        assert sol.coeffs == ((-0.5, 0.0, 1.0),)
        assert sol.achieved_disc.value == pytest.approx(2.0, rel=1e-11)

    def test_rejects_modulus_at_or_below_floor(self):
        with pytest.raises(RegimeError):
            solve_max_disc(1.0, 2, 1.0)
        with pytest.raises(RegimeError):
            solve_max_disc(2.0, 3, 7.9)

    def test_achieved_values_recomputed_from_roots(self):
        sol = solve_max_disc(0.7, 4, 1.9)
        p = sol.polys[0]
        # the direct product of the factor moduli |0.7i - x_k|
        direct = math.prod(abs(complex(-r, 0.7)) for r in p.roots)
        assert sol.achieved_m == pytest.approx(direct, rel=1e-13)
        want = log_disc_from_roots(p)
        assert sol.achieved_disc.sign == want.sign
        assert sol.achieved_disc.log_abs == pytest.approx(want.log_abs, abs=1e-12)


class TestSolveMinAbs:
    def test_boundary_case(self):
        sol = solve_min_abs(1.0, 2, 4.0)
        assert sol.problem == PROBLEM_MIN_ABS
        assert sol.regime == REGIME_BINOMIAL
        assert sol.achieved_m == pytest.approx(2.0, rel=1e-12)
        assert sol.polys[0].roots == pytest.approx([-1.0, 1.0], rel=1e-12)

    def test_small_height_pair(self):
        sol = solve_min_abs(0.5, 2, 4.0)
        assert sol.regime == REGIME_BINOMIAL
        assert len(sol.polys) == 2
        assert sol.achieved_m == pytest.approx(1.0, rel=1e-12)
        assert sol.coeffs[0] == pytest.approx([-0.25, SQ3, 1.0], rel=1e-11)
        assert sol.coeffs[1] == pytest.approx([-0.25, -SQ3, 1.0], rel=1e-11)

    def test_large_height_multiplier(self):
        sol = solve_min_abs(2.0, 2, 2.0)
        assert sol.regime == REGIME_MULTIPLIER
        assert sol.lambda_or_b == pytest.approx(9.0, rel=1e-10)
        assert sol.achieved_m == pytest.approx(4.5, rel=1e-10)
        assert sol.achieved_disc.value == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("disc", [0.5, 1.0, 4.0, 1e6])
    def test_degree_thousand_meets_target(self, disc):
        # closed-form terms of size 1e4 cancel to a log disc of order 1
        sol = solve_min_abs(2.0, 1000, disc)
        got = log_disc_from_roots(sol.polys[0])
        assert rel_log_diff(got.log_abs, math.log(disc)) <= TOL_ORACLE

    @pytest.mark.parametrize("disc", [2.0, 4.0])
    def test_multiplier_end_nearer_the_target(self, disc):
        # near lambda = 2d - 2 one ulp of the multiplier moves the log disc
        # by about 1.4e-9, so the solve must return the better of its last
        # two iterates
        sol = solve_min_abs(0.5, 1000, disc)
        assert sol.regime == REGIME_MULTIPLIER
        closed = closed_form_disc(0.5, 1000, sol.lambda_or_b)
        for got in (closed.log_abs, sol.achieved_disc.log_abs):
            assert abs(got - math.log(disc)) <= 1e-9 * math.log(disc)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            solve_min_abs(1.0, 2, 0.0)
        with pytest.raises(DomainError):
            solve_min_abs(-1.0, 2, 4.0)
        with pytest.raises(DomainError):
            solve_min_abs(1.0, 1, 4.0)


def test_duality_roundtrip_both_regimes():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        a = float(rng.uniform(0.3, 2.0))
        disc = float(np.exp(rng.uniform(-2.0, 4.0)))
        fwd = solve_min_abs(a, d, disc)
        back = solve_max_disc(a, d, fwd.achieved_m)
        assert back.regime == fwd.regime
        assert rel_log_diff(back.achieved_disc.log_abs, math.log(disc)) < 1e-8


def _count_cases():
    """(solver, side, args): each public solve on the binomial side (-1),
    at the crossover (0) and on the multiplier side (+1)."""
    for d in (2, 5, 8, 400):
        # the height whose boundary member has discriminant 1, so that
        # every target is a float at d = 400 as well
        a = math.exp(bf.log_threshold_height(d, 0.0))
        log_m = (d - 1) * math.log(2.0) + d * math.log(a)  # the crossover
        log_ms = {-1: log_m + 2.0, 0: log_m, 1: d * math.log(a) + 0.5 * (d - 1) * math.log(2.0)}
        for side in (-1, 0, 1):
            yield solve_max_disc, side, (a, d, math.exp(log_ms[side]))
            yield solve_equilibrium, side, (a, d, -log_ms[side] / d)
            yield solve_min_abs, side, (a, d, math.exp(-side * d))


def test_each_solve_decides_once_and_checks_outside_newton(monkeypatch):
    # one crossover decision, and as many member, height and degree checks
    # at every degree, however many Newton steps the multiplier took
    counts = collections.Counter()
    sides = []
    for name in ("check_degree", "check_height"):
        check = getattr(errors, name)

        def counted_check(*args, _name=name, _check=check):
            counts[_name] += 1
            return _check(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("extremal_poly") and getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counted_check)
    side_of = bf.crossover_side

    def counted_side(a, d, log_p):
        sides.append(side_of(a, d, log_p))
        return sides[-1]

    check_member = jf._check_member

    def counted_check_member(a, d, lam):
        counts["_check_member"] += 1
        return check_member(a, d, lam)

    newton = jf._newton_multiplier

    def counted_newton(value_and_slope, target, d):
        def step(lam):
            counts["newton"] += 1
            return value_and_slope(lam)

        return newton(step, target, d)

    monkeypatch.setattr(bf, "crossover_side", counted_side)
    monkeypatch.setattr(jf, "_check_member", counted_check_member)
    monkeypatch.setattr(jf, "_newton_multiplier", counted_newton)
    checks, steps = collections.defaultdict(set), set()
    for solve, side, args in _count_cases():
        counts.clear()
        sides.clear()
        solve(*args)
        assert sides == [side], (solve.__name__, args)
        checks[solve.__name__, side].add(
            (counts["check_degree"], counts["check_height"], counts["_check_member"])
        )
        steps.add(counts["newton"])
    assert len(steps) > 2  # the multiplier solves took different step counts
    # (degree, height, member): the solve's own degree and height checks,
    # and on the multiplier side family_coeffs' member check, which makes
    # one of each; the roots come from the unchecked core
    for (name, side), seen in checks.items():
        want = (3, 4, 1) if side > 0 else (2, 3, 0)
        assert seen == {want}, (name, side)


def _answer_floats(sol):
    return (
        [x for poly in sol.polys for x in poly.roots]
        + [c for row in sol.coeffs for c in row]
        + [sol.lambda_or_b]
    )


@pytest.mark.parametrize("d", (8, bf._ARRAY_DEGREE))
def test_numpy_arguments_give_python_floats(d):
    # each public entry takes its height (and family_coeffs its multiplier)
    # as a float once, so the list bodies below bf._ARRAY_DEGREE give
    # Python floats, as the array bodies' tolist does
    one, lam = np.float64(1.0), np.float64(2.0 * d)
    # disc = 1 sits on the crossover at this height
    a_disc = math.exp(bf.log_threshold_height(d, 0.0))
    got = jf.family_coeffs(one, d, lam) + jf.family_roots(one, d, lam)
    for log_p in (-0.5, 0.0):
        got += bf.lattice_roots(one, d, log_p) + bf.binomial_coeffs(one, d, log_p)
    for frac in (0.5, 1.3):  # the multiplier side, then the binomial one
        log_m = frac * (d - 1) * math.log(2.0)
        sol = solve_max_disc(one, d, np.float64(math.exp(log_m)))
        assert sol.regime == (REGIME_MULTIPLIER if frac < 1.0 else REGIME_BINOMIAL)
        got += _answer_floats(sol)
        sol = solve_min_abs(np.float64(a_disc * (2.0 - frac)), d, 1.0)
        assert sol.regime == (REGIME_MULTIPLIER if frac < 1.0 else REGIME_BINOMIAL)
        got += _answer_floats(sol)
        config = solve_equilibrium(one, d, np.float64(-log_m / d))
        got += list(config.points) + [config.a]
    assert {type(x) for x in got} == {float}


# (a, d) grid around the crossover p = 1; targets are built from log p
_CROSSOVER_GRID = [
    (a, d) for a in (0.3, 0.5, 1.0, 2.0, 3.0) for d in (*range(2, 9), 20, 30, 60)
]


def _disc_at_log_p(a: float, d: int, log_p: float) -> float | None:
    """Discriminant whose phase ratio is exp(log_p); None outside float range."""
    log_disc = (2 * d - 2) * (
        0.5 * d * math.log(a)
        + (0.5 * d - 1) * math.log(2.0)
        + d / (2 * d - 2) * math.log(d)
        - log_p
    )
    return math.exp(log_disc) if abs(log_disc) < 700.0 else None


@pytest.mark.parametrize(
    "log_p",
    [2e-9, -2e-9, 1e-9, -1e-9, 5e-10, -5e-10, 1e-12, -1e-12, 1.5e-12, 3e-12, 0.0],
)
def test_min_abs_near_crossover(log_p):
    # every target within a few 1e-9 of the crossover gets an answer that
    # meets its discriminant, whichever side of the snap window it lands
    for a, d in _CROSSOVER_GRID:
        disc = _disc_at_log_p(a, d, log_p)
        if disc is None:
            continue
        sol = solve_min_abs(a, d, disc)
        got = log_disc_from_roots(sol.polys[0])
        assert got.sign == 1
        assert rel_log_diff(got.log_abs, math.log(disc)) <= 1e-9, (a, d)


def test_targets_on_the_snap_window_edge():
    # log p exactly one window from the crossover: the boundary member
    # would miss by the full 1e-9 plus rounding, so these must not snap
    disc = 1.687500001687501  # log p = -2.5e-10 at a = 0.5, d = 3
    sol = solve_min_abs(0.5, 3, disc)
    assert rel_log_diff(sol.achieved_disc.log_abs, math.log(disc)) <= 1e-9
    log_m = -math.log(2.0) - 1e-9  # crossover of a = 0.5, d = 60, minus 1e-9
    sol = solve_max_disc(0.5, 60, math.exp(log_m))
    assert rel_log_diff(math.log(sol.achieved_m), log_m) <= 1e-9


@pytest.mark.parametrize("log_p", [1e-7, -1e-7, 1e-3, -1e-3])
def test_duality_roundtrip_near_crossover(log_p):
    # outside both snap windows the modulus problem lands in the regime,
    # and with the polynomial count, of the discriminant problem
    for a, d in _CROSSOVER_GRID:
        disc = _disc_at_log_p(a, d, log_p)
        if disc is None:
            continue
        fwd = solve_min_abs(a, d, disc)
        back = solve_max_disc(a, d, fwd.achieved_m)
        assert fwd.regime == (REGIME_BINOMIAL if log_p < 0 else REGIME_MULTIPLIER)
        assert (back.regime, len(back.polys)) == (fwd.regime, len(fwd.polys)), (a, d)


@pytest.mark.parametrize("log_p", [2e-8, -2e-8, 1e-8, -1e-8])
def test_roundtrip_keeps_regime_at_the_window_edge(log_p):
    # at a = 2, d = 20 the modulus and discriminant windows once differed
    # twofold, so log p = +-1e-8 snapped in one solver and not the other;
    # one window serves both now, in either direction of the round trip
    a, d = 2.0, 20
    log_m = (d - 1) * math.log(2.0) + d * math.log(a) - log_p
    fwd = solve_min_abs(a, d, _disc_at_log_p(a, d, log_p))
    back = solve_max_disc(a, d, fwd.achieved_m)
    assert (back.regime, len(back.polys)) == (fwd.regime, len(fwd.polys))
    fwd = solve_max_disc(a, d, math.exp(log_m))
    back = solve_min_abs(a, d, fwd.achieved_disc.value)
    assert (back.regime, len(back.polys)) == (fwd.regime, len(fwd.polys))
    assert len(fwd.polys) == (2 if log_p < 0 else 1)


def test_min_abs_is_minimal_against_perturbations():
    # any nearby same-disc configuration must have larger modulus
    rng = np.random.default_rng(32)
    a, d, disc = 0.8, 3, 2.0
    sol = solve_min_abs(a, d, disc)
    base = np.array(sol.polys[0].roots)
    target = math.log(disc)
    for _ in range(20):
        pert = base + 1e-3 * rng.standard_normal(d)
        # rescale to restore the discriminant
        cur = log_disc_from_roots_arr(pert)
        t = math.exp((target - cur) / (d * (d - 1)))
        pert = pert * t
        m = math.exp(
            sum(0.5 * math.log(a * a + x * x) for x in pert)
        )
        assert m >= sol.achieved_m * (1.0 - 1e-9)


def log_disc_from_roots_arr(xs) -> float:
    total = 0.0
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            total += 2.0 * math.log(abs(xs[i] - xs[j]))
    return total


class TestLagrangeResiduals:
    def test_boundary_quadratic(self):
        res, mu = stationarity_residual([-1.0, 1.0], 1.0)
        assert res < 1e-12
        assert abs(mu / 2.0 - 1.0) < 1e-12

    def test_boundary_cubic(self):
        res, mu = stationarity_residual([-SQ3, 0.0, SQ3], 1.0)
        assert res < 1e-12
        assert abs(mu / 4.0 - 1.0) < 1e-12

    def test_wrong_multiplier_flags_loudly(self):
        _, mu = stationarity_residual([-1.0, 1.0], 1.0)
        assert abs(mu / 5.0 - 1.0) > 0.1

    def test_solver_output_is_stationary(self):
        sol = solve_min_abs(1.0, 4, 3.0)
        lam = (
            sol.lambda_or_b
            if sol.regime == REGIME_MULTIPLIER
            else 2.0 * 4 - 2.0
        )
        res, mu = stationarity_residual(sol.polys[0].roots, 1.0)
        assert res < 1e-9
        assert abs(mu / lam - 1.0) < 1e-9

    def test_large_degree_answers_are_certified(self):
        # both regimes, out to a root of 3.1e182 (d = 300, frac = 3) whose
        # squared gradient denominator would overflow; any RuntimeWarning
        # fails the test
        checked, far = 0, 0.0
        for d in (100, 300, 1000):
            for frac in (0.05, 0.5, 1.01, 3.0):
                if frac * (d - 1) >= 1024:
                    continue  # the target modulus is past float range
                sol = solve_max_disc(1.0, d, 2.0 ** (frac * (d - 1)))
                lam = (
                    sol.lambda_or_b
                    if sol.regime == REGIME_MULTIPLIER
                    else 2.0 * d - 2.0
                )
                for p in sol.polys:
                    res, mu = stationarity_residual(p.roots, 1.0)
                    assert res <= 1e-12, (d, frac, res)
                    assert abs(mu / lam - 1.0) <= 1e-14, (d, frac, mu, lam)
                    checked += 1
                    far = max(far, -p.roots[0], p.roots[-1])
        assert checked == 16
        assert far > 1e182

    @pytest.mark.parametrize("m", [3.0, 1e300])
    def test_tiny_height_is_scale_free(self, m):
        # at height 1e-200 grad g reaches 1e200, whose square overflows
        sol = solve_max_disc(1.0, 3, m)
        res, mu = stationarity_residual(sol.polys[0].roots, 1.0)
        tiny = [1e-200 * r for r in sol.polys[0].roots]
        res_tiny, mu_tiny = stationarity_residual(tiny, 1e-200)
        assert max(res, res_tiny) <= 1e-12
        assert mu_tiny == pytest.approx(mu, rel=1e-14)
        sol = solve_max_disc(1e-200, 3, 1e-300)  # roots 5.8e-201 and 7.5e99
        res, mu = stationarity_residual(sol.polys[0].roots, 1e-200)
        assert res <= 1e-12
        assert abs(mu / 4.0 - 1.0) <= 1e-14

    def test_moved_root_is_not_stationary(self):
        sol = solve_max_disc(1.0, 50, 2.0 ** (0.5 * 49))
        x = np.array(sol.polys[0].roots)
        assert stationarity_residual(x, 1.0)[0] <= 1e-12
        x[10] += 1e-6
        assert stationarity_residual(x, 1.0)[0] > 1e-7

    def test_coincident_roots_rejected(self):
        with pytest.raises(DomainError):
            stationarity_residual([0.5, -1.0, 0.5], 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_roots_rejected(self, bad):
        with pytest.raises(InputError, match="roots must be finite"):
            stationarity_residual([0.5, bad, -1.0], 1.0)


def test_verify_stationarity_lines_are_pinned():
    lines = {r.name: r.detail for r in run_suite(deep=True)}
    assert lines["lagrange-stationarity"] == "7 cases, worst residual <1e-12"
    assert lines["oracle-agreement"] == "6 cases, worst rel log err <1e-12"


class TestNumericOracle:
    def test_matches_multiplier_regime(self):
        res = numeric_oracle_max_discs(1.0, 2, [1.5], starts=6, seed=3)[0]
        sol = solve_max_disc(1.0, 2, 1.5)
        assert res.converged
        assert rel_log_diff(res.log_disc.log_abs, sol.achieved_disc.log_abs) < 1e-6

    def test_matches_binomial_regime(self):
        res = numeric_oracle_max_discs(0.5, 3, [1.0], starts=6, seed=3)[0]
        sol = solve_max_disc(0.5, 3, 1.0)
        assert rel_log_diff(res.log_disc.log_abs, sol.achieved_disc.log_abs) < 1e-6

    def test_constraint_respected(self):
        res = numeric_oracle_max_discs(1.0, 3, [2.0], starts=4, seed=5)[0]
        m = math.exp(sum(0.5 * math.log(1.0 + x * x) for x in res.roots))
        assert m == pytest.approx(2.0, rel=1e-10)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            numeric_oracle_max_discs(1.0, 7, [2.0])

    def test_regime_floor(self):
        with pytest.raises(RegimeError):
            numeric_oracle_max_discs(1.0, 2, [0.9])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_boundary_converges_in_few_iterations(self, d):
        # the optimum is degenerate at the crossover: quartic along one
        # tangent direction, where Newton converges only linearly
        m = 2.0 ** (d - 1)
        res = numeric_oracle_max_discs(1.0, d, [m], starts=32, seed=0)[0]
        assert res.starts_converged == 32
        assert res.iterations <= 60
        want = solve_max_disc(1.0, d, m).achieved_disc
        assert rel_log_diff(res.log_disc.log_abs, want.log_abs) <= 1e-9

    @pytest.mark.parametrize("a, m", [(1.0, 2.0), (0.5, 1.0)])
    def test_roots_are_stieltjes_stationary(self, a, m):
        # sum_{j != k} 2/(x_k - x_j) = mu x_k / (a^2 + x_k^2) for one mu:
        # the electrostatic equilibrium of the maximiser
        res = numeric_oracle_max_discs(a, 3, [m], starts=8, seed=0)[0]
        x = np.array(res.roots)
        assert stationarity_residual(x, a)[0] <= 1e-8
        sol = solve_max_disc(a, 3, m)
        assert min(
            np.max(np.abs(x - np.array(p.roots))) for p in sol.polys
        ) <= 1e-6

    def test_deterministic_given_seed(self):
        r1 = numeric_oracle_max_discs(1.0, 2, [1.7], starts=4, seed=11)[0]
        r2 = numeric_oracle_max_discs(1.0, 2, [1.7], starts=4, seed=11)[0]
        assert r1.roots == r2.roots
        assert r1.log_disc.log_abs == r2.log_disc.log_abs

    @pytest.mark.parametrize("a, d", [(1.0, 2), (1.0, 3), (0.7, 4), (2.0, 5)])
    def test_batch_equals_single_calls_bitwise(self, a, d):
        # fractions of the crossover exponent below 1 are multiplier
        # targets, above 1 binomial ones, and 1 is the boundary member
        ms = [a**d * 2.0 ** (f * (d - 1)) for f in (1.3, 0.4, 1.0, 0.9, 1.05, 0.2)]
        batch = numeric_oracle_max_discs(a, d, ms, starts=5, seed=3)
        assert batch == [
            numeric_oracle_max_discs(a, d, [m], starts=5, seed=3)[0] for m in ms
        ]

    def test_rejected_flat_step_stops_the_start(self, monkeypatch):
        # a start whose fresh step is rejected while promising no more than
        # the tolerance stops at once instead of halving it 60 times
        calls = []
        rescale = oracles._rescale_to_modulus

        def counted(x, target):
            calls.append(x.shape[0])
            return rescale(x, target)

        monkeypatch.setattr(oracles, "_rescale_to_modulus", counted)
        res = numeric_oracle_max_discs(1.0, 2, [1.7])[0]
        assert res.converged and res.starts_converged == 32
        assert len(calls) <= res.iterations + 2

    @pytest.mark.parametrize("a, d", [(1e100, 3), (1e-100, 3), (1e-150, 2), (1e150, 2)])
    def test_extreme_heights_solve_in_the_unit_chart(self, a, d):
        m = a**d * 2.0 ** ((d - 1) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = numeric_oracle_max_discs(a, d, [m], starts=8, seed=7)[0]
        want = solve_max_disc(a, d, m).achieved_disc
        assert res.converged
        assert rel_log_diff(res.log_disc.log_abs, want.log_abs) <= 1e-12

    @pytest.mark.parametrize("m", [1e30, 1e70])
    def test_stalled_starts_are_not_converged(self, m):
        # every start stops on small gains along the flat direction, well
        # below the maximum (log disc 213 against 275 at m = 1e30), with a
        # stationarity residual near 0.7
        res = numeric_oracle_max_discs(1.0, 3, [m])[0]
        want = solve_max_disc(1.0, 3, m).achieved_disc
        assert rel_log_diff(res.log_disc.log_abs, want.log_abs) > 0.1
        assert not res.converged and res.starts_converged == 0

    @pytest.mark.parametrize("a, d, m", [(1e-200, 2, 1.0), (1.0, 3, 1e100)])
    def test_targets_past_the_unit_chart_bound_are_refused(self, a, d, m):
        # log m - d log a is 921 and 230: feasible unit-chart roots reach
        # up to e^T, and past T = 256 log 2 their (1 + x^2)^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="256 log 2"):
                numeric_oracle_max_discs(a, d, [m])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": 2.5},
            {"starts": True},
            {"starts": 0},
            {"seed": -1},
            {"seed": 1.0},
            {"d": 7},
            {"a": 0.0},
            {"ms": []},
        ],
    )
    def test_argument_validation(self, kwargs):
        args = {"a": 1.0, "d": 2, "ms": [1.5]}
        args.update(kwargs)
        with pytest.raises(DomainError):
            numeric_oracle_max_discs(**args)


def _mpmath_coeff_rows(mp, sol, a, d):
    """The closed-form coefficient rows of sol at its own lambda or B, to
    60 digits: the multiplier member's (-1)^k a^(2k) C(d,2k) (2k-1)!! /
    prod_{j<=k} (lam - 2d + 2j + 1) at x^(d-2k), or the binomial pair's
    (-1)^(n/2) C(d,n) a^n and (-1)^((n-1)/2) C(d,n) B a^(n-1) / d at x^(d-n)."""
    a = mp.mpf(a)
    if sol.regime == REGIME_MULTIPLIER:
        lam = mp.mpf(sol.lambda_or_b)
        row = [mp.mpf(0)] * (d + 1)
        den = mp.mpf(1)
        for k in range(d // 2 + 1):
            if k:
                den *= lam - 2 * d + 2 * k + 1
            row[d - 2 * k] = (-1) ** k * a ** (2 * k) * mp.binomial(d, 2 * k) * (
                mp.fac2(2 * k - 1) / den
            )
        return [row]
    rows = []
    for b in (sol.lambda_or_b, -sol.lambda_or_b)[: len(sol.polys)]:
        b, row = mp.mpf(b), []
        for n in range(d, -1, -1):
            if n % 2:
                sign = (-1) ** ((n - 1) // 2)
                row.append(sign * mp.binomial(d, n) * b * a ** (n - 1) / d)
            else:
                row.append((-1) ** (n // 2) * mp.binomial(d, n) * a**n)
        rows.append(row)
    return rows


# m = a^d 2^(frac (d - 1)); at a = 1, d = 1000, frac = 1.5 it is 2^1498.5,
# past float range, so that target cannot be asked for
_COEFF_GRID = [
    (a, d, frac)
    for a, ds in ((1.0, (20, 60, 200, 1000)), (0.3, (20, 200)), (2.0, (20, 200)))
    for d in ds
    for frac in (0.5, 0.999, 1.01, 1.5)
    if (a, d, frac) != (1.0, 1000, 1.5)
]


@pytest.mark.parametrize("a, d, frac", _COEFF_GRID)
def test_coeffs_match_mpmath_closed_forms(a, d, frac):
    # every coefficient in [1e-300, 1e300] is within 2e-14 of 60-digit
    # mpmath, and exact zeros are 0; a row with an inf (which the CLI
    # prints as null) must really hold a coefficient past float range
    mp = pytest.importorskip("mpmath")
    sol = solve_max_disc(a, d, a**d * 2.0 ** (frac * (d - 1)))
    assert len(sol.coeffs) == len(sol.polys)
    with mp.workdps(60):
        rows = _mpmath_coeff_rows(mp, sol, a, d)
        for got, want in zip(sol.coeffs, rows):
            assert len(got) == d + 1 and got[d] == 1.0
            if not all(math.isfinite(c) for c in got):
                assert max(abs(w) for w in want) > sys.float_info.max
                continue
            for g, w in zip(got, want):
                if w == 0:
                    assert g == 0.0
                elif 1e-300 <= abs(w) <= 1e300:
                    assert abs(mp.mpf(g) / w - 1) <= 2e-14, (g, w)
