import math

import numpy as np
import pytest

from extremal_poly.errors import DomainError, RegimeError
from extremal_poly.poly_core import (
    TOL_ORACLE,
    log_disc_from_roots,
    modulus_at_ai,
    rel_log_diff,
)
from extremal_poly.solvers import (
    PROBLEM_MAX_DISC,
    PROBLEM_MIN_ABS,
    REGIME_BINOMIAL,
    REGIME_MULTIPLIER,
    lagrange_residuals,
    numeric_oracle_max_disc,
    solve_max_disc,
    solve_min_abs,
)

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
        assert sol.polys[0].coeffs == pytest.approx([-0.5, 0.0, 1.0], abs=1e-14)
        assert sol.achieved_disc.value == pytest.approx(2.0, rel=1e-11)

    def test_rejects_modulus_at_or_below_floor(self):
        with pytest.raises(RegimeError):
            solve_max_disc(1.0, 2, 1.0)
        with pytest.raises(RegimeError):
            solve_max_disc(2.0, 3, 7.9)

    def test_achieved_values_recomputed_from_roots(self):
        sol = solve_max_disc(0.7, 4, 1.9)
        p = sol.polys[0]
        assert sol.achieved_m == pytest.approx(modulus_at_ai(p, 0.7), rel=1e-13)
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
        assert sol.polys[0].coeffs == pytest.approx([-0.25, SQ3, 1.0], rel=1e-11)
        assert sol.polys[1].coeffs == pytest.approx([-0.25, -SQ3, 1.0], rel=1e-11)

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
        from extremal_poly.poly_core import poly_from_roots

        ode, rec = lagrange_residuals(poly_from_roots([-1.0, 1.0]), 2.0)
        assert ode < 1e-12
        assert rec < 1e-12

    def test_boundary_cubic(self):
        from extremal_poly.poly_core import poly_from_roots

        ode, rec = lagrange_residuals(
            poly_from_roots([-SQ3, 0.0, SQ3]), 4.0
        )
        assert ode < 1e-12
        assert rec < 1e-12

    def test_wrong_multiplier_flags_loudly(self):
        from extremal_poly.poly_core import poly_from_roots

        ode, rec = lagrange_residuals(poly_from_roots([-1.0, 1.0]), 5.0)
        assert rec > 0.1

    def test_solver_output_is_stationary(self):
        sol = solve_min_abs(1.0, 4, 3.0)
        lam = (
            sol.lambda_or_b
            if sol.regime == REGIME_MULTIPLIER
            else 2.0 * 4 - 2.0
        )
        # residual contract holds at height 1 directly
        ode, rec = lagrange_residuals(sol.polys[0], lam)
        assert ode < 1e-9
        assert rec < 1e-9


class TestNumericOracle:
    def test_matches_multiplier_regime(self):
        res = numeric_oracle_max_disc(1.0, 2, 1.5, starts=6, seed=3)
        sol = solve_max_disc(1.0, 2, 1.5)
        assert res.converged
        assert rel_log_diff(res.log_disc.log_abs, sol.achieved_disc.log_abs) < 1e-6

    def test_matches_binomial_regime(self):
        res = numeric_oracle_max_disc(0.5, 3, 1.0, starts=6, seed=3)
        sol = solve_max_disc(0.5, 3, 1.0)
        assert rel_log_diff(res.log_disc.log_abs, sol.achieved_disc.log_abs) < 1e-6

    def test_constraint_respected(self):
        res = numeric_oracle_max_disc(1.0, 3, 2.0, starts=4, seed=5)
        m = math.exp(sum(0.5 * math.log(1.0 + x * x) for x in res.roots))
        assert m == pytest.approx(2.0, rel=1e-10)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            numeric_oracle_max_disc(1.0, 7, 2.0)

    def test_regime_floor(self):
        with pytest.raises(RegimeError):
            numeric_oracle_max_disc(1.0, 2, 0.9)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_boundary_converges_in_few_iterations(self, d):
        # the optimum is degenerate at the crossover: quartic along one
        # tangent direction, where Newton converges only linearly
        m = 2.0 ** (d - 1)
        res = numeric_oracle_max_disc(1.0, d, m, starts=32, seed=0)
        assert res.starts_converged == 32
        assert res.iterations <= 60
        want = solve_max_disc(1.0, d, m).achieved_disc
        assert rel_log_diff(res.log_disc.log_abs, want.log_abs) <= 1e-9

    @pytest.mark.parametrize("a, m", [(1.0, 2.0), (0.5, 1.0)])
    def test_roots_are_stieltjes_stationary(self, a, m):
        # sum_{j != k} 1/(x_k - x_j) = nu x_k / (a^2 + x_k^2) for one nu:
        # the electrostatic equilibrium of the maximiser
        res = numeric_oracle_max_disc(a, 3, m, starts=8, seed=0)
        x = np.array(res.roots)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        force = np.sum(1.0 / diff, axis=1)
        pull = x / (a * a + x * x)
        nu = (force @ pull) / (pull @ pull)
        residual = np.max(np.abs(force - nu * pull)) / np.max(np.abs(force))
        assert residual <= 1e-8
        sol = solve_max_disc(a, 3, m)
        assert min(
            np.max(np.abs(x - np.array(p.roots))) for p in sol.polys
        ) <= 1e-6

    def test_deterministic_given_seed(self):
        r1 = numeric_oracle_max_disc(1.0, 2, 1.7, starts=4, seed=11)
        r2 = numeric_oracle_max_disc(1.0, 2, 1.7, starts=4, seed=11)
        assert r1.roots == r2.roots
        assert r1.log_disc.log_abs == r2.log_disc.log_abs
