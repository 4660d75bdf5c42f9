import itertools
import json
import math
import re

import numpy as np
import pytest

import extremal_poly.binomial_family as bf
from extremal_poly.binomial_family import lattice_roots
from extremal_poly.cli import main
from extremal_poly.energy import (
    ChargeConfig,
    arctan_cdf_distance,
    config_from_points,
    energy_lower_bound,
    solve_equilibrium,
)
from extremal_poly.errors import DomainError, InputError, RegimeError
from extremal_poly.solvers import (
    REGIME_BINOMIAL,
    REGIME_MULTIPLIER,
    _max_disc,
    solve_max_disc,
)

LOG2 = math.log(2.0)


def test_config_from_points_pair():
    cfg = config_from_points([1.0, -1.0], 1.0)
    assert cfg.points == (1.0, -1.0)  # caller order preserved
    assert cfg.potential_v == pytest.approx(-LOG2 / 2.0, abs=1e-15)
    assert cfg.energy_I == pytest.approx(-LOG2, abs=1e-15)


@pytest.mark.parametrize(
    "points, error, message",
    [
        ([], DomainError, "need degree >= 2, got 0 roots"),
        ([1.0], DomainError, "need degree >= 2, got 1 roots"),
        ([0.0, math.nan], InputError, "roots must be finite"),
        ([-math.inf, 1.0], InputError, "roots must be finite"),
    ],
)
def test_config_from_points_refuses_what_poly_from_roots_refuses(points, error, message):
    with pytest.raises(error) as err:
        config_from_points(points, 1.0)
    assert str(err.value) == message


def test_config_from_points_cubic_lattice():
    s = math.sqrt(3.0)
    cfg = config_from_points([-s, 0.0, s], 1.0)
    assert cfg.potential_v == pytest.approx(-math.log(4.0) / 3.0, abs=1e-14)
    assert cfg.energy_I == pytest.approx(-math.log(108.0) / 6.0, abs=1e-14)


@pytest.mark.parametrize("d", [3, 30, 300])
@pytest.mark.parametrize("u", [0.6, 1.02])  # multiplier / binomial side
def test_solve_equilibrium_reuses_solver_discriminant(d, u):
    # the config built from the solver's discriminant is the one that
    # config_from_points recomputes from the same roots, bit for bit
    a = 1.0
    v = -u * (d - 1) * LOG2 / d
    cfg = solve_equilibrium(a, d, v)
    roots = solve_max_disc(a, d, math.exp(-v * d)).polys[0].roots
    ref = config_from_points(roots, a)
    assert cfg.points == ref.points
    assert repr(cfg.potential_v) == repr(ref.potential_v)
    assert repr(cfg.energy_I) == repr(ref.energy_I)


def test_coincident_points_have_infinite_energy():
    cfg = config_from_points([0.5, 0.5, 1.0], 1.0)
    assert cfg.energy_I == math.inf


def _list_energy(pts) -> float:
    # reference: every pairwise term materialised, then summed
    srt = sorted(pts)
    d = len(srt)
    terms = []
    for j in range(d):
        for k in range(j + 1, d):
            diff = srt[k] - srt[j]
            if diff == 0.0:
                return math.inf
            terms.append(2.0 * math.log(diff))
    return -math.fsum(terms) / (d * (d - 1.0))


def test_energy_equals_list_reference_bitwise():
    rng = np.random.default_rng(16)
    for trial in range(40):
        pts = list(rng.uniform(-3, 3, size=int(rng.integers(2, 60))))
        if trial % 3 == 0:
            pts[0] = pts[-1]
        cfg = config_from_points(pts, 1.0)
        assert cfg.energy_I == _list_energy(pts)
        hyp = [math.log(math.hypot(1.0, x)) for x in pts]
        assert cfg.potential_v == -math.fsum(hyp) / len(pts)


def test_energy_lower_bound_admissibility():
    with pytest.raises(DomainError):
        energy_lower_bound(1.0, 2, 0.0)  # v >= -log(a) is unreachable
    with pytest.raises(DomainError):
        energy_lower_bound(2.0, 3, -LOG2)
    # strictly admissible values pass
    energy_lower_bound(1.0, 2, -0.01)


def test_equilibrium_attains_bound_in_steep_regime():
    # equality needs v <= (1/d - 1) log 2 - log a; draw safely below
    rng = np.random.default_rng(41)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        a = float(rng.uniform(0.4, 2.0))
        v = -math.log(a) - LOG2 - float(rng.uniform(0.02, 1.2))
        cfg = solve_equilibrium(a, d, v)
        bound = energy_lower_bound(a, d, v)
        assert cfg.energy_I == pytest.approx(bound, abs=1e-9)
        assert cfg.potential_v == pytest.approx(v, abs=1e-9)


def test_equilibrium_exceeds_bound_in_shallow_regime():
    # a=1, d=2, v = -(1/2) log 1.5: points +-1/sqrt(2), I = -(1/2) log 2,
    # strictly above the closed-form bound -log 1.5
    v = -0.5 * math.log(1.5)
    cfg = solve_equilibrium(1.0, 2, v)
    assert cfg.points == pytest.approx(
        [-math.sqrt(0.5), math.sqrt(0.5)], rel=1e-10
    )
    assert cfg.energy_I == pytest.approx(-0.5 * LOG2, abs=1e-10)
    assert cfg.energy_I > energy_lower_bound(1.0, 2, v) + 1e-3


def test_equilibrium_boundary_quartic():
    # v = -(1/4) log 8 sits exactly on the regime boundary: the points are
    # the roots of x^4 - 6x^2 + 1 and I = -(1/12) log 16384
    cfg = solve_equilibrium(1.0, 4, -math.log(8.0) / 4.0)
    assert cfg.energy_I == pytest.approx(-math.log(16384.0) / 12.0, abs=1e-10)
    want = sorted(math.tan(math.pi / 8 + k * math.pi / 4) for k in range(4))
    assert cfg.points == pytest.approx(want, rel=1e-9)


def test_equilibrium_energy_is_minimal():
    a, d, v = 1.0, 4, -0.9
    cfg = solve_equilibrium(a, d, v)
    rng = np.random.default_rng(42)
    pts = np.array(cfg.points)
    for _ in range(25):
        trial = pts + 1e-2 * rng.standard_normal(d)
        # restore the potential constraint by a global rescale
        t = 1.0
        for _ in range(60):
            val = np.mean(0.5 * np.log(a * a + (t * trial) ** 2)) + v
            slope = np.mean((t * trial) ** 2 / (a * a + (t * trial) ** 2))
            if abs(val) < 1e-14:
                break
            t *= math.exp(-val / max(slope, 1e-9))
        moved = config_from_points(t * trial, a)
        assert moved.energy_I > cfg.energy_I


@pytest.mark.parametrize(
    "d, v, regime", [(1000, -0.9, REGIME_BINOMIAL), (3000, -0.5, REGIME_MULTIPLIER)]
)
def test_equilibrium_past_a_float_modulus(d, v, regime):
    # |f(ai)| = e^(-v d) = e^900 and e^1500 are past float range; the
    # solve takes log m = -v d as it is and never forms them
    cfg = solve_equilibrium(1.0, d, v)
    x = cfg.points
    assert len(x) == d and all(map(math.isfinite, x))
    assert all(p < q for p, q in zip(x, x[1:]))
    assert cfg.potential_v == pytest.approx(v, rel=1e-12)
    assert _max_disc(1.0, d, -v * d).regime == regime


_FAR = "largest root a*d/p is past float range (log p = %s is below log(a d) - 709.78)"


def _solver_refusal(a, d, log_m) -> str:
    with pytest.raises(DomainError) as err:
        _max_disc(a, d, log_m)
    return str(err.value)


def test_equilibrium_past_float_range_is_named():
    # -v d = 1e309 rounds to inf: the solver refuses its largest root, and
    # the refusal quotes the potential before the solver's reason
    with pytest.raises(DomainError) as err:
        solve_equilibrium(1.0, 10, -1e308)
    assert str(err.value) == "potential v = -1e+308: " + _FAR % "-inf"


@pytest.mark.parametrize("d", [2, 10])
def test_equilibrium_largest_root_past_float_range_is_named(d):
    # -v d = 1e307 d is a float, but the largest root a d / p is not
    with pytest.raises(DomainError) as err:
        solve_equilibrium(1.0, d, -1e307)
    want = _solver_refusal(1.0, d, 1e307 * d)
    assert str(err.value) == "potential v = -1e+307: " + want


@pytest.mark.parametrize("a", [0.3, 1.0, 7.0])
@pytest.mark.parametrize("d", [2, 5, 50])
def test_equilibrium_largest_root_refusal_is_the_roots_own(a, d):
    # log(a d) - log p, log p = v d + (d - 1) log 2 + d log a, reaches the
    # exp overflow threshold log(max float) at v0; the refusal must start
    # where lattice_roots' own would, to the last float of v
    log_max = math.log(np.finfo(float).max)
    v0 = (math.log(d) - log_max - (d - 1) * LOG2 - (d - 1) * math.log(a)) / d
    answered = refused = 0
    v = v0
    for _ in range(16):
        v = math.nextafter(v, math.inf)
    for _ in range(32):
        log_p = bf._log_phase_of_modulus(a, d, -v * d)
        try:
            bf.lattice_roots(a, d, log_p)
        except DomainError:
            with pytest.raises(DomainError, match=r"potential v = [^:]*: largest root a\*d/p"):
                solve_equilibrium(a, d, v)
            refused += 1
        else:
            assert len(solve_equilibrium(a, d, v).points) == d
            answered += 1
        v = math.nextafter(v, -math.inf)
    assert answered and refused


def test_equilibrium_numpy_potential_past_float_range_is_named():
    # -v d overflows in numpy float64 with a RuntimeWarning (an error
    # under this suite's warning filter); a numpy v is refused as a float is
    with pytest.raises(DomainError) as err:
        solve_equilibrium(1.0, 200, np.float64(-1e307))
    assert str(err.value) == "potential v = -1e+307: " + _FAR % "-inf"


def test_cli_names_the_potential_past_float_range(capsys):
    assert main(["energy", "--a", "1", "--d", "2", "--v", "-1e308"]) == 2
    err = capsys.readouterr().err
    assert err == "error: potential v = -1e+308: %s\n" % (_FAR % "-inf")


def test_cli_names_the_potential_of_a_largest_root_past_float_range(capsys):
    assert main(["energy", "--a", "1", "--d", "2", "--v", "-1e307"]) == 2
    err = capsys.readouterr().err
    assert err == "error: potential v = -1e+307: %s\n" % (_FAR % "-2e+307")


def test_equilibrium_at_a_height_near_the_largest_float():
    # the largest root is about 7.01e306 at lam = 3506.5; the recurrence's
    # a sqrt(r) alone would overflow before its division by sqrt(lam)
    v = -709.1972086421661
    cfg = solve_equilibrium(1e308, 8, v)
    x = cfg.points
    assert len(x) == 8 and all(map(math.isfinite, x))
    assert all(p < q for p, q in zip(x, x[1:]))
    assert x[-1] == pytest.approx(7.014168482286091e306, rel=1e-14)
    assert cfg.potential_v == v


def test_cli_answers_at_a_height_near_the_largest_float(capfd):
    assert main(["energy", "--a", "1e308", "--d", "8", "--v", "-709.1972086421661"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert len(json.loads(out)["points"]) == 8


def test_cli_refuses_multiplier_roots_past_float_range(capfd):
    # near the crossover at a = 1e308 the largest root passes the largest float
    assert main(["energy", "--a", "1e308", "--d", "8", "--v", "-709.8"]) == 2
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    want = r"error: potential v = -709\.8: multiplier roots are past float range \(d = 8, .*\)\n"
    assert re.fullmatch(want, err)


@pytest.mark.parametrize("p", [0.86, 0.9, 0.99])
def test_equilibrium_answers_where_the_solver_answers(p):
    # the pole root a cot(arcsin(p)/d) is below a d/p: at a = 1e308 it is
    # a float from p = 0.85 or so on, and energy answers as the solver does
    a, d = 1e308, 2
    v = -(LOG2 + 2.0 * math.log(a) - math.log(p)) / 2.0
    assert len(_max_disc(a, d, -v * d).polys[0].roots) == d
    cfg = solve_equilibrium(a, d, v)
    x = cfg.points
    assert len(x) == d and all(map(math.isfinite, x)) and x[0] < x[1]
    assert abs(cfg.potential_v - v) <= 1e-12 * abs(v)
    assert math.isfinite(cfg.energy_I)


_HUGE = 1.7976931348623157e308


@pytest.mark.parametrize(
    "a, d, v",
    [(_HUGE, d, -709.8) for d in (2, 3, 8, 300)]
    + [(_HUGE, d, -710.0) for d in (2, 3)]
    + [(1e308, d, -709.5) for d in (2, 3)]
    + [(1e307, d, -707.5) for d in (25, 64)],
)
def test_cli_evidence_at_huge_heights(capfd, a, d, v):
    # the roots are floats near +-1.6e308, their gaps and |x + ai| not
    mp = pytest.importorskip("mpmath")
    assert main(["energy", "--a", repr(a), "--d", str(d), "--v=%r" % v]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    r = json.loads(out)
    x = r["points"]
    assert len(x) == d and all(map(math.isfinite, x))
    assert all(p < q for p, q in zip(x, x[1:]))
    assert abs(r["potential_v"] - v) <= 1e-12 * abs(v)
    with mp.workdps(40):
        log_disc = 2 * mp.fsum(mp.log(mp.mpf(q) - p) for p, q in itertools.combinations(x, 2))
        want = -log_disc / (d * (d - 1))
        assert abs(r["energy_I"] - want) <= 1e-13 * abs(want)


def test_equilibrium_potential_that_rounds_onto_the_floor():
    # v is one float below -log a, but -v d and d log a round to one
    # float: no modulus above a^d is left to solve for
    a, d = 15.774212707890788, 49
    v = math.nextafter(-math.log(a), -math.inf)
    assert -v * d == d * math.log(a)
    with pytest.raises(RegimeError, match="m must exceed a"):
        solve_equilibrium(a, d, v)


def test_arctan_cdf_distance_pair():
    # two charges at +-1, a = 1: worst jump gap is 1/4
    cfg = config_from_points([-1.0, 1.0], 1.0)
    assert arctan_cdf_distance(cfg) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("d", [10, 100, 1000])
def test_arctan_cdf_distance_lattice(d):
    # the tangent lattice hits the arctan quantiles exactly, so the
    # two-sided gap collapses to the half-jump 1/(2d)
    pts = lattice_roots(1.0, d, 0.0)
    cfg = config_from_points(pts, 1.0)
    assert arctan_cdf_distance(cfg) == pytest.approx(0.5 / d, rel=1e-6)


def test_arctan_cdf_distance_of_a_nan_point_is_nan():
    # a NaN deviation must not drop out of the running worst
    pts = list(lattice_roots(1.0, 10, 0.0))
    pts[3] = math.nan
    cfg = ChargeConfig(tuple(pts), 1.0, 0.0, 0.0)
    assert math.isnan(arctan_cdf_distance(cfg))


def test_arctan_cdf_distance_decreases_along_lattices():
    dist = []
    for d in (10, 100, 1000):
        pts = lattice_roots(1.0, d, 0.0)
        dist.append(arctan_cdf_distance(config_from_points(pts, 1.0)))
    assert dist[0] > dist[1] > dist[2]
    for d, x in zip((10, 100, 1000), dist):
        assert x <= 3.0 / d
