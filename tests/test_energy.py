import math

import numpy as np
import pytest

from extremal_poly.binomial_family import tangent_lattice_roots
from extremal_poly.energy import (
    arctan_cdf_distance,
    config_from_points,
    energy_lower_bound,
    solve_equilibrium,
)
from extremal_poly.errors import DomainError

LOG2 = math.log(2.0)


def test_config_from_points_pair():
    cfg = config_from_points([1.0, -1.0], 1.0)
    assert cfg.points == (1.0, -1.0)  # caller order preserved
    assert cfg.potential_v == pytest.approx(-LOG2 / 2.0, abs=1e-15)
    assert cfg.energy_I == pytest.approx(-LOG2, abs=1e-15)


def test_config_from_points_cubic_lattice():
    s = math.sqrt(3.0)
    cfg = config_from_points([-s, 0.0, s], 1.0)
    assert cfg.potential_v == pytest.approx(-math.log(4.0) / 3.0, abs=1e-14)
    assert cfg.energy_I == pytest.approx(-math.log(108.0) / 6.0, abs=1e-14)


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


def test_arctan_cdf_distance_pair():
    # two charges at +-1, a = 1: worst jump gap is 1/4
    cfg = config_from_points([-1.0, 1.0], 1.0)
    assert arctan_cdf_distance(cfg) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("d", [10, 100, 1000])
def test_arctan_cdf_distance_lattice(d):
    # the tangent lattice hits the arctan quantiles exactly, so the
    # two-sided gap collapses to the half-jump 1/(2d)
    phase = 0.0 if d % 2 else math.pi / (2.0 * d)
    pts = tangent_lattice_roots(1.0, d, phase)
    cfg = config_from_points(pts, 1.0)
    assert arctan_cdf_distance(cfg) == pytest.approx(0.5 / d, rel=1e-6)


def test_arctan_cdf_distance_decreases_along_lattices():
    dist = []
    for d in (10, 100, 1000):
        phase = 0.0 if d % 2 else math.pi / (2.0 * d)
        pts = tangent_lattice_roots(1.0, d, phase)
        dist.append(arctan_cdf_distance(config_from_points(pts, 1.0)))
    assert dist[0] > dist[1] > dist[2]
    for d, x in zip((10, 100, 1000), dist):
        assert x <= 3.0 / d
