import math

import numpy as np
import pytest

from extremal_poly.errors import DomainError, InputError
from extremal_poly.lemniscate import (
    DiskResult,
    inscribed_disk_poly,
    _halfwidth_grid,
    largest_disk,
    radius_lower_bound,
    radius_upper_bound,
    vertical_halfwidth,
)
from extremal_poly.poly_core import log_disc_from_roots, poly_from_roots

HALF_SQRT2 = math.sqrt(0.5)


def test_halfwidth_on_boundary_point():
    # |f(0)| = 1 exactly for x^2 - 1, so the halfwidth there is 0
    p = poly_from_roots([-1.0, 1.0])
    assert vertical_halfwidth(p, 0.0) == 0.0


@pytest.mark.parametrize("x", [1e-4, 0.01, 0.25, 0.5, 1.0, 1.2])
def test_halfwidth_closed_form(x):
    # |(x+iy)^2 - 1| = 1 at y^2 = sigma - 1 - x^2, sigma = sqrt(1 + 4x^2),
    # written without the cancellation near x = 0; x = 1 is a root and
    # x = 1e-4 sits next to the boundary point x = 0
    p = poly_from_roots([-1.0, 1.0])
    sigma = math.sqrt(1.0 + 4.0 * x * x)
    want = x * math.sqrt((3.0 - sigma) / (sigma + 1.0))
    assert vertical_halfwidth(p, x) == pytest.approx(want, abs=1e-14)


def test_halfwidth_grid_rows_are_independent():
    # one array of 200 centers or 200 one-element calls: the same bits
    rng = np.random.default_rng(4242)
    roots = np.sort(rng.uniform(-2.0, 2.0, 20))
    xs = np.linspace(roots[0] - 1.0, roots[-1] + 1.0, 200)
    batch = _halfwidth_grid(roots, xs)
    single = [_halfwidth_grid(roots, np.array([x]))[0] for x in xs]
    assert batch.tobytes() == np.array(single).tobytes()
    assert np.count_nonzero(batch) > 100


def test_halfwidth_above_root():
    # |(1+iy)^2 - 1| = 1 at y^2 = sqrt(5) - 2
    p = poly_from_roots([-1.0, 1.0])
    want = math.sqrt(math.sqrt(5.0) - 2.0)
    assert vertical_halfwidth(p, 1.0) == pytest.approx(want, abs=1e-12)


def test_halfwidth_outside():
    p = poly_from_roots([-1.0, 1.0])
    assert vertical_halfwidth(p, 5.0) == 0.0


def test_halfwidth_symmetric_in_even_poly():
    p = poly_from_roots([-HALF_SQRT2, HALF_SQRT2])
    for t in (0.1, 0.35, 0.6):
        assert vertical_halfwidth(p, t) == pytest.approx(
            vertical_halfwidth(p, -t), abs=1e-12
        )


def test_halfwidth_rejects_nonfinite():
    p = poly_from_roots([-1.0, 1.0])
    with pytest.raises(InputError):
        vertical_halfwidth(p, math.inf)


def test_largest_disk_centered_family():
    # x^2 - 1/2 has its fattest disk at the origin with radius 2^(-1/2)
    p = poly_from_roots([-HALF_SQRT2, HALF_SQRT2])
    disk = largest_disk(p)
    assert disk.has_interior
    assert disk.radius == pytest.approx(HALF_SQRT2, abs=1e-9)
    # the halfwidth peak is quartically flat here, so the center is only
    # pinned to the flat plateau
    assert abs(disk.center_x) < 1e-3
    assert disk.boundary_point == pytest.approx(
        complex(disk.center_x, disk.radius)
    )


def test_largest_disk_off_axis_peak():
    # for x^2 - 1 the best center is not over a root: radius 1/2 at
    # x = +-sqrt(3)/2 (check: |f|^2 = 1 there with y = 1/2)
    p = poly_from_roots([-1.0, 1.0])
    disk = largest_disk(p)
    assert disk.radius == pytest.approx(0.5, abs=1e-9)
    assert abs(disk.center_x) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-6)


def test_largest_disk_respects_interval():
    p = poly_from_roots([-1.0, 1.0])
    disk = largest_disk(p, interval=(5.0, 6.0))
    assert not disk.has_interior
    assert disk.radius == 0.0


def test_largest_disk_interval_validation():
    p = poly_from_roots([-1.0, 1.0])
    with pytest.raises(InputError):
        largest_disk(p, interval=(2.0, 1.0))


def test_radius_bounds_spec_values():
    assert radius_upper_bound(2, 2.0) == pytest.approx(HALF_SQRT2, rel=1e-14)
    assert radius_upper_bound(2, 4.0) == pytest.approx(0.5, rel=1e-14)
    assert radius_lower_bound(2, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert radius_lower_bound(2, 4.0) is None  # above the window
    assert radius_lower_bound(2, 0.5) is None  # below the window
    assert radius_lower_bound(3, 1.0) == pytest.approx(
        2.0 ** (2.0 / 3.0 - 1.0) * 3.0 ** (-0.5), rel=1e-14
    )


def test_radius_lower_bound_constant_across_window():
    vals = {radius_lower_bound(4, D) for D in (1.0, 2.0, 8.0, 15.0)}
    assert len(vals) == 1


def test_radius_bounds_validation():
    with pytest.raises(DomainError):
        radius_upper_bound(1, 2.0)
    with pytest.raises(DomainError):
        radius_lower_bound(2, -1.0)


def test_inscribed_disk_poly_above_window():
    # d=2, disc=4: height 1, f = x^2 - 1, |f(i)| = 2 > 1
    poly, height, value = inscribed_disk_poly(2, 4.0)
    assert height == pytest.approx(1.0, rel=1e-13)
    assert value == pytest.approx(2.0, rel=1e-12)
    assert poly.coeffs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 20, 50])
def test_inscribed_disk_poly_window_edge(d):
    disc = 2.0 ** (1 - d) * d**d
    poly, height, value = inscribed_disk_poly(d, disc)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert height == pytest.approx(2.0 ** (-1.0 + 1.0 / d), rel=1e-12)
    got = log_disc_from_roots(poly)
    assert got.sign == 1
    assert got.log_abs == pytest.approx(math.log(disc), abs=1e-10)
    # at value 1 the witness height is an inscribed radius, and exactly
    # the halfwidth over the center
    disk = largest_disk(poly)
    assert disk.radius >= height - 1e-8
    assert vertical_halfwidth(poly, 0.0) == pytest.approx(height, abs=1e-14)


def test_inscribed_disk_realises_lower_bound():
    # anywhere in the window the disk is at least the guaranteed radius
    for D in (1.0, 1.7, 2.0):
        poly, height, value = inscribed_disk_poly(2, D)
        assert value <= 1.0 + 1e-12
        assert height >= radius_lower_bound(2, D) - 1e-12


def test_disk_result_is_plain_data():
    disk = DiskResult(
        center_x=0.0, radius=0.25, boundary_point=0.25j, has_interior=True
    )
    assert disk.radius == 0.25
