import math
import sys
import tracemalloc

import numpy as np
import pytest

from extremal_poly import lemniscate as lem
from extremal_poly.errors import DomainError, InputError
from extremal_poly.lemniscate import (
    DiskResult,
    inscribed_disk_poly,
    _halfwidth_grid,
    _log_abs_sq,
    _peak_system,
    _scan,
    largest_disk,
    log_radius_upper_bound,
    radius_lower_bound_at_log,
    radius_upper_bound,
    vertical_halfwidth,
)
from extremal_poly.poly_core import LogDiscriminant, log_disc_from_roots, poly_from_roots
from extremal_poly.solvers import solve_max_disc

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


def _where_log_abs_sq(dx2, excess, s):
    # the kernel as one np.where over both logarithms of every term
    q = excess + s[:, None]
    with np.errstate(divide="ignore"):
        terms = np.where(
            q > -0.5, np.log1p(np.maximum(q, -0.5)), np.log(dx2 + s[:, None])
        )
    return terms.sum(axis=1)


def _kernel_rows(x, roots, s):
    dx = x[:, None] - roots[None, :]
    return dx * dx, (dx - 1.0) * (dx + 1.0), s


def _assert_kernel_matches_where_form(dx2, excess, s):
    q = np.empty_like(dx2)
    with np.errstate(divide="ignore"):
        got = _log_abs_sq(dx2, excess, s, q)
    assert got.tobytes() == _where_log_abs_sq(dx2, excess, s).tobytes()
    assert q.tobytes() == (dx2 + s[:, None]).tobytes()
    return got


def test_log_abs_sq_edge_rows():
    # a center on a root at s = 0 (-inf), a term with excess + s exactly
    # -0.5 (the log branch) and one just above -1 (dx = 2^-26 gives
    # excess = -1 + 2^-52), and s = 1
    roots = np.array([-1.0, 0.0, 2.0 ** -26, 0.5, 3.0])
    x = np.array([0.0, 0.0, 1.0, -0.75])
    s = np.array([0.0, 0.25, 1.0, 0.5])
    dx2, excess, s = _kernel_rows(x, roots, s)
    assert excess[1, 3] + s[1] == -0.5
    assert -1.0 < excess[0, 2] + s[0] < -1.0 + 2.0 ** -51
    got = _assert_kernel_matches_where_form(dx2, excess, s)
    assert got[0] == -math.inf and np.all(np.isfinite(got[1:]))


@pytest.mark.parametrize("d", [1, 2, 7, 50, 181, 1000, 5000])
def test_log_abs_sq_matches_where_form_on_sorted_rows(d):
    # each term is the same function of the same float as in the where
    # form, so the row sums keep their bits; the centers include roots
    rng = np.random.default_rng(5100 + d)
    roots = np.sort(rng.normal(0.0, 1.0, d))
    x = np.concatenate([
        np.linspace(roots[0] - 1.0, roots[-1] + 1.0, 37), roots[:: max(1, d // 7)]
    ])
    s = np.exp(rng.uniform(-40.0, 0.0, x.size))
    s[::5] = 1.0
    _assert_kernel_matches_where_form(*_kernel_rows(x, roots, s))


def test_halfwidth_grid_at_roots_warns_nothing():
    # its first pass takes log 0 at every root (s = 0); the configured
    # RuntimeWarning filter turns any warning into an error
    roots = np.array([-1.0, -0.2, 0.3, 1.5])
    inside = np.empty(roots.shape, dtype=bool)
    widths = _halfwidth_grid(roots, roots, inside)
    assert inside.all() and np.all(widths > 0.0)


def _where_peak_system(roots, x, t):
    # the seven Newton floats with 1/q formed as c / (dx2 + s)
    s = math.exp(t)
    c = math.ldexp(1.0, math.frexp(s)[1])
    u = x - roots
    dx2 = u * u
    phi = _where_log_abs_sq(dx2[None], ((u - 1.0) * (u + 1.0))[None], np.array([s]))
    inv = c / (dx2 + s)
    u_inv, inv2 = u * inv, inv * inv
    f2 = 2.0 * u_inv.sum()
    return (
        float(phi[0]),
        float(f2),
        16.0 * sys.float_info.epsilon * float(np.abs(u_inv).sum()),
        float(f2) / c,
        s / c * float(inv.sum()),
        2.0 / c * float(((s - dx2) * inv2).sum()),
        -2.0 * s / c * float((u * inv2).sum()),
    ), 16.0 * sys.float_info.epsilon * float(inv.sum())


def test_peak_system_matches_formula():
    rng = np.random.default_rng(5200)
    roots = np.sort(rng.uniform(-2.0, 2.0, 40))
    points = [(0.0, -1.0), (0.31, -0.2), (float(roots[3]), -3.0),
              (float(roots[7]) + 1e-9, -60.0), (-2.5, 0.0), (1.1, -700.0)]
    for x, t in points:
        got = _peak_system(roots, x, t)
        seven, bend = _where_peak_system(roots, x, t)
        assert got[:3] + got[4:] == seven
        assert got[3] == bend


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


@pytest.mark.parametrize(
    "roots,x", [([-1e200, 1e200], 1e200), ([-1.0, 1.0], 1e155), ([-1.0, 1.0], -1e155)]
)
def test_halfwidth_rejects_overflowing_span(roots, x):
    with pytest.raises(InputError):
        vertical_halfwidth(poly_from_roots(roots), x)


def test_halfwidth_rejects_underflow_at_root():
    # the halfwidth at 0 is about 1e-200, whose square is below every float
    p = poly_from_roots([-1e100, 0.0, 1e100])
    with pytest.raises(InputError):
        vertical_halfwidth(p, 0.0)
    # off the roots a zero halfwidth is a true answer
    assert vertical_halfwidth(p, 0.5e100) == 0.0


def test_halfwidth_rejects_underflow_off_root():
    # |f(1e-250)| = 1e-50 < 1, so the halfwidth there is about 1e-200 > 0
    p = poly_from_roots([-1e100, 0.0, 1e100])
    with pytest.raises(InputError, match=r"\|f\| < 1"):
        vertical_halfwidth(p, 1e-250)
    with pytest.raises(InputError):
        vertical_halfwidth(p, [0.5e100, 1e-250])


def test_halfwidth_array_equals_pointwise():
    # an array call gives each point the bits of its own call, in the
    # array's shape; a float gives a float
    rng = np.random.default_rng(77)
    p = poly_from_roots(rng.uniform(-2.0, 2.0, 12))
    xs = np.linspace(-3.0, 3.0, 301)
    single = np.array([vertical_halfwidth(p, float(x)) for x in xs])
    assert all(type(w) is float for w in single.tolist())
    batch = vertical_halfwidth(p, xs)
    assert batch.tobytes() == single.tobytes()
    grid = vertical_halfwidth(p, xs[:300].reshape(20, 15))
    assert grid.shape == (20, 15)
    assert grid.tobytes() == single[:300].tobytes()
    assert isinstance(vertical_halfwidth(p, 0.25), float)
    assert np.count_nonzero(batch) > 100


def test_largest_disk_centered_family():
    # x^2 - 1/2 has its fattest disk at the origin with radius 2^(-1/2)
    p = poly_from_roots([-HALF_SQRT2, HALF_SQRT2])
    disk = largest_disk(p)
    assert disk.radius == pytest.approx(HALF_SQRT2, abs=1e-9)
    # the halfwidth peak is quartically flat here, so the center is only
    # pinned to the flat plateau
    assert abs(disk.center_x) < 1e-3
    assert disk.boundary_point == pytest.approx(
        complex(disk.center_x, disk.radius)
    )


@pytest.mark.parametrize(
    "c", [0.5, 0.7, HALF_SQRT2, 0.7072, 0.708, 0.71, 0.72, 0.8, 0.99]
)
@pytest.mark.parametrize("m", [0.0, 0.3, -1.7])
def test_largest_disk_of_two_roots_closed_form(c, m):
    # roots m +- c: for c > 1/sqrt2 the halfwidth has a local minimum at m
    # and peaks 1/(2c) at m +- sqrt(c^2 - 1/(4c^2)); for c <= 1/sqrt2 it
    # peaks sqrt(1 - c^2) at m (quartically flat at c = 1/sqrt2)
    lo, hi = m - c, m + c
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    p = poly_from_roots([lo, hi])
    disk = largest_disk(p)
    if half * half > 0.5:
        want, off = 0.5 / half, math.sqrt(half * half - 0.25 / (half * half))
    else:
        want, off = math.sqrt(1.0 - half * half), 0.0
    assert abs(disk.radius - want) <= 4e-15
    assert abs(abs(disk.center_x - mid) - off) <= 1e-6
    assert disk.radius == vertical_halfwidth(p, disk.center_x)


@pytest.mark.parametrize("m", [0.0, 0.3, -1.7])
def test_flat_peak_stops_at_its_candidate(monkeypatch, m):
    # at c = 1/sqrt2, within an ulp either way, phi_xx at the midpoint is
    # zero to within its rounding bound: the refinement accepts the scanned
    # midpoint as it stands and solves no halfwidth past the scan
    calls = []
    grid = lem._halfwidth_grid

    def counted_grid(*args):
        calls.append(args[1].size)
        return grid(*args)

    monkeypatch.setattr(lem, "_halfwidth_grid", counted_grid)
    below, above = math.nextafter(HALF_SQRT2, 0.0), math.nextafter(HALF_SQRT2, 1.0)
    for c in (below, HALF_SQRT2, above):
        calls.clear()
        disk = largest_disk(poly_from_roots([m - c, m + c]))
        assert len(calls) == 1 and calls[0] > 1
        assert abs(disk.center_x - m) <= 4e-16


def test_largest_disk_off_axis_peak():
    # for x^2 - 1 the best center is not over a root: radius 1/2 at
    # x = +-sqrt(3)/2 (check: |f|^2 = 1 there with y = 1/2)
    p = poly_from_roots([-1.0, 1.0])
    disk = largest_disk(p)
    assert disk.radius == pytest.approx(0.5, abs=1e-9)
    assert abs(disk.center_x) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-6)


def test_largest_disk_flat_peak_of_mirror_pair_member():
    # a binomial mirror-pair member at d = 20 whose halfwidth peak is so
    # flat that stopping on the center bracket alone leaves the radius
    # 2.8e-9 short; no point near the center may beat the disk
    a, d, u = 0.5940751973403553, 20, 1.4644168435721021
    m = math.exp(d * math.log(a) + u * (d - 1) * math.log(2.0))
    p = solve_max_disc(a, d, m).polys[0]
    disk = largest_disk(p)
    xs = np.linspace(disk.center_x - 2e-4, disk.center_x + 2e-4, 4001)
    # one batch gives each point its vertical_halfwidth (rows never mix)
    near = float(np.max(_halfwidth_grid(np.array(p.roots), xs)))
    assert disk.radius >= near


@pytest.mark.parametrize("d", [6, 20, 50])
def test_largest_disk_beats_roots_and_midpoints(d):
    rng = np.random.default_rng(7000 + d)
    for _ in range(4):
        roots = np.sort(rng.uniform(-2.0, 2.0, d))
        probes = np.concatenate([roots, 0.5 * (roots[1:] + roots[:-1])])
        disk = largest_disk(poly_from_roots(roots))
        assert disk.radius >= float(np.max(_halfwidth_grid(roots, probes)))


def _root_set(kind, d, rng):
    if kind == "uniform":
        return np.sort(rng.uniform(-2.0, 2.0, d))
    if kind == "cauchy":
        return np.sort(rng.standard_cauchy(d))
    # tight clusters far apart: the components around two clusters can
    # peak within 1e-6 of each other across a gap that 8 samples span
    centers = rng.uniform(-3.0, 3.0, 3)
    return np.sort(centers[rng.integers(0, 3, d)] + rng.normal(0.0, 1e-3, d))


@pytest.mark.parametrize("d", [6, 20, 50])
@pytest.mark.parametrize(
    "kind", ["uniform", "cauchy", "clustered", "below_crossover", "above_crossover"]
)
def test_largest_disk_never_beaten_by_uniform_grid(kind, d):
    # the root-seeded candidates must do as well as a uniform grid of
    # 64 d centers over the padded span plus the roots, to roundoff
    rng = np.random.default_rng(6400 + d)
    if kind.endswith("crossover"):
        u = 0.6 if kind.startswith("below") else 1.3
        m = math.exp(d * math.log(0.7) + u * (d - 1) * math.log(2.0))
        sets = [np.array(solve_max_disc(0.7, d, m).polys[0].roots)]
    else:
        sets = [_root_set(kind, d, rng) for _ in range(8)]
    for roots in sets:
        xs = np.concatenate(
            [np.linspace(roots[0] - 1.0, roots[-1] + 1.0, 64 * d), roots]
        )
        grid_best = float(np.max(_halfwidth_grid(roots, xs)))
        p = poly_from_roots(roots)
        disk = largest_disk(p)
        assert disk.radius >= (1.0 - 4e-15) * grid_best
        assert disk.radius == vertical_halfwidth(p, disk.center_x)


@pytest.mark.parametrize("d", [6, 50])
def test_refinement_solves_few_halfwidths_per_peak(monkeypatch, d):
    # past the scan, a refined peak costs one certifying _halfwidth_grid
    # and at most one bracket-midpoint probe: its Newton steps solve none
    counts = {"grid": 0, "scan": 0, "peaks": 0}
    grid, scan, refine = lem._halfwidth_grid, lem._scan, lem._refine

    def counted_grid(*args):
        counts["grid"] += 1
        return grid(*args)

    def counted_scan(*args):
        before = counts["grid"]
        widths = scan(*args)
        counts["scan"] += counts["grid"] - before
        return widths

    def counted_refine(*args):
        counts["peaks"] += 1
        return refine(*args)

    monkeypatch.setattr(lem, "_halfwidth_grid", counted_grid)
    monkeypatch.setattr(lem, "_scan", counted_scan)
    monkeypatch.setattr(lem, "_refine", counted_refine)
    rng = np.random.default_rng(9100 + d)
    for roots in [np.sort(rng.uniform(-2.0, 2.0, d)) for _ in range(8)]:
        largest_disk(poly_from_roots(roots))
    assert counts["scan"] == 8
    assert counts["grid"] - counts["scan"] <= 2 * counts["peaks"]


def test_largest_disk_takes_the_taller_of_two_close_peaks():
    # two tight clusters whose components peak 1.6e-6 (relative) apart,
    # near either end of one wide gap; the best sample lies under the
    # lower peak, so refining only the best candidate gives that one
    roots = np.array([
        -0.1139, -0.11318, -0.11308, -0.11288, -0.11249, -0.11247, -0.11214,
        -0.11145, -0.11056, -0.10922, -0.10894, 1.56551, 1.56845, 1.56858,
        1.56862, 1.57007, 1.57012, 1.57057, 1.57132, 1.57168, 1.5722, 1.57288,
    ])
    coarse = np.linspace(roots[0] - 1.0, roots[-1] + 1.0, 4001)
    w = _halfwidth_grid(roots, coarse)
    tops = []
    for j in np.flatnonzero((w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:])) + 1:
        fine = np.linspace(coarse[j - 1], coarse[j + 1], 4001)
        tops.append(float(np.max(_halfwidth_grid(roots, fine))))
    assert len(tops) == 2 and abs(tops[0] / tops[1] - 1.0) < 2e-6
    disk = largest_disk(poly_from_roots(roots))
    assert disk.radius >= (1.0 - 4e-15) * max(tops)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_refine_probes_a_disk_narrower_than_an_ulp(sign):
    # the best disk, around the root near 152.44, is 8.6e-159 wide, far
    # below one ulp of its center: Newton takes no step there, and every
    # midpoint probe lands outside the lemniscate (s = 0) and cuts the
    # bracket from one side; the mirrored set cuts it from the other
    rs = sign * np.random.default_rng(1).uniform(-7000.0, 7000.0, 49)
    poly = poly_from_roots(rs)
    disk = largest_disk(poly)
    assert disk.center_x == sign * 152.444382531462
    assert disk.center_x in poly.roots
    assert disk.radius == 8.567823916868888e-159
    assert disk.radius == vertical_halfwidth(poly, disk.center_x)


def test_refine_probes_toward_a_peak_past_its_bracket():
    # the peak of the roots c -+ 1/2 is at c, past the bracket's upper end:
    # each Newton step leaves the bracket, so midpoint probes, each inside
    # the lemniscate and each the new best, climb until the bracket is two
    # adjacent floats, 2^-28 > 1e-10 apart at c = 2^24
    c = 2.0**24
    rs = np.array([c - 0.5, c + 0.5])
    poly = poly_from_roots(rs)
    lo, hi, x = c - 0.3, c - 0.2, c - 0.25
    center, radius = lem._refine(rs, lo, hi, x, vertical_halfwidth(poly, x))
    assert center == np.nextafter(hi, lo)
    assert radius == vertical_halfwidth(poly, center)
    assert radius > vertical_halfwidth(poly, x)


def test_refine_side_halves_toward_its_minimum():
    # roots -+0.71 put a minimum of the halfwidth at 0; halving from 5
    # toward 0, the points 2.5 and 1.25 are outside the lemniscate and
    # 0.625 is inside
    rs = np.array([-0.71, 0.71])
    center, radius = lem._refine_side(rs, 0.0, 5.0)
    assert 0.0 < center < 0.71
    assert radius == 0.7042253521126761
    assert radius == largest_disk(poly_from_roots(rs)).radius
    # an empty side has no midpoint, and no disk
    assert lem._refine_side(rs, 0.0, 0.0) == (0.0, 0.0)


def test_largest_disk_far_from_origin():
    # centers near 1e6 have an ulp above 1e-10; the search must still
    # stop, and x^2 - 1/4 shifted there has radius sqrt(3)/2 at its middle
    disk = largest_disk(poly_from_roots([1e6, 1e6 + 1.0]))
    assert disk.radius == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)
    assert disk.center_x == pytest.approx(1e6 + 0.5, abs=1e-6)


@pytest.mark.parametrize("roots", [[-1e200, 1e200], [0.0, 1.4e154]])
def test_largest_disk_rejects_overflowing_span(roots):
    # the padded span's square leaves float range past about 1.3e154
    with pytest.raises(InputError, match="span more than about 1.3e154"):
        largest_disk(poly_from_roots(roots))


def test_largest_disk_rejects_underflowing_radius():
    # the radius around 0 is 1 / 3.6e307, whose square is below every float
    with pytest.raises(InputError):
        largest_disk(poly_from_roots([-6e153, 0.0, 6e153]))


def test_largest_disk_answers_when_only_some_disks_underflow():
    # the disk around 0 has a squared radius below the smallest float, the
    # disk near 1e82 does not: only a set whose disks all underflow is
    # refused
    p = poly_from_roots([0.0, 1e82, 1e82 + 1e67])
    disk = largest_disk(p)
    assert (disk.center_x, disk.radius) == (1e82, 9.891216401832884e-150)
    assert disk.radius == vertical_halfwidth(p, 1e82)
    with pytest.raises(InputError, match="too small for its square"):
        vertical_halfwidth(p, 0.0)


def test_largest_disk_tiny_radius_far_out():
    disk = largest_disk(poly_from_roots([-1e100, 1e100]))
    assert disk.radius == pytest.approx(5e-101, rel=1e-12)
    assert abs(disk.center_x) == 1e100


def test_largest_disk_bounded_memory_at_degree_300():
    rng = np.random.default_rng(300)
    roots = np.sort(rng.uniform(-2.0, 2.0, 300))
    p = poly_from_roots(roots)
    tracemalloc.start()
    try:
        largest_disk(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6
    # the chunked scan gives the widths of one unchunked call, bit for bit
    xs = np.concatenate(
        [np.linspace(roots[0] - 1.0, roots[-1] + 1.0, 64 * roots.size), roots]
    )
    assert _scan(roots, xs).tobytes() == _halfwidth_grid(roots, xs).tobytes()


def test_radius_bounds_spec_values():
    assert radius_upper_bound(2, 2.0) == pytest.approx(HALF_SQRT2, rel=1e-14)
    assert radius_upper_bound(2, 4.0) == pytest.approx(0.5, rel=1e-14)
    assert radius_lower_bound_at_log(2, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)
    assert radius_lower_bound_at_log(2, math.log(4.0)) is None  # above the window
    assert radius_lower_bound_at_log(2, math.log(0.5)) is None  # below the window
    assert radius_lower_bound_at_log(3, 0.0) == pytest.approx(
        2.0 ** (2.0 / 3.0 - 1.0) * 3.0 ** (-0.5), rel=1e-14
    )


def test_radius_bounds_in_log_form():
    # at d = 200 the window reaches disc = e^921.7, past float range
    inside = radius_lower_bound_at_log(200, 0.0)
    assert radius_lower_bound_at_log(200, 800.0) == inside
    assert radius_lower_bound_at_log(200, 930.0) is None
    # the logs of discriminants 0 and inf, and nan, are outside the window
    for log_disc in (-math.inf, math.inf, math.nan):
        assert radius_lower_bound_at_log(4, log_disc) is None
    # an ulp past either edge, as from rounded roots, is on it
    assert radius_lower_bound_at_log(2, math.log(2.0) + 2.0**-52) == 0.5
    assert radius_lower_bound_at_log(2, -(2.0**-52)) == 0.5
    assert radius_lower_bound_at_log(2, math.log(2.0) + 1e-12) is None
    assert radius_lower_bound_at_log(2, -1e-12) is None
    # d = 2: the bound is disc^(-1/2), also where neither is a float
    assert log_radius_upper_bound(2, 2000.0) == pytest.approx(-1000.0, rel=1e-15)
    assert radius_upper_bound(3, 8.0) == pytest.approx(
        math.exp(log_radius_upper_bound(3, math.log(8.0))), rel=1e-15
    )


def test_radius_lower_bound_constant_across_window():
    vals = {radius_lower_bound_at_log(4, math.log(D)) for D in (1.0, 2.0, 8.0, 15.0)}
    assert len(vals) == 1


def test_radius_bounds_validation():
    with pytest.raises(DomainError):
        radius_upper_bound(1, 2.0)


def test_inscribed_disk_poly_above_window():
    # d=2, disc=4: height 1, f = x^2 - 1, |f(i)| = 2 > 1
    poly, height, value = inscribed_disk_poly(2, 4.0)
    assert height == pytest.approx(1.0, rel=1e-13)
    assert value == pytest.approx(2.0, rel=1e-12)
    assert poly.roots == pytest.approx((-1.0, 1.0), abs=1e-12)


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


def test_inscribed_disk_poly_checks_its_member(monkeypatch):
    # a moved root or a NaN modulus misses the modulus; a wrong or NaN
    # log disc misses the discriminant
    roots = lem.bf.lattice_roots
    monkeypatch.setattr(
        lem.bf, "lattice_roots", lambda a, d, log_p: [x + 0.1 for x in roots(a, d, log_p)]
    )
    with pytest.raises(RuntimeError, match="modulus consistency check failed"):
        inscribed_disk_poly(4, 2.0)
    monkeypatch.undo()
    monkeypatch.setattr(
        lem, "log_disc_from_roots", lambda p: LogDiscriminant(1, 0.0)
    )
    with pytest.raises(RuntimeError, match="discriminant consistency check failed"):
        inscribed_disk_poly(4, 2.0)
    monkeypatch.setattr(lem, "log_disc_from_roots", lambda p: LogDiscriminant(1, math.nan))
    with pytest.raises(RuntimeError, match="discriminant consistency check failed"):
        inscribed_disk_poly(4, 2.0)
    monkeypatch.setattr(lem, "log_modulus_at_ai", lambda roots, a: math.nan)
    with pytest.raises(RuntimeError, match="modulus consistency check failed"):
        inscribed_disk_poly(4, 2.0)


def test_inscribed_disk_realises_lower_bound():
    # anywhere in the window the disk is at least the guaranteed radius
    for D in (1.0, 1.7, 2.0):
        poly, height, value = inscribed_disk_poly(2, D)
        assert value <= 1.0 + 1e-12
        assert height >= radius_lower_bound_at_log(2, math.log(D)) - 1e-12


def test_disk_result_is_plain_data():
    disk = DiskResult(center_x=0.0, radius=0.25, boundary_point=0.25j)
    assert disk.radius == 0.25
    # every disk largest_disk returns has positive radius
    assert disk.has_interior is True
