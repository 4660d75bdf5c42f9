"""Inscribed disks of polynomial lemniscates.

The lemniscate of a monic real-rooted f at level 1 is the region
|f(x+iy)| <= 1. For real-rooted f it is a union of closed disks centered
on the real line, so the largest inscribed disk has its center on the
axis and its radius equals the maximal vertical halfwidth. The dual
solvers control that halfwidth through |f(c + ai)|, which is what ties
this module to the rest of the package.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import binomial_family as bf
from .errors import InputError, check_degree, check_disc
from .poly_core import (
    RealRootedPoly,
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
    rel_log_diff,
)

# Center-root pairs per _halfwidth_grid call of a scan: the at most
# 8 (d + 1) d pairs of a candidate scan with d <= 63 go in one call, and
# each of a call's d-wide float buffers (256 KB) fits in one core's 2 MB
# L2. Under tracemalloc a scan's temporaries peak at 1.8 to 2.4 MB with
# every center inside the lemniscate, d = 50 to 3000 (10.6 to 14.7 MB at
# 2^18 pairs, which took 20 to 30% more process time at d = 180 and 300).
_CHUNK_ELEMENTS = 1 << 15
# Candidate centers per gap between consecutive knots of largest_disk.
_GAP_SAMPLES = 8
# Newton steps and midpoint probes of one _refine, after which the center
# it has reached is certified as it stands.
_MAX_PROBES = 100


@dataclass(frozen=True)
class DiskResult:
    """Largest inscribed disk centered at center_x on the real axis.
    boundary_point is the top of the disk, where |f| = 1. The radius is
    always positive (largest_disk refuses a set whose disks all
    underflow), so has_interior is a constant True, not a field."""

    center_x: float
    radius: float
    boundary_point: complex
    has_interior = True


def vertical_halfwidth(p: RealRootedPoly, x):
    """Largest y >= 0 with |f(x + iy)| <= 1 at each point of x (a float,
    or an array of any shape, answered in its shape), by _scan; 0 where
    |f(x)| >= 1. Each point gets the width it would get alone.

    Raises InputError when the points and the roots span more than about
    1.3e154 (see _check_span), and when the width is 0 at a point with
    |f(x)| < 1: the width there is positive, so its square underflowed.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if flat.size == 0 or not np.all(np.isfinite(flat)):
        raise InputError("x must be finite and not empty")
    roots = np.asarray(p.roots, dtype=float)
    _check_span(roots, float(flat.min()), float(flat.max()))
    inside = np.empty(flat.shape, dtype=bool)
    widths = _scan(roots, flat, inside)
    if np.any(inside & (widths == 0.0)):
        raise InputError(
            "the halfwidth at a point where |f| < 1 is too small for its "
            "square to be a float"
        )
    return float(widths[0]) if xs.ndim == 0 else widths.reshape(xs.shape)


def _check_span(roots: np.ndarray, lo: float, hi: float) -> None:
    """Raise InputError unless the sorted roots and [lo, hi] span less
    than about 1.3e154: every center-root difference lies in that span,
    and the halfwidth solve squares them."""
    span = max(hi, float(roots[-1])) - min(lo, float(roots[0]))
    if not math.isfinite(span * span):
        raise InputError(
            "roots and interval span more than about 1.3e154, so their "
            "squared differences leave float range"
        )


def _log_abs_sq(
    dx2: np.ndarray, excess: np.ndarray, s: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Row sums of log|x + iy - r_k|^2, from dx2 = (x - r_k)^2, excess =
    (x - r_k - 1)(x - r_k + 1) and s = y^2; -inf at a root. Writes
    q = dx2 + s, the squared factor moduli, into the buffer q.

    Factor moduli near 1 go through log1p of the squared excess, which
    stays resolvable where dx2 + s would round to exactly 1; the rest take
    log q. Each term is one of the two, computed once into one buffer by
    masked ufuncs. A masked ufunc is fast only while its mask is a few
    contiguous runs: here each row's mask excess + s <= -0.5 is one run,
    because the roots are sorted and (x - r_k)^2 is unimodal in k. Roots
    in any other order give the same sums, many times slower.

    A log of 0 (a center at a root with s = 0) raises a divide warning
    unless the caller has numpy ignore it.
    """
    terms = excess + s[:, None]
    near = terms <= -0.5
    np.log1p(terms, out=terms, where=~near)
    np.add(dx2, s[:, None], out=q)
    np.log(q, out=terms, where=near)
    return terms.sum(axis=1)


def _halfwidth_grid(roots: np.ndarray, xs: np.ndarray, inside=None) -> np.ndarray:
    """Largest y >= 0 with |f(x + iy)| <= 1, for every x in xs at once,
    for sorted roots (see _log_abs_sq).

    With s = y^2 and t = log s, phi(t) = log|f(x + iy)|^2 =
    sum_k log((x - r_k)^2 + e^t) is increasing and convex in t, and
    phi(0) >= 0 because every factor has modulus >= 1 at y = 1. Newton in
    t from t = 0 therefore descends monotonically onto the root, with no
    bracket: s <- s exp(-phi / phi'), phi' = sum_k s / ((x - r_k)^2 + s),
    whose denominators q = (x - r_k)^2 + s the kernel leaves behind at
    each step. A row stops once phi <= 0 or a step no longer lowers s,
    after at most 100 steps. A point with |f(x)| >= 1 gets 0 and one with
    |f(x + i)| <= 1 gets 1. Rows never mix, so a point's width does not
    depend on the other points passed with it.

    A bool array inside, shaped like xs, is set to |f(x)| < 1 at each
    point: there the width is positive unless its square underflowed.
    """
    dx = xs[:, None] - roots[None, :]
    dx2 = dx * dx
    excess = (dx - 1.0) * (dx + 1.0)
    s_out = np.zeros(xs.shape)
    with np.errstate(divide="ignore"):
        # dx is spent: the first pass takes it as its buffer q
        below = _log_abs_sq(dx2, excess, s_out, dx) < 0.0
        if inside is not None:
            inside[:] = below
        rows = np.flatnonzero(below)
        dx2, excess, s = dx2[rows], excess[rows], np.ones(rows.size)
        q = np.empty_like(dx2)
        phi = _log_abs_sq(dx2, excess, s, q)
        done = phi <= 0.0
        for _ in range(100):
            if done.any():
                s_out[rows[done]] = s[done]
                more = ~done
                rows, dx2, excess, q, s, phi = (
                    rows[more], dx2[more], excess[more], q[more], s[more],
                    phi[more],
                )
            if rows.size == 0:
                break
            slope = np.divide(s[:, None], q, out=q).sum(axis=1)
            step = s * np.exp(-phi / slope)
            phi = _log_abs_sq(dx2, excess, step, q)
            done = (phi <= 0.0) | (step >= s)
            s = np.minimum(step, s)
    s_out[rows] = s
    return np.sqrt(s_out)


def _scan(roots: np.ndarray, xs: np.ndarray, inside=None) -> np.ndarray:
    """_halfwidth_grid over xs in chunks of at most _CHUNK_ELEMENTS
    center-root pairs, so the scan holds O(chunk) memory at any degree,
    setting inside as it does. Rows never mix, so the widths are those of
    one unchunked call."""
    rows = max(1, _CHUNK_ELEMENTS // roots.size)
    return np.concatenate([
        _halfwidth_grid(
            roots, xs[i:i + rows], None if inside is None else inside[i:i + rows]
        )
        for i in range(0, xs.size, rows)
    ])


def _peaks(xs: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Indices of the candidates worth refining, in increasing order: the
    discrete local maxima of s = width^2 (the first of a plateau) whose
    parabola through their two neighbours peaks at or above the largest
    sampled s. The best candidate is always one of them. So is a rival
    local peak that its samples may have missed by more than it trails
    the best sample: two components can peak within 1e-6 of each other
    across one wide gap, far less than its samples miss either peak by.

    A concave parabola peaks at or above its middle sample, so an end
    candidate, a flat triple or a triple with coincident centers counts
    with its own s.
    """
    s = widths * widths
    top = s.copy()
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    s0, s1, s2 = s[:-2], s[1:-1], s[2:]
    with np.errstate(all="ignore"):
        left = (s1 - s0) / (x1 - x0)
        half_curv = ((s2 - s1) / (x2 - x1) - left) / (x2 - x0)
        slope = left + half_curv * (x1 - x0)
        vertex = s1 - slope * slope / (4.0 * half_curv)
    top[1:-1] = np.where(half_curv < 0.0, np.fmax(vertex, s1), s1)
    rises = np.concatenate([[True], s[1:] > s[:-1]])
    holds = np.concatenate([s[:-1] >= s[1:], [True]])
    return np.flatnonzero(rises & holds & (top >= s.max()))


def _peak_system(roots: np.ndarray, x: float, t: float) -> tuple[float, ...]:
    """Newton data at (x, t) for the peak conditions of s = halfwidth^2,
    in one pass over the roots: (f1, f2, noise, bend, j11, j12, j21, j22)
    with the residuals f1 = phi and f2 = c phi_x, their Jacobian rows
    (j11, j12) = (phi_x, phi_t) and (j21, j22) = (c phi_xx, c phi_xt),
    and noise and bend, eight times the rounding error of f2 and of j21
    were each of their terms off by one unit roundoff of its scale (for
    j21 that scale is 2c/q_k, since its numerators s - (x - r_k)^2
    cancel). Here phi(x, t) = sum_k log((x - r_k)^2 + e^t), taken
    through _log_abs_sq.

    The second row is scaled by c, the power of two just above s = e^t:
    the sums take c/q_k for 1/q_k, with q_k = (x - r_k)^2 + s, so their
    squares stay in float range however small s is. Scaling by a power of
    two is exact unless a term is subnormal.
    """
    s = math.exp(t)
    c = math.ldexp(1.0, math.frexp(s)[1])
    u = x - roots
    dx2 = u * u
    excess = (u - 1.0) * (u + 1.0)
    q = np.empty((1, u.size))
    with np.errstate(divide="ignore"):
        phi = _log_abs_sq(dx2[None], excess[None], np.array([s]), q)
        inv = c / q[0]
    u_inv = u * inv
    inv2 = inv * inv
    f2 = 2.0 * u_inv.sum()
    inv_sum = float(inv.sum())
    return (
        float(phi[0]),
        float(f2),
        16.0 * sys.float_info.epsilon * float(np.abs(u_inv).sum()),
        16.0 * sys.float_info.epsilon * inv_sum,
        float(f2) / c,
        s / c * inv_sum,
        2.0 / c * float(((s - dx2) * inv2).sum()),
        -2.0 * s / c * float((u * inv2).sum()),
    )


def _refine(
    rs: np.ndarray, lo: float, hi: float, x: float, r: float
) -> tuple[float, float]:
    """(center, halfwidth) of the peak of s = halfwidth^2 in the bracket
    (lo, hi), from the center x inside it, whose halfwidth r > 0 is
    certified, by Newton on both peak conditions at once.

    The unknowns are the center x and t = log s; the conditions are
    phi = 0, so that (x, e^(t/2)) is on the boundary |f| = 1, and
    phi_x = 0, where s' = -phi_x / phi_t vanishes (see _peak_system).
    No halfwidth is solved along the way. A step is replaced by a probe
    at the bracket midpoint when it leaves the bracket or the range
    0 < s <= 1 of every boundary point (|f(x + iy)| >= y^d), or when its
    Jacobian is not finite or not that of a maximum (at a peak the
    determinant is -phi_t phi_xx < 0). A probe is a fresh
    _halfwidth_grid: it can become the best disk, and the iteration goes
    on from it. At x and at each probe, the sign of s' moves one bracket
    end there; a probe outside the lemniscate (s = 0) cuts the bracket on
    its side of the best point instead.

    The search stops at a maximum, where phi_x is zero to within its
    rounding error and phi_xx is not below zero by more than its own
    (a quartically flat peak has phi_xx = 0), at a step below four ulps
    of x, at a bracket below 1e-10 wide, or after _MAX_PROBES steps. One
    fresh _halfwidth_grid certifies the center it stops at, which is
    returned when its halfwidth is at least the best certified one (x's
    or a probe's); otherwise that best is. So the width is the bits of
    vertical_halfwidth at the center, and never less than r. A certified
    center where phi_x is zero and phi_xx is below zero by more than its
    rounding error is a minimum of s, with a peak on either side: both
    halves of the bracket are searched (_refine_side), and the best of
    the three is returned.
    """
    best_c, best_r = x, r
    t = 2.0 * math.log(r)
    certified = True
    for _ in range(_MAX_PROBES):
        f1, f2, noise, bend, j11, j12, j21, j22 = _peak_system(rs, x, t)
        if abs(f2) <= noise:
            if j21 >= -bend:
                break
            if certified:
                sides = [_refine_side(rs, x, end) for end in (lo, hi)]
                return max([(best_c, best_r)] + sides, key=lambda disk: disk[1])
        if certified:
            if f2 < 0.0:  # s' > 0
                lo = x
            else:
                hi = x
        if hi - lo <= 1e-10:
            break
        det = j11 * j22 - j12 * j21
        if -math.inf < det < 0.0:
            dx = (j12 * f2 - j22 * f1) / det
            if abs(dx) <= 4.0 * math.ulp(x):
                break
            nt = t + (j21 * f1 - j11 * f2) / det
            if lo < x + dx < hi and nt <= 0.0 and math.exp(nt) > 0.0:
                x, t, certified = x + dx, nt, False
                continue
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        r = float(_halfwidth_grid(rs, np.array([x]))[0])
        if r >= best_r:
            best_c, best_r = x, r
        if r > 0.0:
            t, certified = 2.0 * math.log(r), True
        else:
            if x > best_c:
                hi = x
            else:
                lo = x
            x, t, certified = best_c, 2.0 * math.log(best_r), True
    if not certified:
        r = float(_halfwidth_grid(rs, np.array([x]))[0])
        if r >= best_r:
            best_c, best_r = x, r
    return best_c, best_r


def _refine_side(rs: np.ndarray, x: float, end: float) -> tuple[float, float]:
    """_refine between x, a minimum of s, and end, one end of its bracket:
    from the midpoint of the two, or from the first point of positive
    halfwidth found by halving from there toward x (s rises from x, and
    the lemniscate may end before the midpoint); (x, 0.0) if none is
    found."""
    lo, hi = min(x, end), max(x, end)
    m = 0.5 * (x + end)
    while lo < m < hi:
        r = float(_halfwidth_grid(rs, np.array([m]))[0])
        if r > 0.0:
            return _refine(rs, lo, hi, m, r)
        lo, hi = (m, hi) if m < x else (lo, m)
        m = 0.5 * (x + m)
    return x, 0.0


def largest_disk(p: RealRootedPoly) -> DiskResult:
    """Largest disk centered on the real axis inside |f| <= 1.

    The radius equals the maximal vertical halfwidth (disk-union
    structure of real-rooted lemniscates). Every component of |f| <= 1
    holds a root, and |f| > 1 outside the root span padded by 1, so the
    candidate centers are seeded from the roots. The knots are the roots
    and the ends of the padded span; the candidates are _GAP_SAMPLES
    equally spaced points in each gap between consecutive knots, the
    gap's left knot included, and the last knot. So about 8 (d + 1)
    centers are scanned, the roots among them, whose halfwidths are
    positive however wide their gaps. Their halfwidths come from
    _halfwidth_grid, in chunks of bounded size.

    Each candidate that _peaks selects (the best one, and any local peak
    whose parabolic top reaches the best sample) is refined by _refine
    inside the bracket of its two neighbours: Newton on the two peak
    conditions in the center and log halfwidth^2 at once, which solves no
    halfwidth until one certifies the center it reaches. The disk is the
    best of those refinements, the leftmost on ties, and its radius is
    the bits of vertical_halfwidth at its center.

    Raises InputError when the padded span is more than about 1.3e154,
    where the squared center-root differences overflow, and when every
    halfwidth is 0: the disk around a root has positive radius, so there
    its square underflowed.
    """
    rs = np.asarray(p.roots, dtype=float)
    # every halfwidth outside the padded root span is 0
    lo, hi = float(rs[0]) - 1.0, float(rs[-1]) + 1.0
    _check_span(rs, lo, hi)
    knots = np.unique(np.concatenate([[lo], rs, [hi]]))
    fractions = np.arange(_GAP_SAMPLES) / _GAP_SAMPLES
    gaps = knots[:-1, None] + np.diff(knots)[:, None] * fractions
    candidates = np.append(gaps.ravel(), knots[-1])
    widths = _scan(rs, candidates)
    if widths.max() <= 0.0:
        raise InputError(
            "the disks around the roots are too small for their "
            "squared radii to be floats"
        )

    last = candidates.size - 1
    best_c, best_r = max(
        (
            _refine(
                rs, float(candidates[max(j - 1, 0)]),
                float(candidates[min(j + 1, last)]),
                float(candidates[j]), float(widths[j]),
            )
            for j in _peaks(candidates, widths)
        ),
        key=lambda disk: disk[1],
    )
    return DiskResult(
        center_x=best_c, radius=best_r, boundary_point=complex(best_c, best_r)
    )


def log_radius_upper_bound(d: int, log_disc: float) -> float:
    """log of the upper bound (1/2) d^(1/(d-1)) disc^(-1/(d(d-1))) on the
    inscribed-disk radius of every degree-d unit lemniscate whose
    polynomial has discriminant >= disc = e^log_disc, also where disc or
    the bound is past float range."""
    check_degree(d)
    return (
        math.log(d) / (d - 1.0)
        - math.log(2.0)
        - log_disc / (d * (d - 1.0))
    )


def radius_lower_bound_at_log(d: int, log_disc: float) -> float | None:
    """Guaranteed inscribed-disk radius 2^(2/d-1) d^(-1/(d-1)) of a
    degree-d unit lemniscate whose polynomial has discriminant
    e^log_disc, valid for 1 <= e^log_disc <= 2^(1-d) d^d, also where
    e^log_disc is past float range; None outside that window.

    The witness height grows with the discriminant, so its value at 1
    bounds the whole window from below. The window is closed up to
    rounding: a log_disc within 4 ulps (of max(1, |edge|)) past an edge
    counts as on it, as a log disc from rounded roots lands there (roots
    +-sqrt(1/2) give 2 + 4e-16).
    """
    check_degree(d)
    top = (1.0 - d) * math.log(2.0) + d * math.log(d)
    slack = 4.0 * sys.float_info.epsilon
    if not -slack <= log_disc <= top + slack * max(1.0, top):
        return None
    return math.exp(bf.log_threshold_height(d, 0.0))


def inscribed_disk_poly(d: int, disc: float) -> tuple[RealRootedPoly, float, float]:
    """(poly, height, value): the even binomial member of discriminant
    disc, centered at the origin, evaluated at its natural height.

    value = |f(i height)| = 2 d^(-d/(d-1)) disc^(1/(d-1)); whenever
    value <= 1 (equivalently disc <= 2^(1-d) d^d) the unit lemniscate of
    f contains the disk of radius height around 0, which realises
    radius_lower_bound_at_log. The member is cross-checked at runtime
    (modulus to 1e-9 relative, discriminant to 1e-8 relative in log) and a
    failure raises RuntimeError.
    """
    check_degree(d)
    check_disc(disc)
    log_disc = math.log(disc)
    height = math.exp(bf.log_threshold_height(d, log_disc))
    poly = poly_from_roots(bf.lattice_roots(height, d, 0.0))
    log_value = (
        math.log(2.0) - d * math.log(d) / (d - 1.0) + log_disc / (d - 1.0)
    )
    # each test written so that a NaN fails it
    got = log_modulus_at_ai(poly.roots, height)
    if not abs(got - log_value) <= 1e-9:
        raise RuntimeError("modulus consistency check failed")
    got_disc = log_disc_from_roots(poly)
    if got_disc.sign != 1 or not rel_log_diff(got_disc.log_abs, log_disc) <= 1e-8:
        raise RuntimeError("discriminant consistency check failed")
    return poly, height, math.exp(log_value)
