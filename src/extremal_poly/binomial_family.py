"""The binomial extremal family and its cotangent-lattice roots.

For small evaluation heights a the minimisers of |f(ai)| at fixed
discriminant are real combinations of (x + ai)^d and (x - ai)^d. A member
is fixed by its log phase ratio log p <= 0 (p = 1 at the crossover), from
which its lattice roots (lattice_roots) and its coefficients
(binomial_coeffs, whose x^(d-1) slot is its subleading coefficient B) are
formed, each called as (a, d, log_p).
The crossover itself is decided here, once (crossover_side), for every
public entry point.
"""

import math

import numpy as np

from .errors import DomainError, RegimeError, check_degree, check_disc, check_height
from .poly_core import _exp_or_inf

# Below this phase ratio asin(p) = p and cot(p/d) = d/p to double
# precision, so the pole root is formed as exp(log(a d) - log p).
_SMALL_P = 1e-8

# Targets near the crossover snap to the shared boundary member (binomial
# regime, zero subleading), which then meets the target to this relative
# accuracy. Root positions vary like the square root of the distance to the
# boundary, so resolving anything finer is illusory anyway.
_BOUNDARY_SNAP = 1e-9

# Degree from which the per-term loops of the closed forms run as numpy
# arrays, with the same floats as the loops: this module's _binomial_row,
# and jacobi_family's family_coeffs, _log_modulus_ratio_and_slope and the
# radicands and off-diagonals of family_roots. Below it numpy's per-call
# cost outweighs the loop. Measured on a 2-vCPU VM, the modulus and the
# roots tie near d = 36 (the roots' loop is 15% slower at d = 63) and the
# two coefficient rows near d = 64, so from 64 on each array body is no
# slower than its loop.
_ARRAY_DEGREE = 64


def _check_args(a: float, d: int, disc: float) -> None:
    check_height(a)
    check_degree(d)
    check_disc(disc)


def _snap_window(a: float, d: int) -> float:
    """The log p distance at which the boundary member misses its
    modulus, or (2d-2 times faster) its discriminant, by _BOUNDARY_SNAP;
    the smaller serves both problems, so a round trip through both solvers
    keeps its regime. For a checked height and degree."""
    # log p at disc = 1 is the boundary member's log disc over 2d-2
    log_disc_rate = max(1.0 / (2.0 * d - 2.0), abs(_log_phase_of_disc(a, d, 0.0)))
    log_m = (d - 1) * math.log(2.0) + d * math.log(a)
    return _BOUNDARY_SNAP * min(max(1.0, abs(log_m)), log_disc_rate)


def crossover_side(a: float, d: int, log_p: float) -> int:
    """The one crossover test, shared by both solvers, the members'
    regime checks and small_height_condition: 0 for the boundary member,
    within half the snap window of log p = 0; -1 below it, on the
    binomial side; +1 above it, on the multiplier side. Snapping only
    within half of the window leaves room for the rounding of the target.
    DomainError for a bad height or degree, or a nan log_p."""
    check_height(a)
    check_degree(d)
    if abs(log_p) <= 0.5 * _snap_window(a, d):
        return 0
    if log_p < 0.0:
        return -1
    if log_p > 0.0:
        return 1
    raise DomainError("log phase ratio is nan")


def _in_regime(a: float, d: int, log_p: float) -> float:
    """log p, or 0.0 within the snap window (the boundary member);
    RegimeError above it (the height is too large for this family)."""
    side = crossover_side(a, d, log_p)
    if side > 0:
        raise RegimeError("height too large: phase ratio above 1")
    return log_p if side else 0.0


def _past_float_range(log_p: float) -> DomainError:
    return DomainError(
        "largest root a*d/p is past float range (log p = %.17g is below "
        "log(a d) - 709.78)" % log_p
    )


def _subleading(a: float, d: int, log_p: float) -> float:
    """The subleading coefficient B = (-1)^d a d sqrt(1 - p^2)/p of the
    member lattice_roots(a, d, log_p), formed in log space, for a checked
    height and degree and a log_p already decided by crossover_side:
    below 0, or exactly 0.0 for the boundary member, whose B is 0. Past
    float range only with the largest root, about a d/p."""
    if log_p == 0.0:
        return 0.0
    b = _exp_or_inf(
        math.log(a) + math.log(d) - log_p + 0.5 * math.log(-math.expm1(2.0 * log_p))
    )
    if math.isinf(b):
        raise _past_float_range(log_p)
    return -b if d % 2 else b


def _log_phase_of_disc(a: float, d: int, log_disc: float) -> float:
    """log p, p = a^(d/2) 2^(d/2-1) d^(d/(2d-2)) disc^(-1/(2d-2)), of the
    discriminant e^log_disc for a checked height and degree, without
    forming p: the phase ratio of the binomial member of that
    discriminant, negative or zero in regime, zero at the crossover."""
    return (
        0.5 * d * math.log(a)
        + (0.5 * d - 1.0) * math.log(2.0)
        + (d / (2.0 * d - 2.0)) * math.log(d)
        - log_disc / (2.0 * d - 2.0)
    )


def _log_phase_of_modulus(a: float, d: int, log_m: float) -> float:
    """log p = log(2^(d-1) a^d / m) of the target modulus m: the phase
    ratio of the binomial member with |f(ai)| = m."""
    return -(log_m - (d - 1) * math.log(2.0) - d * math.log(a))


def _log_modulus(a: float, d: int, m: float) -> float:
    """log m of a target modulus for a checked height and degree.
    DomainError unless m is positive and finite; RegimeError unless m
    exceeds a^d, the least |f(ai)| of any monic real-rooted f."""
    if m <= 0 or not math.isfinite(m):
        raise DomainError("modulus m must be positive and finite")
    return _above_floor(a, d, math.log(m))


def _above_floor(a: float, d: int, log_m: float) -> float:
    """log_m, for a checked height and degree, if it exceeds d log a."""
    if log_m <= d * math.log(a):
        raise RegimeError("m must exceed a^d for a real-rooted solution")
    return log_m


def log_threshold_height(d: int, log_disc: float) -> float:
    """log of the height 2^(2/d-1) d^(-1/(d-1)) disc^(1/(d(d-1))) at which
    the phase ratio of discriminant disc reaches 1."""
    return (
        (2.0 / d - 1.0) * math.log(2.0)
        - math.log(d) / (d - 1.0)
        + log_disc / (d * (d - 1.0))
    )


def lattice_roots(a: float, d: int, log_p: float) -> list[float]:
    """Ascending roots a*cot(psi + pi j/d), j = -ceil(d/2)+1 .. floor(d/2),
    of the member with log phase ratio log_p <= 0: psi = +-delta (+ for
    odd d), delta = arcsin(p)/d. lattice_roots(a, d, 0.0) is the boundary
    member (B = 0). It has only x^(d-2k) terms, so its roots come in
    exact +- pairs: the roots >= 0 are formed and the rest are their
    negatives, x_i = -x_(d-1-i) (the positive half is the more accurate
    of the two against 40-digit mpmath, 3.65 against 3.71 ulps at worst).

    asin p and acos p both come from log p, as atan2 of p and
    sqrt(1 - p^2). Angles within pi/4 of +-pi/2 give a*tan of the
    complement, so the odd-d root 0 at p = 1 is exact; the pole root
    a*cot(delta) is exp(log(a d) - log p) once p < 1e-8.

    A log_p within the snap window of 0 (crossover_side) gives the
    boundary member, and one above it a RegimeError; DomainError when the
    largest root is past float range, at log p below about
    log(a d) - 709.8.
    """
    log_p = _in_regime(a, d, log_p)
    return _lattice_roots(float(a), d, log_p)


def _lattice_roots(a: float, d: int, log_p: float) -> list[float]:
    """lattice_roots for a checked height and degree and a log_p already
    decided by crossover_side: below 0, or exactly 0.0 for the boundary
    member. The roots are finite and ascending."""
    p = math.exp(log_p)
    q = math.sqrt(0.0 - math.expm1(2.0 * log_p))  # no -0.0 at p = 1
    beta, gamma = math.atan2(p, q), math.atan2(q, p)  # d delta, pi/2 - d delta
    # d times the angle psi + pi j/d is pi j + shift; d times its distance
    # up to pi/2 is pi (top - j) + rest and down to -pi/2 is
    # pi (bottom + j) - rest, with rest in [0, pi/2]
    if d % 2:
        shift, rest, top, bottom = beta, gamma, (d - 1) // 2, (d + 1) // 2
    else:
        shift, rest, top, bottom = -beta, beta, d // 2, d // 2
    pi, tan = math.pi, math.tan
    quarter = 0.25 * pi * d
    # at p = 1 only the angles in (0, pi/2] are taken: the roots >= 0
    boundary = log_p == 0.0
    roots = []
    for j in range(1 - d % 2 if boundary else 1 - bottom, top + 1):
        up = pi * (top - j) + rest
        down = pi * (bottom + j) - rest
        if up <= quarter:
            roots.append(a * tan(up / d))
        elif down <= quarter:
            roots.append(-a * tan(down / d))
        elif j == 0 and p < _SMALL_P:
            pole = _exp_or_inf(math.log(a) + math.log(d) - log_p)
            roots.append(pole if d % 2 else -pole)
        else:
            roots.append(a / tan((pi * j + shift) / d))
    roots.sort()
    if boundary:
        roots = [-x for x in reversed(roots[d % 2:])] + roots
    if math.isinf(roots[0]) or math.isinf(roots[-1]):
        raise _past_float_range(log_p)
    return roots


def binomial_coeffs(a: float, d: int, log_p: float) -> list[float]:
    """Ascending coefficients of the member lattice_roots(a, d, log_p),
    ((ad - Bi)(x + ai)^d + (ad + Bi)(x - ai)^d) / (2ad) with
    B its subleading coefficient; the log_p decides the regime, as in
    lattice_roots.

    With n = d - j, x^j carries (-1)^(n/2) C(d,n) a^n for even n and
    (-1)^((n-1)/2) C(d,n) B a^(n-1) / d for odd n. Neither cancels, so
    each is a running product over rho_n = a (d - n + 1) / n: t from 1
    for the even slots, u from B at n = 1 for the odd ones. The odd slots
    keep their own product because t alone underflows first (a = 0.3,
    d = 600). A product that leaves float range stays inf, so a list with
    an inf holds a true coefficient past float range. The mirror (roots
    negated) is the same list with the odd-n slots negated.
    """
    log_p = _in_regime(a, d, log_p)
    a = float(a)
    return _binomial_row(a, d, _subleading(a, d, log_p))


def _binomial_row(a: float, d: int, b: float) -> list[float]:
    """binomial_coeffs of the member with subleading coefficient b. From
    _ARRAY_DEGREE on, the rho_n and both running products are numpy
    arrays formed by the same operations in the same order as the loop
    below it, so both give the same floats."""
    if d >= _ARRAY_DEGREE:
        # row n of buf is t (top) and u (bottom) at the x^(d-n) slot, from
        # 1.0 at n = 0; the row takes u at the odd n, then the slot signs
        n = np.arange(2.0, d + 1.0)
        buf = np.empty((2, d + 1))
        buf[0, 0] = buf[1, 0] = 1.0
        buf[0, 1], buf[1, 1] = a * d, b
        with np.errstate(over="ignore", invalid="ignore"):
            buf[:, 2:] = a * (d + 1.0 - n) / n
            np.multiply.accumulate(buf, axis=1, out=buf)
        row = buf[0]
        row[1::2] = buf[1, 1::2]
        np.negative(row[2::4], out=row[2::4])
        np.negative(row[3::4], out=row[3::4])
        return row[::-1].tolist()
    coeffs = [0.0] * (d + 1)
    coeffs[d], coeffs[d - 1] = 1.0, b
    t, u = a * d, b  # C(d,n) a^n and C(d,n) B a^(n-1) / d at n = 1
    for n in range(2, d + 1):
        rho = a * (d - n + 1) / n
        t *= rho
        u *= rho
        if n % 2:
            coeffs[d - n] = -u if n % 4 == 3 else u
        else:
            coeffs[d - n] = -t if n % 4 == 2 else t
    return coeffs


def min_modulus_bound(a: float, d: int, disc: float) -> float:
    """Sharp lower bound (2a)^(d/2) d^(-d/(2d-2)) disc^(1/(2d-2)) for
    |f(ai)| over monic real-rooted f with the given discriminant, attained
    by the binomial member; valid for heights a up to the threshold of
    small_height_condition; inf once the bound leaves float range."""
    _check_args(a, d, disc)
    return _exp_or_inf(
        0.5 * d * math.log(2.0 * a)
        - (d / (2.0 * d - 2.0)) * math.log(d)
        + math.log(disc) / (2.0 * d - 2.0)
    )


def small_height_condition(a: float, d: int, disc: float) -> bool:
    """The paper's small-height predicate: True iff a is at most the
    threshold height 2^(2/d-1) d^(-1/(d-1)) disc^(1/(d(d-1))), that is iff
    the log phase ratio of disc is on the binomial side of the crossover or
    within its snap window (crossover_side), exactly when solve_min_abs
    answers in the binomial regime."""
    _check_args(a, d, disc)
    return crossover_side(a, d, _log_phase_of_disc(a, d, math.log(disc))) <= 0
