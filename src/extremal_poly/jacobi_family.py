"""The multiplier-indexed extremal family and its Jacobi connection.

Maximisers of the discriminant at fixed modulus |f(ai)| (below the
boundary modulus 2^(d-1) a^d) form a one-parameter family indexed by a
Lagrange multiplier lam. The family's coefficients, its modulus (a
Chu-Vandermonde product) and discriminant in closed log forms, and the one
Newton solve that pins lam to either live here (the general
Jacobi/Gegenbauer expansions and the Jacobi discriminant formula that the
closed form is checked against are in oracles). So do its roots: a
dense SVD of the recurrence's bidiagonal block below d = 258, and from
there on one sweep of the recurrence at WKB seeds and a Taylor step of
the normal form of the family's ODE, O(d^2).
"""

import math

import numpy as np

from . import binomial_family as bf
from .errors import DomainError, check_degree, check_height
from .poly_core import LogDiscriminant

# Degree from which family_roots takes _newton_roots, O(d^2), instead of
# the dense SVD, O(d^3): where the two tie at one BLAS thread, as the SVD's
# cost jumps by half from 128 to 129 block columns. Moving it moves root
# bytes. ms per call, SVD/Newton, best of 5, a = 1, on a 2-vCPU VM:
#     d    frac 0.05    frac 0.5     frac 0.999
#   128   0.29/0.83    0.27/0.87    0.27/0.82
#   192   0.52/1.05    0.51/1.07    0.50/1.04
#   256   0.89/1.32    0.82/1.20    0.72/1.23
#   257   0.83/1.28    0.83/1.35    0.82/1.33
#   258   1.37/1.37    1.41/1.33    1.31/1.32
#   288   1.89/1.43    1.82/1.42    1.73/1.34
#   336   3.05/1.42    2.82/1.10    2.54/1.62
# Newton is also the more accurate path there: against 40-digit roots its
# worst is 3-15 ulps at d = 260 and 300, the SVD's 15-433.
_NEWTON_DEGREE = 258
# Sweeps of the ratio recurrence before a root solve is refused as not
# settling. The first covers every root, and each later one only the roots
# that their Taylor step did not certify. Measured: none in the cells
# d = 258, 336, 1000, 3000, 10^4 x frac = 0.05, 0.5, 0.999 but one (the
# largest root, at d = 3000, frac 0.999); and on [2d - 2, 2d], 33 lam
# each at d = 258, 300, 1000 and 3000, one later sweep of the largest
# root at 21 of the 33 and none at the rest.
_NEWTON_SWEEPS = 16
# Terms w_0 .. w_K of each root's Taylor series (_taylor_step). Over the
# cells above, K = 6 leaves a root to the later sweeps in every cell,
# K = 8 in three and K = 10 or 12 in one.
_TAYLOR_TERMS = 10


def _check_member(a: float, d: int, lam: float) -> tuple[float, float]:
    """(a, lam) as floats, or DomainError unless the height a, degree d
    and Lagrange multiplier lam name a family member: lam finite and at
    least 2d - 2, the range the solvers' Newton solve starts at and rises
    from. (The member at any other lam is a rotated P_d^(alpha,alpha),
    alpha = -lam/2 - 1, which oracles.jacobi_coeffs and jacobi_disc take.)
    """
    check_height(a)
    check_degree(d)
    if not math.isfinite(lam):
        raise DomainError("multiplier must be finite")
    if lam < 2 * d - 2:
        raise DomainError("multiplier %.17g is below 2d - 2 = %d" % (lam, 2 * d - 2))
    return float(a), float(lam)


def family_coeffs(a: float, d: int, lam: float) -> list[float]:
    """Ascending coefficients of the degree-d family member.

    x^(d-2k) carries (-1)^k a^(2k) C(d,2k) (2k-1)!! / prod_{j=1}^{k}
    (lam - 2d + 2j + 1); every other slot is exactly zero.
    """
    a, lam = _check_member(a, d, lam)
    coeffs = [0.0] * (d + 1)
    coeffs[d] = 1.0
    if d >= bf._ARRAY_DEGREE:
        # the loop's ratios and running product, op for op, in arrays
        two_k = np.arange(2.0, d + 1.0, 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = -a * a * (d + 2.0 - two_k)
            terms *= d + 1.0 - two_k
            terms /= two_k
            terms /= lam - 2.0 * d + two_k + 1.0
            np.multiply.accumulate(terms, out=terms)
        coeffs[d - 2 :: -2] = terms.tolist()
        return coeffs
    term = 1.0
    for k in range(1, d // 2 + 1):
        denom = lam - 2.0 * d + 2.0 * k + 1.0
        # ratio of consecutive terms: C(d,2k)(2k-1)!! grows by
        # (d-2k+2)(d-2k+1)/(2k) and one new denominator factor appears
        term *= -a * a * (d - 2 * k + 2) * (d - 2 * k + 1) / (2.0 * k) / denom
        coeffs[d - 2 * k] = term
    return coeffs


def family_roots(a: float, d: int, lam: float) -> list[float]:
    """Roots of the degree-d family member, sorted ascending.

    The member is a Jacobi polynomial P_d^(alpha,alpha), alpha = -lam/2 - 1,
    at a rotated argument, so its roots are the eigenvalues of the
    symmetric tridiagonal matrix of its monic three-term recurrence
    (Golub-Welsch): zero diagonal, off-diagonals
    e_n = a sqrt(n (lam+2-n) / ((lam+3-2n) (lam+1-2n))), n = 1..d-1.
    A zero diagonal pairs the eigenvalues as +-sigma, and odd d adds one
    exact zero. Below d = _NEWTON_DEGREE (258) the sigma are the singular
    values of the half-size lower-bidiagonal block that couples odd and
    even indices (one dense SVD, O(d^3)); from there on they come from
    _newton_roots, O(d^2): in one run on one core of a 2-vCPU VM,
    2.2-3.9 ms at d = 1000, 12 ms at d = 3000 (20 ms at a = 1, modulus
    2^(0.999 (d - 1)), whose largest root takes a second sweep) and
    0.11-0.12 s at d = 10^4. Below
    bf._ARRAY_DEGREE the radicands and off-diagonals are Python floats,
    formed by the same operations in the same order as the arrays from
    there on, so both give the same floats: at d <= 8 the block costs
    less than numpy's set-up of it. On the member domain lam >= 2d - 2
    every radicand factor is at least lam - 2d + 3 >= 1 (and each is taken
    over lam, so none overflows). DomainError off that domain, when the
    roots are past float range, or when the Newton solve does not settle
    on floor(d/2) distinct positive roots."""
    a, lam = _check_member(a, d, lam)
    return _family_roots(a, d, lam)


def _family_roots(a: float, d: int, lam: float) -> list[float]:
    """family_roots of a member with float a and lam >= 2d - 2, unchecked."""
    if d >= bf._ARRAY_DEGREE:
        n = np.arange(1.0, d)
        two_n = 2.0 * n
        scaled = n * ((lam + 2.0 - n) / lam) / (
            ((lam + 3.0 - two_n) / lam) * ((lam + 1.0 - two_n) / lam)
        )
    else:
        # the array body's operations in its order, on floats
        scaled = [
            n * ((lam + 2.0 - n) / lam)
            / (((lam + 3.0 - 2.0 * n) / lam) * ((lam + 1.0 - 2.0 * n) / lam))
            for n in map(float, range(1, d))
        ]
    if d >= _NEWTON_DEGREE:
        # scaled are the e_n^2 at a = 1 in xi = sqrt(lam) x
        with np.errstate(over="ignore"):
            sigma = _newton_roots(d, lam, np.asarray(scaled))[::-1] * (a / math.sqrt(lam))
    elif math.sqrt(scaled[-1]) * (a / math.sqrt(lam)) == math.inf:
        # the radicands rise with n, and the largest root is at least every
        # off-diagonal (interlacing), so at least the last one
        sigma = np.array([math.inf])
    else:
        # at heights near the largest float a sqrt(r) overflows before its
        # division by sqrt(lam), which then goes first
        scale, root_lam = a, math.sqrt(lam)
        if a * math.sqrt(scaled[-1]) == math.inf:
            scale, root_lam = a / root_lam, 1.0
        if d >= bf._ARRAY_DEGREE:
            e = scale * np.sqrt(scaled) / root_lam
        else:
            e = [scale * math.sqrt(r) / root_lam for r in scaled]
        # the block, row-major: b[i, i] = e[2i] and b[i + 1, i] = e[2i + 1]
        # sit cols + 1 apart, from 0 and from cols
        cols = d // 2
        b = np.zeros((d + 1) // 2 * cols)
        b[:: cols + 1] = e[0::2]
        b[cols :: cols + 1] = e[1::2]
        sigma = np.linalg.svd(b.reshape(-1, cols), compute_uv=False)  # descending
    if sigma[0] == math.inf:
        raise DomainError(
            "multiplier roots are past float range (d = %d, a = %.17g, lam = %.17g)"
            % (d, a, lam)
        )
    mid = [0.0] if d % 2 else []
    return (-sigma).tolist() + mid + sigma[::-1].tolist()


def _newton_roots(d: int, lam: float, e2: np.ndarray) -> np.ndarray:
    """The floor(d/2) positive roots, ascending, of p_d from the monic
    recurrence p_{n+1} = xi p_n - e2[n-1] p_{n-1}: the family at a = 1 in
    the variable xi = sqrt(lam) x, which keeps every quantity in float
    range up to lam near the largest float.

    The family's ODE (x^2 + 1) y'' - lam x y' + d (lam + 1 - d) y = 0 has
    the normal form w = y (x^2 + 1)^(-lam/4), w'' = -I w, so w'' = 0 at
    every root and Newton on w converges cubically (plain Newton on p only
    linearly near the largest root; Taylor series of p need dozens of
    terms there, where p grows like xi^d and w stays a sine of the root
    gap). One sweep of the ratio recurrence gives the first Newton step
    w/w' at every seed from _wkb_seeds (_newton_step); the ODE gives
    every further Taylor coefficient of w there, and _taylor_step takes
    the second step on that series instead of on a second sweep. A step
    s at local root gap g leaves an error of about s^3/g^2, so a root is
    done once that and the series' last term are below 1e-16 xi. The
    roots not done (_NEWTON_SWEEPS says which) take further sweeps, by
    themselves, from where their series left them. DomainError after
    _NEWTON_SWEEPS sweeps, or unless the result is positive, finite and
    strictly ascending: floor(d/2) distinct roots are all of them."""
    xi = _wkb_seeds(d, lam)
    todo = np.arange(xi.size)
    for _ in range(_NEWTON_SWEEPS):
        x = xi[todo]
        h, step, tail = _taylor_step(x, _newton_step(x, e2, lam), d, lam)
        xi[todo] = x + h
        gap = np.diff(xi, prepend=0.0 if d % 2 else -xi[0])[todo]
        done = (np.abs(step) ** 3 <= 1e-16 * x * gap * gap) & (tail <= 1e-16 * x)
        todo = todo[~done]
        if not todo.size:
            break
    else:
        raise DomainError(
            "multiplier roots did not settle in %d Newton sweeps (d = %d, lam = %.17g)"
            % (_NEWTON_SWEEPS, d, lam)
        )
    if not (np.all(np.isfinite(xi)) and xi[0] > 0.0 and np.all(np.diff(xi) > 0.0)):
        raise DomainError(
            "multiplier roots are not positive, finite and strictly ascending "
            "(d = %d, lam = %.17g)" % (d, lam)
        )
    return xi


def _taylor_step(
    x: np.ndarray, w0: np.ndarray, d: int, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, s, tail) for the root of the normal form w near each x, from
    w0 = w/w' at x (_newton_step): the root is x + h, s is the Newton
    step taken on the series and tail its last term over w'.

    With A = xi^2/lam + 1, w = y A^(-lam/4) solves A^2 w'' + Q w = 0,
    Q = q xi^2 + d (lam + 1 - d)/lam + 1/2 and
    q = -(lam - 2d)(lam - 2d + 2) / (4 lam^2) (written without the
    cancellation of its two terms near lam = 2d). About x, with
    w(x + h) = w'(x) sum_k w_k h^k, w_0 = w0 and w_1 = 1, the h^k
    coefficient of that equation over A(x)^2 gives w_(k+2) from the four
    before it, with A(x + h)^2 / A(x)^2 = 1 + a1 h + a2 h^2 + a3 h^3 +
    a4 h^4 and Q(x + h) / A(x)^2 = q0 + q1 h + q2 h^2:
    -(k+2)(k+1) w_(k+2) = sum_j (a_j n (n - 1) + q_(j-2)) w_n, n = k+2-j,
    j = 1..4, q_(-1) = 0. The first Newton step, -w0, is the sweep's own;
    the second, s, is taken on the series at x - w0, and as w'' = 0 at
    the root, it leaves an error of about s^3/g^2 at root gap g."""
    # with g = 1/A(x) and t = g/lam: a1 = 4 x t, a2 = 4 x^2 t^2 + 2 t,
    # a3 = 4 x t^2, a4 = t^2, q0 = (q x^2 + c) g^2, q1 = 2 q x g^2 and
    # q2 = q g^2, c = d (lam + 1 - d)/lam + 1/2; rows j = 4, 3, 2, 1, to
    # meet the w_n of n = k-2 .. k+1
    g = 1.0 / (x * x / lam + 1.0)
    t = g / lam
    xt = x * t
    a1 = 4.0 * xt
    a = np.stack([t * t, a1 * t, xt * a1 + 2.0 * t, a1])
    q = -0.25 * ((lam - 2.0 * d) / lam) * ((lam - 2.0 * d + 2.0) / lam)
    g2 = g * g
    q0 = (q * x * x + (d * ((lam + 1.0 - d) / lam) + 0.5)) * g2
    c = np.stack([q * g2, (2.0 * q) * x * g2, q0])
    k = np.arange(_TAYLOR_TERMS - 1.0)[:, None]
    n = k + np.arange(-2.0, 2.0)
    scale = -1.0 / ((k + 2.0) * (k + 1.0))
    # coef[k, i] multiplies w_(k-2+i) in w_(k+2); the j = 1 row has no q
    coef = (n * (n - 1.0) * scale)[:, :, None] * a
    coef[:, :3] += scale[:, :, None] * c
    # w[i] = w_(i-2), below two rows of zeros for the w_n of n < 0
    w = np.zeros((_TAYLOR_TERMS + 3, x.size))
    w[2], w[3] = w0, 1.0
    for i in range(_TAYLOR_TERMS - 1):
        np.sum(coef[i] * w[i : i + 4], axis=0, out=w[i + 4])
    h = -w0
    powers = np.empty((_TAYLOR_TERMS, x.size))  # h^1 .. h^K
    powers[0] = h
    for i in range(1, _TAYLOR_TERMS):
        np.multiply(powers[i - 1], h, out=powers[i])
    slope = 1.0 + (w[4:] * np.arange(2.0, _TAYLOR_TERMS + 1.0)[:, None] * powers[:-1]).sum(axis=0)
    step = (w0 + (w[3:] * powers).sum(axis=0)) / slope
    return h - step, step, np.abs(w[-1] * powers[-1] / slope)


def _newton_step(x: np.ndarray, e2: np.ndarray, lam: float) -> np.ndarray:
    """The normal-form Newton step w/w' of _newton_roots at each x, for
    d = e2.size + 1.

    The family's ODE in xi gives the structure relation
    (xi^2 + lam) p_d' = d xi p_d + beta p_{d-1}, beta = lam d + 2 sum(e2)
    (match the xi^(d-1) coefficients), so p_d'/p_d needs only the ratio
    r_d = p_d/p_{d-1}: one divide and one subtract per n, r_1 = xi,
    r_{n+1} = xi - e2_n/r_n. An exact zero pivot r_n = 0 passes through
    exactly, as p_n = 0 does: r_{n+1} = -inf, then r_{n+2} = xi. The step
    is formed over lam, so nothing overflows up to the largest float."""
    d = e2.size + 1
    beta = d + 2.0 * (float(np.sum(e2)) / lam)  # beta / lam
    r, t = x.copy(), np.empty_like(x)
    # local names and positional out arguments: the loop is numpy's
    # per-call cost, 2(d - 1) calls per sweep
    divide, subtract = np.divide, np.subtract
    with np.errstate(divide="ignore", over="ignore"):
        for e in e2.tolist():
            divide(e, r, t)
            subtract(x, t, r)
        return (x * x / lam + 1.0) / (beta / r + (d / lam - 0.5) * x)


def _wkb_seeds(d: int, lam: float) -> np.ndarray:
    """Seeds for _newton_roots (lam >= 2d - 2), within 0.04 of the local
    root gap and exact at 2d - 2 and 2d.

    In the chart x = cot(theta), v = y sin(theta)^(mu+1), mu = lam/2,
    satisfies v'' + (s^2 - tau / sin(theta)^2) v = 0 with s = mu + 1 and
    tau = (mu - d)(mu - d + 1). The WKB phase of the d roots on (0, pi) is
    Phi(theta) = int sqrt(s^2 - t^2/sin^2) from the turning point
    sin(theta_t) = t/s, with t = sqrt(tau) for lam > 2d; on
    2d - 2 <= lam <= 2d, where -1/4 <= tau <= 0, t = 0 and the seeds are
    equally spaced in theta, as the roots are exactly at both ends. The total phase is pi (s - t) =
    pi k, so equal end margins put the roots at Phi = (j + c) pi,
    c = (k - d + 1)/2. In terms of cot(theta), Phi = k pi/2 - k alpha -
    t delta with q = sqrt(s^2 - t^2 - t^2 cot^2), alpha = arctan2(s cot, q)
    and delta = alpha - arcsin(t cot / sqrt(s^2 - t^2)) written without
    cancellation. It is tabulated at
    theta = pi/2 - beta cos(psi), beta = pi/2 - theta_t, for 8d + 64
    uniform psi, which is smooth through the turning point, and inverted
    by linear interpolation."""
    # past 1e300 the seeds in xi have long settled to their lam -> inf
    # limit (the Hermite roots), and the cap keeps d lam in float range
    mu = min(lam, 1e300) / 2.0
    s = mu + 1.0
    if mu > d:
        t = math.sqrt(mu - d) * math.sqrt(mu - d + 1.0)
        area = d * (2.0 * mu + 1.0 - d) + s  # s^2 - t^2
    else:
        t, area = 0.0, s * s
    k = area / (s + t)
    root_area = math.sqrt(area)
    beta = math.atan2(root_area, t)
    psi = np.linspace(0.0, 0.5 * math.pi, 8 * d + 64)
    cot = np.tan(beta * np.cos(psi))
    q = np.sqrt(np.maximum((root_area - t * cot) * (root_area + t * cot), 0.0))
    alpha = np.arctan2(s * cot, q)
    delta = np.arctan2(k * cot * q, q * q + (s * cot) * (t * cot))
    phase = 0.5 * math.pi * k - (k * alpha + t * delta)
    c = 0.5 * (k - d + 1.0)
    at = np.interp((np.arange(d // 2) + c) * math.pi, phase, psi)
    return math.sqrt(2.0 * mu) * np.tan(beta * np.cos(at))[::-1]


def _log_modulus_ratio_and_slope(d: int, lam: float) -> tuple[float, float]:
    """(log(m / a^d) along the family, its derivative in log lam) for a
    checked degree and lam > 2d-3. The series 1 + sum_k C(d,2k)(2k-1)!! /
    prod_{j<=k}(lam-2d+2j+1), a terminating 2F1 at 1, is by
    Chu-Vandermonde the product over k < floor(d/2) of
    (lam - d + 2 + 2k + (d mod 2)) / (lam - 2d + 3 + 2k) = 1 + c/x, whose
    log sums positive log1p terms: no cancellation or overflow at any
    degree. The slope is taken over the product's denominators x,
    lam d/dlam log1p(c/x) = -(c/x) lam/(x+c). From bf._ARRAY_DEGREE on
    the x, c/x and slope terms are numpy arrays, formed by the same
    operations in the same order as the lists below it, so both give the
    same floats (math.log1p stays: np.log1p differs in the last bit)."""
    c = d - 1 + d % 2
    if d >= bf._ARRAY_DEGREE:
        xs = lam - 2.0 * d + 3.0 + np.arange(0.0, d - 1.0, 2.0)  # + 2k, k < d/2
        ratios = c / xs
        slope = -math.fsum((ratios * (lam / (xs + c))).tolist())
        return math.fsum(map(math.log1p, ratios.tolist())), slope
    xs = [lam - 2.0 * d + 3.0 + 2.0 * k for k in range(d // 2)]
    slope = -math.fsum(c / x * (lam / (x + c)) for x in xs)
    return math.fsum(math.log1p(c / x) for x in xs), slope


def _multiplier_from_modulus(a: float, d: int, log_m: float) -> float:
    """Unique multiplier >= 2d-2 at which the member's log modulus, d log a
    plus _log_modulus_ratio_and_slope's log(m / a^d), is log_m, for a
    checked height and degree and a log_m on the multiplier side of
    the crossover (binomial_family.crossover_side +1): _newton_multiplier
    on log log(m / a^d). solve_max_disc's multiplier."""
    log_t = log_m - d * math.log(a)

    def log_log_ratio(lam: float) -> tuple[float, float]:
        s, slope = _log_modulus_ratio_and_slope(d, lam)
        return math.log(s), slope / s

    return _newton_multiplier(log_log_ratio, math.log(log_t), d)


def _multiplier_from_disc(a: float, d: int, log_disc: float) -> float:
    """Invert the closed-form discriminant for the multiplier on
    [2d-2, inf), where it decreases, by _newton_multiplier; for a checked
    height and degree. solve_min_abs's multiplier."""
    return _newton_multiplier(_log_disc_and_slope(a, d), log_disc, d)


def _newton_multiplier(value_and_slope, target: float, d: int) -> float:
    """Multiplier on [2d-2, inf) where F falls to target, from
    value_and_slope(lam) = (F, dF/dt) in t = log lam; 2d-2 itself when
    F(2d-2) <= target. Newton steps in t from 2d-2, with no bracket: both
    targets, log log(m/a^d) and log disc, are decreasing and convex in t
    on [2d-2, inf) (checked at 40 digits for d <= 40 and d in {60, 101,
    200, 500, 1100, 3000}, up to lam = 1e304). A tangent lies below a
    convex F, so the iterates rise monotonically to the root, as in
    lemniscate._halfwidth_grid; once a step no longer lowers |F - target|,
    rounding has taken over and the better of the last two is returned.
    DomainError when lam leaves float range or 100 steps do not settle.
    """
    lam = 2.0 * d - 2.0
    value, slope = value_and_slope(lam)
    err = value - target
    if err <= 0.0:
        return lam
    for _ in range(100):
        step = -err / slope
        # lam e^step, resolving steps below one ulp of log lam; the clamp
        # only keeps expm1 from raising where the product overflows anyway
        nxt = lam + lam * math.expm1(min(step, 709.0))
        if nxt == math.inf:
            log_lam = math.log(lam) + step
            raise DomainError("multiplier past float range (log lam = %.17g)" % log_lam)
        if nxt == lam:
            return lam
        value, slope = value_and_slope(nxt)
        if not abs(value - target) < abs(err):
            return lam
        lam, err = nxt, value - target
    raise DomainError("multiplier solve did not settle in 100 steps (d = %d)" % d)


def closed_form_disc(a: float, d: int, lam: float):
    """Discriminant of the family member, fully closed form:

    a^(d(d-1)) * prod_{k=1}^{d} k^k
               * prod_{k=1}^{floor(d/2)-1} (lam - 2k)^(2k)
               / prod_{k=ceil(d/2)}^{d-1} (lam - 2k + 1)^(2k-1)

    returned in log space. On the member domain lam >= 2d - 2 every base
    is at least lam - 2d + 3 >= 1, so the discriminant is positive.
    """
    _check_member(a, d, lam)
    return LogDiscriminant(1, _log_disc_and_slope(a, d)(lam)[0])


def _log_disc_and_slope(a: float, d: int):
    """The function lam -> (log closed_form_disc, its derivative in
    log lam: sum_k 2k lam/(lam - 2k) - sum_k (2k-1) lam/(lam - 2k + 1)
    over closed_form_disc's ranges) of a checked height and degree, for
    lam >= 2d - 2, where every base is positive: the only place the lam
    terms are formed, with the lam-free ones (d(d-1) log a and each
    k log k) formed once. One correctly rounded fsum each: at d = 1000,
    terms of size 1e4 cancel down to log discs of order 1, so running
    sums would lose digits."""
    fixed = [d * (d - 1) * math.log(a)] + [k * math.log(k) for k in range(1, d + 1)]
    low, top = range(1, d // 2), range((d + 1) // 2, d)

    def at(lam: float) -> tuple[float, float]:
        terms, slopes = fixed.copy(), []
        for k in low:
            base = lam - 2.0 * k
            terms.append(2 * k * math.log(base))
            slopes.append(2 * k * (lam / base))
        for k in top:
            base = lam - 2.0 * k + 1.0
            terms.append(-(2 * k - 1) * math.log(base))
            slopes.append((1 - 2 * k) * (lam / base))
        return math.fsum(terms), math.fsum(slopes)

    return at
