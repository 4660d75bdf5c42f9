"""The multiplier-indexed extremal family and its Jacobi connection.

Maximisers of the discriminant at fixed modulus |f(ai)| (below the
boundary modulus 2^(d-1) a^d) form a one-parameter family indexed by a
Lagrange multiplier lam. The family's coefficients and roots, the
constraint that pins lam to a target modulus, and a fully closed form for
its discriminant all live here, together with general Jacobi/Gegenbauer
expansions and the discriminant formula for Jacobi polynomials that the
closed form is checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MonotonicityError, PoleError, RegimeError
from .poly_core import LogDiscriminant

_POLE_REJECT = 1e-9


def multiplier_poles(d: int) -> tuple[int, ...]:
    """Multiplier values where the family coefficients blow up:
    2d - 2j - 1 for j = 1..floor(d/2), ascending."""
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    return tuple(sorted(2 * d - 2 * j - 1 for j in range(1, d // 2 + 1)))


@dataclass(frozen=True)
class JacobiFamilyParams:
    """Height a, degree d and Lagrange multiplier for the family.

    Multipliers within 1e-9 of a pole are rejected outright rather than
    perturbed.
    """

    a: float
    d: int
    multiplier: float

    def __post_init__(self):
        if self.a <= 0 or not math.isfinite(self.a):
            raise DomainError("height a must be positive and finite")
        if not isinstance(self.d, int) or self.d < 2:
            raise DomainError("d must be an integer >= 2")
        if not math.isfinite(self.multiplier):
            raise DomainError("multiplier must be finite")
        for pole in multiplier_poles(self.d):
            if abs(self.multiplier - pole) <= _POLE_REJECT:
                raise PoleError(
                    "multiplier %.17g is within 1e-9 of the pole %d"
                    % (self.multiplier, pole)
                )


def family_coeffs(params: JacobiFamilyParams) -> list[float]:
    """Ascending coefficients of the degree-d family member.

    x^(d-2k) carries (-1)^k a^(2k) C(d,2k) (2k-1)!! / prod_{j=1}^{k}
    (lam - 2d + 2j + 1); every other slot is exactly zero.
    """
    a, d, lam = params.a, params.d, params.multiplier
    coeffs = [0.0] * (d + 1)
    coeffs[d] = 1.0
    term = 1.0
    for k in range(1, d // 2 + 1):
        denom = lam - 2.0 * d + 2.0 * k + 1.0
        if abs(denom) <= _POLE_REJECT:
            raise PoleError("denominator factor j=%d vanishes at this multiplier" % k)
        # ratio of consecutive terms: C(d,2k)(2k-1)!! grows by
        # (d-2k+2)(d-2k+1)/(2k) and one new denominator factor appears
        term *= -a * a * (d - 2 * k + 2) * (d - 2 * k + 1) / (2.0 * k) / denom
        coeffs[d - 2 * k] = term
    return coeffs


def family_roots(params: JacobiFamilyParams) -> list[float]:
    """Roots of the degree-d family member, sorted ascending.

    The member is a Jacobi polynomial P_d^(alpha,alpha), alpha = -lam/2 - 1,
    at a rotated argument, so its roots are the eigenvalues of the
    symmetric tridiagonal matrix of its monic three-term recurrence
    (Golub-Welsch): zero diagonal, off-diagonals
    e_n = a sqrt(n (lam+2-n) / ((lam+3-2n) (lam+1-2n))), n = 1..d-1.
    A zero diagonal pairs the eigenvalues as +-sigma, where the sigma are
    the singular values of the half-size lower-bidiagonal block that
    couples odd and even indices; odd d adds one exact zero. DomainError
    when a radicand is not positive (never for lam >= 2d-2).
    """
    a, d, lam = params.a, params.d, params.multiplier
    n = np.arange(1.0, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        radicand = (
            n * (lam + 2.0 - n) / ((lam + 3.0 - 2.0 * n) * (lam + 1.0 - 2.0 * n))
        )
    if not np.all(np.isfinite(radicand) & (radicand > 0.0)):
        raise DomainError(
            "recurrence radicand is not positive at multiplier %.17g" % lam
        )
    e = a * np.sqrt(radicand)
    cols = d // 2
    b = np.zeros(((d + 1) // 2, cols))
    diag = np.arange(cols)
    b[diag, diag] = e[0::2]
    sub = np.arange((d - 1) // 2)
    b[sub + 1, sub] = e[1::2]
    sigma = np.linalg.svd(b, compute_uv=False)  # descending
    mid = [0.0] if d % 2 else []
    return (-sigma).tolist() + mid + sigma[::-1].tolist()


def constraint_sum(d: int, lam: float) -> float:
    """1 + sum_k C(d,2k)(2k-1)!! / prod_{j<=k}(lam-2d+2j+1); equals the
    modulus ratio m / a^d along the family. Strictly decreasing from +inf
    to 1 on (2d-3, inf)."""
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    total = 1.0
    term = 1.0
    for k in range(1, d // 2 + 1):
        denom = lam - 2.0 * d + 2.0 * k + 1.0
        if denom == 0.0:
            raise PoleError("constraint sum hits the pole at j=%d" % k)
        term *= (d - 2 * k + 2) * (d - 2 * k + 1) / (2.0 * k) / denom
        total += term
    return total


def solve_multiplier(a: float, d: int, modulus: float) -> float:
    """Unique multiplier >= 2d-2 with a^d * constraint_sum = modulus.

    Defined for a^d < modulus <= 2^(d-1) a^d (the boundary maps to exactly
    2d-2). Bisection; the constraint sum is monotone on the bracket.
    """
    if a <= 0 or not math.isfinite(a):
        raise DomainError("height a must be positive and finite")
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    if modulus <= 0 or not math.isfinite(modulus):
        raise DomainError("modulus must be positive and finite")
    log_t = math.log(modulus) - d * math.log(a)
    if log_t <= 0.0:
        raise RegimeError("modulus must exceed a^d")
    if log_t > (d - 1) * math.log(2.0) + 1e-12:
        raise RegimeError("modulus exceeds the boundary 2^(d-1) a^d")
    target = math.exp(log_t)
    if constraint_sum(d, 2.0 * d - 2.0) <= target:
        return 2.0 * d - 2.0
    return bisect_multiplier(lambda lam: constraint_sum(d, lam), target, d)


def bisect_multiplier(fn, target: float, d: int) -> float:
    """Multiplier on [2d-2, inf) where the decreasing fn falls through
    target; callers have checked fn(2d-2) >= target.

    The upper end starts at 4d and doubles until fn drops below target,
    then bisection keeps fn(lo) >= target > fn(hi) down to float
    resolution. MonotonicityError when no upper end is found.
    """
    lo = 2.0 * d - 2.0
    hi = 4.0 * d
    for _ in range(400):
        if fn(hi) < target:
            break
        hi *= 2.0
    else:
        raise MonotonicityError("could not bracket the multiplier from above")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo <= 1e-16 * max(1.0, hi):
            break
        if fn(mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def closed_form_disc(params: JacobiFamilyParams):
    """Discriminant of the family member, fully closed form:

    a^(d(d-1)) * prod_{k=1}^{d} k^k
               * prod_{k=1}^{floor(d/2)-1} (lam - 2k)^(2k)
               / prod_{k=ceil(d/2)}^{d-1} (lam - 2k + 1)^(2k-1)

    returned in log space with sign tracking (denominator factors carry
    odd powers and may be negative below the poles).
    """
    a, d, lam = params.a, params.d, params.multiplier
    sign = 1
    # one correctly rounded sum: at d = 1000, terms of size 1e4 cancel
    # down to log discs of order 1, so running sums would lose digits
    terms = [d * (d - 1) * math.log(a)]
    terms += [k * math.log(k) for k in range(1, d + 1)]
    for k in range(1, d // 2):
        base = lam - 2.0 * k
        if base == 0.0:
            return LogDiscriminant.zero()
        terms.append(2 * k * math.log(abs(base)))
    for k in range((d + 1) // 2, d):
        base = lam - 2.0 * k + 1.0
        if abs(base) <= _POLE_REJECT:
            raise PoleError("multiplier sits on the pole %d" % (2 * k - 1))
        terms.append(-(2 * k - 1) * math.log(abs(base)))
        if base < 0:
            sign = -sign
    return LogDiscriminant(sign, math.fsum(terms))


# ---------------------------------------------------------------------------
# general Jacobi / Gegenbauer machinery


@dataclass(frozen=True)
class JacobiParams:
    """Degree and exponents (alpha, beta) of a Jacobi polynomial; the
    exponents may be arbitrary reals, classical or not."""

    d: int
    alpha: float
    beta: float

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError("d must be an integer >= 1")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha and beta must be finite")


def pochhammer(t: float, n: int) -> float:
    """Rising factorial t (t+1) ... (t+n-1)."""
    prod = 1.0
    for i in range(n):
        prod *= t + i
    return prod


def gen_binom(t: float, k: int) -> float:
    """Generalized binomial coefficient C(t, k) for real t, integer k >= 0."""
    prod = 1.0
    for i in range(k):
        prod *= (t - i) / (i + 1)
    return prod


def jacobi_coeffs(params: JacobiParams) -> list[float]:
    """Ascending coefficients of P_d^(alpha,beta) from the finite sum
    2^-d sum_k C(d+alpha, d-k) C(d+beta, k) (x-1)^k (x+1)^(d-k)."""
    d, al, be = params.d, params.alpha, params.beta
    total = [0.0] * (d + 1)
    for k in range(d + 1):
        w = gen_binom(d + al, d - k) * gen_binom(d + be, k)
        if w == 0.0:
            continue
        lo = [math.comb(k, i) * (-1.0) ** (k - i) for i in range(k + 1)]
        hi = [float(math.comb(d - k, i)) for i in range(d - k + 1)]
        for i, ci in enumerate(lo):
            if ci == 0.0:
                continue
            for j, cj in enumerate(hi):
                total[i + j] += w * ci * cj
    return [t * 2.0 ** (-d) for t in total]


def gegenbauer_coeffs(d: int, order: float) -> list[float]:
    """Ascending coefficients of the Gegenbauer polynomial C_d^order from
    its alternating closed sum."""
    if not isinstance(d, int) or d < 0:
        raise DomainError("d must be a nonnegative integer")
    coeffs = [0.0] * (d + 1)
    for k in range(d // 2 + 1):
        num = pochhammer(order, d - k)
        coeffs[d - 2 * k] = (
            (-1.0) ** k
            * num
            / (math.factorial(k) * math.factorial(d - 2 * k))
            * 2.0 ** (d - 2 * k)
        )
    return coeffs


def jacobi_gegenbauer_residual(d: int, order: float) -> float:
    """Max absolute coefficient gap between P_d^(order-1/2, order-1/2) and
    ((order+1/2)_d / (2 order)_d) * C_d^order; zero in exact arithmetic."""
    denom = pochhammer(2.0 * order, d)
    if abs(denom) <= 1e-12:
        raise DomainError("(2 order)_d vanishes; scaling undefined")
    scale = pochhammer(order + 0.5, d) / denom
    jac = jacobi_coeffs(JacobiParams(d=d, alpha=order - 0.5, beta=order - 0.5))
    geg = gegenbauer_coeffs(d, order)
    return max(abs(j - scale * g) for j, g in zip(jac, geg))


def jacobi_connection_residual(params: JacobiFamilyParams) -> float:
    """Coefficient residual of the identity linking the family to Jacobi
    polynomials with exponents -lam/2 - 1 at rotated argument -ix/a.

    Relative to the largest family coefficient. DomainError when the
    normalizing Pochhammer (lam - 2d + 2)_d vanishes (the identity
    degenerates there, e.g. at the boundary multiplier itself).
    """
    a, d, lam = params.a, params.d, params.multiplier
    poch = pochhammer(lam - 2.0 * d + 2.0, d)
    if abs(poch) <= 1e-9:
        raise DomainError("(lam-2d+2)_d vanishes; connection undefined")
    fam = family_coeffs(params)
    jac = jacobi_coeffs(JacobiParams(d=d, alpha=-lam / 2.0 - 1.0, beta=-lam / 2.0 - 1.0))
    const = complex(0.0, 2.0 * a) ** d * math.factorial(d) / ((-1.0) ** d * poch)
    rot = complex(0.0, -1.0 / a)
    scale = max(1.0, max(abs(c) for c in fam))
    worst = 0.0
    for k in range(d + 1):
        predicted = const * jac[k] * rot**k
        worst = max(worst, abs(complex(fam[k], 0.0) - predicted) / scale)
    return worst


def jacobi_disc(params: JacobiParams):
    """Discriminant of P_d^(alpha,beta) in closed form:

    2^(-d(d-1)) prod_{k=1}^{d} k^(k-2d+2) (k+alpha)^(k-1) (k+beta)^(k-1)
                               (d+k+alpha+beta)^(d-k)

    log space with sign tracking. DomainError when alpha+beta = -d-k for
    some k = 1..d (degenerate leading coefficient; formula invalid).
    """
    d, al, be = params.d, params.alpha, params.beta
    if d < 2:
        raise DomainError("discriminant formula needs d >= 2")
    for k in range(1, d + 1):
        if abs(al + be + d + k) <= _POLE_REJECT:
            raise DomainError(
                "alpha+beta = -d-%d is excluded (degenerate degree)" % k
            )
    sign = 1
    terms = [-d * (d - 1) * math.log(2.0)]
    for k in range(1, d + 1):
        terms.append((k - 2 * d + 2) * math.log(k))
        for base, expo in ((k + al, k - 1), (k + be, k - 1), (d + k + al + be, d - k)):
            if expo == 0:
                continue
            if base == 0.0:
                return LogDiscriminant.zero()
            terms.append(expo * math.log(abs(base)))
            if base < 0 and expo % 2 == 1:
                sign = -sign
    return LogDiscriminant(sign, math.fsum(terms))


def degenerate_family_coeffs(d: int, anchor: int, anchor_coeff: float) -> list[float]:
    """Coefficients of the multiplier-degenerate family member at
    lam = d + anchor - 1, where the recurrence splits into two chains.

    Requires 0 <= anchor <= d-3 with d - anchor odd; the second chain is
    scaled by the free coefficient anchor_coeff of x^anchor. Members never
    have d real roots, which is why the extremal solvers ignore them.
    """
    if not isinstance(d, int) or not isinstance(anchor, int):
        raise DomainError("d and anchor must be integers")
    if d < 3 or anchor < 0 or anchor > d - 3 or (d - anchor) % 2 == 0:
        raise DomainError("need 0 <= anchor <= d-3 with d - anchor odd")
    coeffs = [0.0] * (d + 1)
    coeffs[d] = 1.0
    prod = 1.0
    for k in range(1, d // 2 + 1):
        prod *= (2.0 * k - 1.0) / (d - anchor - 2.0 * k)
        coeffs[d - 2 * k] = math.comb(d, 2 * k) * prod
    coeffs[anchor] = float(anchor_coeff)
    prod = 1.0
    for k in range(1, anchor // 2 + 1):
        prod *= (2.0 * k - 1.0) / (d - anchor + 2.0 * k)
        coeffs[anchor - 2 * k] = (
            anchor_coeff * (-1.0) ** k * math.comb(anchor, 2 * k) * prod
        )
    return coeffs
