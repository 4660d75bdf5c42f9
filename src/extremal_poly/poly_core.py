"""Monic real-rooted polynomials with overflow-safe discriminants.

A polynomial is its sorted roots; coefficients are expanded from them on
demand. Coefficient lists are ascending: coeffs[k] multiplies x**k.
Discriminants are kept as (sign, log|value|) pairs because the values
themselves overflow float64 well before degree 20 for root sets of any
realistic spread.

Two independent discriminant routes are provided on purpose: the pairwise
root-difference product, and a Sylvester resultant determinant that only
ever sees coefficients. Agreement between them is what the verification
suite leans on.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError

# Default oracle tolerance, relative in log magnitude.
TOL_ORACLE = 1e-8


@dataclass(frozen=True)
class LogDiscriminant:
    """Discriminant stored as sign in {-1, 0, +1} and natural log of |value|.

    When sign == 0 the log_abs field carries no information (it is set to
    -inf by convention). This doubles as the +infinity-energy sentinel in
    the charge-configuration code.
    """

    sign: int
    log_abs: float

    @property
    def value(self) -> float:
        """Plain float value; overflows to inf for large log_abs."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_abs)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    @classmethod
    def zero(cls) -> "LogDiscriminant":
        return cls(0, float("-inf"))

    @classmethod
    def from_value(cls, x: float) -> "LogDiscriminant":
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))


def rel_log_diff(lhs: float, rhs: float) -> float:
    """Relative disagreement of two log magnitudes.

    Floored at scale 1 so that values near log = 0 do not blow the ratio up.
    Signs are compared separately by callers.
    """
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class RealRootedPoly:
    """Monic polynomial of degree d >= 2 with d real roots, sorted ascending.

    The roots are the whole representation. coeffs (length d + 1, with
    coeffs[d] == 1) is expanded from them on first read and cached; near
    d = 1000 the expansion overflows into inf or NaN while the roots stay
    finite.
    """

    roots: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.roots)

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        return tuple(_expand_monic(self.roots))


def _expand_monic(roots) -> list[float]:
    # multiply out prod (x - r) left to right; new[k] = old[k-1] - r*old[k]
    coeffs = [1.0]
    for r in roots:
        nxt = [0.0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return coeffs


def poly_from_roots(roots) -> RealRootedPoly:
    """Build a monic RealRootedPoly from its real roots (any order)."""
    rs = [float(r) for r in roots]
    if len(rs) < 2:
        raise DomainError("need degree >= 2, got %d roots" % len(rs))
    if not all(math.isfinite(r) for r in rs):
        raise InputError("roots must be finite")
    rs.sort()
    return RealRootedPoly(roots=tuple(rs))


def eval_at(p: RealRootedPoly, z: complex) -> complex:
    """Evaluate via the root product; exact zeros at the stored roots."""
    acc = complex(1.0, 0.0)
    for r in p.roots:
        acc *= z - r
    return acc


def eval_coeffs(coeffs, x: float) -> float:
    """Horner evaluation of an ascending coefficient list."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def modulus_at_ai(p: RealRootedPoly, a: float) -> float:
    """|f(ai)| for height a > 0; equals prod sqrt(a^2 + x_k^2) >= a^d."""
    if a <= 0:
        raise DomainError("height a must be positive")
    prod = 1.0
    for r in p.roots:
        prod *= math.hypot(a, r)
    # each factor is >= a, so the product cannot honestly dip below a^d
    return max(prod, a ** p.degree)


def log_modulus_at_ai(roots, a: float) -> float:
    """log |f(ai)| from roots, safe for any degree."""
    if a <= 0:
        raise DomainError("height a must be positive")
    return math.fsum(math.log(math.hypot(a, r)) for r in roots)


def log_disc_from_roots(p: RealRootedPoly) -> LogDiscriminant:
    """Discriminant from the pairwise root-difference product.

    sign 0 exactly when two stored roots coincide as floats; otherwise +1,
    since the polynomial is monic with all roots real.
    """
    rs = sorted(p.roots)
    if any(x == y for x, y in zip(rs, rs[1:])):
        return LogDiscriminant.zero()
    # row j holds the positive gaps to the larger roots; fsum is exact and
    # doubling is exact, so the log of prod (x_k - x_j)^2 is rounded once
    gaps = (y - x for j, x in enumerate(rs) for y in rs[j + 1 :])
    return LogDiscriminant(1, 2.0 * math.fsum(map(math.log, gaps)))


def _log_det(mat: np.ndarray) -> tuple[int, float]:
    """Determinant of a square matrix as (sign, log|det|).

    Gaussian elimination with partial pivoting; rows are pre-scaled and all
    magnitude bookkeeping happens in logs so nothing overflows.
    """
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    sign = 1
    log_abs = 0.0
    for i in range(n):
        s = np.max(np.abs(a[i]))
        if s == 0.0:
            return 0, float("-inf")
        a[i] /= s
        log_abs += math.log(s)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0, float("-inf")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        v = a[col, col]
        sign = sign if v > 0 else -sign
        log_abs += math.log(abs(v))
        a[col + 1 :, col:] -= np.outer(a[col + 1 :, col] / v, a[col, col:])
    return sign, log_abs


def disc_resultant_oracle(coeffs) -> LogDiscriminant:
    """Discriminant via the Sylvester resultant of f and f'.

    Coefficient-only route, independent of any root knowledge:
    disc = (-1)^(d(d-1)/2) * Res(f, f') / c_d. Leading coefficient may be
    any nonzero real.
    """
    cs = [float(c) for c in coeffs]
    d = len(cs) - 1
    if d < 2:
        raise DomainError("degree must be >= 2")
    if cs[-1] == 0.0:
        raise DomainError("leading coefficient must be nonzero")
    if not all(math.isfinite(c) for c in cs):
        raise InputError("coefficients must be finite")
    deriv = [k * cs[k] for k in range(1, d + 1)]
    n = 2 * d - 1
    syl = np.zeros((n, n))
    f_desc = cs[::-1]
    g_desc = deriv[::-1]
    for i in range(d - 1):
        syl[i, i : i + d + 1] = f_desc
    for i in range(d):
        syl[d - 1 + i, i : i + d] = g_desc
    s_res, log_res = _log_det(syl)
    if s_res == 0:
        return LogDiscriminant.zero()
    sign = s_res * (1 if (d * (d - 1) // 2) % 2 == 0 else -1)
    sign *= 1 if cs[-1] > 0 else -1
    return LogDiscriminant(sign, log_res - math.log(abs(cs[-1])))


def quartic_disc(c2: float, c0: float) -> float:
    """Discriminant of x^4 + c2 x^2 + c0."""
    return 256.0 * c0**3 - 128.0 * c2**2 * c0**2 + 16.0 * c2**4 * c0


def quintic_disc(c2: float, c0: float) -> float:
    """Discriminant of x^5 + c2 x^3 + c0 x."""
    return quartic_disc(c2, c0) * c0**2


def descartes_real_root_bound(coeffs) -> int:
    """Upper bound on the number of real roots (with multiplicity) from
    sign changes: V(f) + V(f(-x)) + multiplicity of the root at 0."""
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    if not cs:
        raise DomainError("zero polynomial")

    def changes(seq):
        nz = [c for c in seq if c != 0.0]
        return sum(1 for x, y in zip(nz, nz[1:]) if (x > 0) != (y > 0))

    mult0 = 0
    while mult0 < len(cs) and cs[mult0] == 0.0:
        mult0 += 1
    flipped = [(-1) ** k * c for k, c in enumerate(cs)]
    return changes(cs) + changes(flipped) + mult0
