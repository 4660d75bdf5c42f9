"""Monic real-rooted polynomials with overflow-safe discriminants.

A polynomial is its sorted roots. Coefficient lists (the family closed
forms' output, and the resultant oracle's input in oracles) are
ascending: coeffs[k] multiplies x**k. Discriminants are kept as
(sign, log|value|) pairs because the values themselves overflow float64
well before degree 20 for root sets of any realistic spread. The
discriminant of a root set is the pairwise root-difference product, its
logs summed in blocks to the correctly rounded total.

Both evidence kernels sum the logs of a product of moduli, and a modulus
can be past float range where its log is not. One rule covers it: a term
whose float is inf is retaken with both operands halved, and its log 2
is one more term of the same fsum. Each kernel shows why the halving is
exact there; no other term is touched.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, InputError, check_height


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
        """Plain float value sign * exp(log_abs): inf above log_abs of
        about 709.78, subnormal with few significant bits below about
        -708.4, and 0.0 below about -745.1. Round trips should use
        log_abs."""
        if self.sign == 0:
            return 0.0
        return self.sign * _exp_or_inf(self.log_abs)

    @classmethod
    def zero(cls) -> "LogDiscriminant":
        return cls(0, float("-inf"))


def _exp_or_inf(log_x: float) -> float:
    """exp(log_x), or inf once the value leaves float range."""
    try:
        return math.exp(log_x)
    except OverflowError:
        return math.inf


def rel_log_diff(lhs: float, rhs: float) -> float:
    """Relative disagreement of two log magnitudes.

    Floored at scale 1 so that values near log = 0 do not blow the ratio up.
    Signs are compared separately by callers. NaN when either log is NaN
    or infinite, so a caller must test it in a form that NaN fails.
    """
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class RealRootedPoly:
    """Monic polynomial of degree d >= 2 with d real roots, sorted ascending.

    The roots are the whole representation. Coefficients are not kept
    here: a solver answer carries its family's closed-form rows
    (ExtremalSolution.coeffs), accurate per coefficient where multiplying
    the rounded roots back out is not.
    """

    roots: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.roots)


def poly_from_roots(roots) -> RealRootedPoly:
    """Build a monic RealRootedPoly from its real roots (any order)."""
    rs = [float(r) for r in roots]
    if len(rs) < 2:
        raise DomainError("need degree >= 2, got %d roots" % len(rs))
    if not all(math.isfinite(r) for r in rs):
        raise InputError("roots must be finite")
    rs.sort()
    return RealRootedPoly(roots=tuple(rs))


_LOG2 = math.log(2.0)


def log_modulus_at_ai(roots, a: float) -> float:
    """log |f(ai)| from the sequence roots, safe for any degree and for
    any |x + ai| past float range."""
    check_height(a)
    logs = list(map(math.log, map(math.hypot, repeat(a), roots)))
    total = math.fsum(logs)
    if total == math.inf:
        # a hypot overflows only where a and |x| are both at least
        # 2^997, so halving both is exact
        for i, x in enumerate(roots):
            if logs[i] == math.inf:
                logs[i] = math.log(math.hypot(0.5 * a, 0.5 * x))
                logs.append(_LOG2)
        total = math.fsum(logs)
    return total


# Root pairs per block of log_disc_from_roots, the most _split_sums sums
# exactly; the blocks bound its memory. A degree with at most this many
# pairs is one block.
_PAIR_BLOCK = 1 << 14

# Pairs from which one block's logs are split rather than listed: the two
# cost the same, about 15 us, between d = 19 and 20 on a 2-vCPU Xeon VM.
_SPLIT_MIN_PAIRS = 190

_SPLIT_CONSTANTS = (1.5 * 2.0**24, 1.5 * 2.0**-14)

# Bound, per log, on the error of a float sum of first-level remainders:
# n <= 2^14 of them, each at most 2^-29, sum in any order to within
# gamma_(n-1)·n·2^-29 < n·2^-68 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, eq. 4.4 with gamma_k = k·2^-53/(1 - k·2^-53)).
_REMAINDER_ERROR = 2.0**-68


def _split_sums(g: np.ndarray, h: np.ndarray, constants) -> list[float]:
    """Floats summing to sum(g), exactly with both _SPLIT_CONSTANTS; g
    and h are overwritten.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): for C = 1.5·2^e and |g| <= 2^(e-1), h = (g + C) - C is g
    rounded to a multiple of 2^(e-52), and g - h is exact and at most
    2^(e-53); the units here are 2^-28 and 2^-66. The entries must be
    multiples of 2^-106 below 2^10 in magnitude, as logs of positive
    floats are (each is 0 or above 2^-54). Over at most 2^14 entries the
    partial sums of each level, and of the remainders (at most 2^-67),
    are then multiples of their unit below 2^53 units: every sum is exact
    in any order. With the first constant alone the first float is still
    exact, and the last, the float sum of remainders of at most 2^-29, is
    within _REMAINDER_ERROR per entry of theirs.
    """
    sums = []
    for c in constants:
        np.add(g, c, out=h)
        h -= c
        sums.append(float(h.sum()))
        g -= h
    sums.append(float(g.sum()))
    return sums


def _row_block_sums(xs: np.ndarray, op, weight: float, constants) -> list[float]:
    """weight times the _split_sums, at constants, of np.log(op(x_c, x_i))
    over the pairs i < c of xs, in blocks of at most _PAIR_BLOCK pairs.

    A gap x_c - x_i past float range, the only op result that can be, is
    retaken at half scale, with its log 2 as one more term."""
    d = xs.size
    # blocks in one buffer: rows j <= i < j + rows, as many as keep the
    # row block within _PAIR_BLOCK gaps (so at most isqrt(_PAIR_BLOCK) of
    # them), and columns k <= c < k + cols, fewer than d - 1 only if rows = 1
    g, h = np.empty((2, _PAIR_BLOCK))
    below = np.tri(math.isqrt(_PAIR_BLOCK), k=-1, dtype=bool)  # c <= i: gap 1, log 0
    terms = []
    j = 0
    while j < d - 1:
        rows = max(1, min(d - 1 - j, _PAIR_BLOCK // (d - 1 - j)))
        cols = _PAIR_BLOCK // rows
        y = xs[j : j + rows, None]
        for k in range(j + 1, d, cols):
            gaps = g[: rows * min(cols, d - k)].reshape(rows, -1)
            op(xs[k : k + cols], y, out=gaps)
            if gaps[0, -1] == math.inf:  # the block's widest gap
                # x_c - x_i overflows only where x_c and -x_i are at least
                # 2^970, so halving both is exact
                over = gaps == math.inf
                op(0.5 * xs[k : k + cols], 0.5 * y, out=gaps, where=over)
                terms += [_LOG2] * np.count_nonzero(over)
            np.copyto(gaps[:, :rows], 1.0, where=below[:rows, :rows])
            np.log(gaps, out=gaps)
            terms += _split_sums(gaps.ravel(), h[: gaps.size], constants)
        j += rows
    return [weight * t for t in terms]


def _block_sums(xs: np.ndarray, wide: bool, constants) -> list[float]:
    """The _split_sums, at constants, of the np.log of every gap of the
    sorted distinct roots xs, in blocks of at most _PAIR_BLOCK gaps. A
    wide set, one whose span is past float range, takes the plain row
    blocks, which alone retake the gaps past float range."""
    if wide:
        with np.errstate(over="ignore"):
            return _row_block_sums(xs, np.subtract, 1.0, constants)
    d = xs.size
    if d * (d - 1) // 2 <= _PAIR_BLOCK:
        logs = _square_logs(xs)
        return _split_sums(logs, np.empty_like(logs), constants)
    if not np.array_equal(xs, -xs[::-1]):
        return _row_block_sums(xs, np.subtract, 1.0, constants)
    # a mirror set: xs[half:] is sigma, after the middle 0 for odd d
    half = d // 2
    sigma = xs[d - half :]
    terms = _row_block_sums(xs[half:], np.subtract, 2.0, constants)
    terms += _row_block_sums(sigma, np.add, 2.0, constants)
    for k in range(0, half, _PAIR_BLOCK):
        logs = np.log(2.0 * sigma[k : k + _PAIR_BLOCK])
        terms += _split_sums(logs, np.empty_like(logs), constants)
    return terms


def _square_logs(xs: np.ndarray) -> np.ndarray:
    """np.log of the positive gaps x_k - x_i of the (d - 1) x (d - 1) square."""
    gaps = xs[1:] - xs[:-1, None]
    return np.log(gaps[gaps > 0])


def log_disc_from_roots(p: RealRootedPoly) -> LogDiscriminant:
    """Discriminant from the pairwise root-difference product.

    sign 0 exactly when two stored roots coincide as floats; otherwise +1,
    since the polynomial is monic with all roots real. log_abs is
    2·log prod (x_k - x_i), the correctly rounded sum of the np.log of
    every gap rounded once, doubled (which is exact), so it has the bits
    of 2·fsum over every log.

    Below _SPLIT_MIN_PAIRS gaps the logs go to one fsum as a list. From
    there every block (_block_sums) is split at one level, whose
    remainders are summed in float within _REMAINDER_ERROR per gap, E in
    all: up to _PAIR_BLOCK gaps are one block, more are taken in row
    blocks (_row_block_sums), where a mirror root set, x_i = -x_(d-1-i)
    with 0 in the middle for odd d, as the multiplier family's are, takes
    each distinct gap once: every sigma_c - sigma_i and sigma_c + sigma_i
    (i < c) over its positive roots sigma, and every sigma_c - 0, is two
    gaps, and 2·sigma_i is one. When the fsums of the terms with -E and
    with +E agree, that is the rounded sum; else every block is taken
    again with the exact two-level split.

    A set whose span is past float range takes the plain row blocks at
    every degree, where each gap past float range is retaken at half
    scale, with its log 2 as one more term: the module's one rule.
    """
    rs = sorted(p.roots)
    if any(x == y for x, y in zip(rs, rs[1:])):
        return LogDiscriminant.zero()
    xs = np.array(rs)
    pairs = xs.size * (xs.size - 1) // 2
    wide = math.isinf(rs[-1] - rs[0])
    if pairs < _SPLIT_MIN_PAIRS and not wide:
        return LogDiscriminant(1, 2.0 * math.fsum(_square_logs(xs).tolist()))
    terms = _block_sums(xs, wide, _SPLIT_CONSTANTS[:1])
    err = _REMAINDER_ERROR * pairs
    total = math.fsum(terms + [-err])
    if total != math.fsum(terms + [err]):
        total = math.fsum(_block_sums(xs, wide, _SPLIT_CONSTANTS))
    return LogDiscriminant(1, 2.0 * total)
