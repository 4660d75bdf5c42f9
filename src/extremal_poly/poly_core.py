"""Monic real-rooted polynomials with overflow-safe discriminants.

A polynomial is its sorted roots. Coefficient lists (the resultant
oracle's input, and the family closed forms' output) are ascending:
coeffs[k] multiplies x**k. Discriminants are kept as (sign, log|value|)
pairs because the values themselves overflow float64 well before degree
20 for root sets of any realistic spread.

Two independent discriminant routes are provided on purpose: the pairwise
root-difference product, its logs summed exactly in row blocks, and a
Sylvester resultant determinant that only ever sees coefficients, up to
RESULTANT_MAX_DEGREE. Agreement between them is what the verification
suite leans on.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, InputError, check_height

# Oracle tolerance, relative in log magnitude: verify's two resultant
# checks hold their worst error to it.
TOL_ORACLE = 1e-8

# Largest degree of disc_resultant_oracles: the last at which family_coeffs
# rows (a in [0.01, 100], multiplier in [2d - 2 + 1e-3, 20d]) stay in TOL_ORACLE.
RESULTANT_MAX_DEGREE = 12


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
    Signs are compared separately by callers.
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


def log_modulus_at_ai(roots, a: float) -> float:
    """log |f(ai)| from roots, safe for any degree."""
    check_height(a)
    return math.fsum(map(math.log, map(math.hypot, repeat(a), roots)))


# Root pairs per block of log_disc_from_roots, the most _split_sums sums
# exactly; the blocks bound its memory. A degree with at most this many
# pairs is one block.
_PAIR_BLOCK = 1 << 14

# Pairs from which one block's logs are split rather than listed: the two
# cost the same, about 28 us, between d = 25 and 26 on a 2-vCPU Xeon VM.
_SPLIT_MIN_PAIRS = 320

_SPLIT_CONSTANTS = (1.5 * 2.0**24, 1.5 * 2.0**-14)

# Bound, per log, on the error of a float sum of first-level remainders:
# n <= 2^14 of them, each at most 2^-29, sum in any order to within
# gamma_(n-1)·n·2^-29 < n·2^-68 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, eq. 4.4 with gamma_k = k·2^-53/(1 - k·2^-53)).
_REMAINDER_ERROR = 2.0**-68


def _split_sums(
    g: np.ndarray, h: np.ndarray, constants: tuple[float, ...] = _SPLIT_CONSTANTS
) -> list[float]:
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
    over the pairs i < c of xs, in blocks of at most _PAIR_BLOCK pairs."""
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
            np.copyto(gaps[:, :rows], 1.0, where=below[:rows, :rows])
            np.log(gaps, out=gaps)
            terms += _split_sums(gaps.ravel(), h[: gaps.size], constants)
        j += rows
    return [weight * t for t in terms]


def log_disc_from_roots(p: RealRootedPoly) -> LogDiscriminant:
    """Discriminant from the pairwise root-difference product.

    sign 0 exactly when two stored roots coincide as floats; otherwise +1,
    since the polynomial is monic with all roots real. log_abs is
    2·log prod (x_k - x_i), the correctly rounded sum of the np.log of
    every gap rounded once, doubled (which is exact), so it has the bits
    of 2·fsum over every log.

    Up to _PAIR_BLOCK gaps are one block: its logs or, from
    _SPLIT_MIN_PAIRS on, their three exact _split_sums go to one fsum.
    More gaps are taken in row blocks (_row_block_sums). A mirror root
    set, x_i = -x_(d-1-i) with 0 in the middle for odd d, as the
    multiplier family's are, takes each distinct gap once: every
    sigma_c - sigma_i and sigma_c + sigma_i (i < c) over its positive
    roots sigma, and every sigma_c - 0, is two gaps, and 2·sigma_i is one.
    Each block is split at one level, whose remainders are summed in
    float within _REMAINDER_ERROR per gap, E in all. When the fsums of
    the terms with -E and with +E agree, that is the rounded sum; else
    every block is taken again with the exact two-level split.
    """
    rs = sorted(p.roots)
    if any(x == y for x, y in zip(rs, rs[1:])):
        return LogDiscriminant.zero()
    if not math.isfinite(rs[-1] - rs[0]):
        # the widest gap is past float range, and so is its log
        return LogDiscriminant(1, math.inf)
    xs = np.array(rs)
    d = xs.size
    if d * (d - 1) // 2 <= _PAIR_BLOCK:
        # one block: the positive gaps of the (d - 1) x (d - 1) square
        gaps = xs[1:] - xs[:-1, None]
        logs = np.log(gaps[gaps > 0])
        few = logs.size < _SPLIT_MIN_PAIRS
        terms = logs.tolist() if few else _split_sums(logs, np.empty_like(logs))
        return LogDiscriminant(1, 2.0 * math.fsum(terms))
    half = d // 2
    mirror = np.array_equal(xs, -xs[::-1])
    sigma = xs[d - half :]

    def block_sums(constants) -> list[float]:
        if not mirror:
            return _row_block_sums(xs, np.subtract, 1.0, constants)
        # xs[half:] is sigma, after the middle 0 for odd d
        terms = _row_block_sums(xs[half:], np.subtract, 2.0, constants)
        terms += _row_block_sums(sigma, np.add, 2.0, constants)
        for k in range(0, half, _PAIR_BLOCK):
            logs = np.log(2.0 * sigma[k : k + _PAIR_BLOCK])
            terms += _split_sums(logs, np.empty_like(logs), constants)
        return terms

    terms = block_sums(_SPLIT_CONSTANTS[:1])
    err = _REMAINDER_ERROR * (d * (d - 1) // 2)
    total = math.fsum(terms + [-err])
    if total != math.fsum(terms + [err]):
        total = math.fsum(block_sums(_SPLIT_CONSTANTS))
    return LogDiscriminant(1, 2.0 * total)


def _log_dets(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of a stack of square matrices as (signs, log|dets|).

    Gaussian elimination with partial pivoting, one numpy operation per
    column for the whole stack. Rows are pre-scaled to a largest entry of 1
    and every magnitude is kept as a log, so nothing overflows. A matrix
    with a zero row or a zero pivot reads sign 0 and log -inf; a zero pivot
    is taken as 1, so that matrix runs on beside the others with no
    division by zero. Each matrix gets the float operations of an
    elimination of its own, in their order, and its logs are summed left to
    right, so its answer has the same bits in any stack. The logs are
    math.log's, since numpy's SIMD log differs from it in the last bit.
    The float stack is eliminated in place, with no copy of its size.
    """
    count, n, _ = a.shape
    at = np.arange(count)
    # max |x| of each row, without an |a| temporary the size of the stack
    scales = np.maximum(a.max(axis=2), -a.min(axis=2))
    singular = (scales == 0.0).any(axis=1)
    scales[scales == 0.0] = 1.0
    a /= scales[:, :, None]
    pivots = np.empty((count, n))
    signs = np.ones(count, dtype=int)
    for col in range(n):
        piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        top = a[at, col].copy()
        a[at, col] = a[at, piv]
        a[at, piv] = top
        v = a[:, col, col].copy()
        zero = v == 0.0
        singular |= zero
        v[zero] = 1.0
        signs[(piv != col) != (v < 0.0)] *= -1
        pivots[:, col] = np.abs(v)
        mult = a[:, col + 1 :, col] / v[:, None]
        a[:, col + 1 :, col + 1 :] -= mult[:, :, None] * a[:, None, col, col + 1 :]
    mags = np.concatenate([scales, pivots], axis=1)
    logs = np.array(list(map(math.log, mags.ravel().tolist()))).reshape(mags.shape)
    log_abs = np.cumsum(logs, axis=1)[:, -1]
    signs[singular] = 0
    log_abs[singular] = -np.inf
    return signs, log_abs


def _resultant_rows(d: int, rows: list[list[float]]) -> list[LogDiscriminant]:
    # discriminants of same-degree rows from one stack of Sylvester matrices
    f = np.array(rows)
    k = np.arange(1, d + 1)
    with np.errstate(over="ignore"):
        g = f[:, 1:] * k
    # disc(t·f) = t^(2d-2)·disc(f): a row whose k·c_k overflows is scaled by
    # t = 2^-e, 2^e >= d, which is exact and keeps every k·c_k finite
    big = ~np.isfinite(g).all(axis=1)
    e = (d - 1).bit_length()
    f[big] = np.ldexp(f[big], -e)
    g[big] = f[big, 1:] * k
    n = 2 * d - 1
    syl = np.zeros((len(rows), n, n))
    f_desc = f[:, ::-1]
    g_desc = g[:, ::-1]
    for i in range(d - 1):
        syl[:, i, i : i + d + 1] = f_desc
    for i in range(d):
        syl[:, d - 1 + i, i : i + d] = g_desc
    signs, log_res = _log_dets(syl)
    parity = 1 if (d * (d - 1) // 2) % 2 == 0 else -1
    out = []
    for s_res, log_r, lead, scaled in zip(
        signs.tolist(), log_res.tolist(), f[:, -1].tolist(), big.tolist()
    ):
        if s_res == 0:
            out.append(LogDiscriminant.zero())
            continue
        log_abs = log_r - math.log(abs(lead))
        if scaled:
            log_abs += (2 * d - 2) * e * math.log(2.0)
        out.append(LogDiscriminant(s_res * parity * (1 if lead > 0 else -1), log_abs))
    return out


def disc_resultant_oracles(coeff_rows) -> list[LogDiscriminant]:
    """Discriminants via the Sylvester resultant of f and f', one per row.

    Coefficient-only route, independent of any root knowledge:
    disc = (-1)^(d(d-1)/2) * Res(f, f') / c_d. Leading coefficients may be
    any nonzero reals. The rows are grouped by degree and each degree's
    Sylvester matrices are eliminated as one stack; every answer has the
    bits of its own single call. Past RESULTANT_MAX_DEGREE it raises
    DomainError: the worst family row's error then grows about twentyfold
    per degree, and rows with nearly repeated roots lose more at any degree.
    """
    rows = []
    by_degree: dict[int, list[int]] = {}
    for i, coeffs in enumerate(coeff_rows):
        cs = [float(c) for c in coeffs]
        d = len(cs) - 1
        if not 2 <= d <= RESULTANT_MAX_DEGREE:
            raise DomainError("degree %d is outside 2..%d" % (d, RESULTANT_MAX_DEGREE))
        if cs[-1] == 0.0:
            raise DomainError("leading coefficient must be nonzero")
        if not all(math.isfinite(c) for c in cs):
            raise InputError("coefficients must be finite")
        rows.append(cs)
        by_degree.setdefault(d, []).append(i)
    out: list[LogDiscriminant] = [LogDiscriminant.zero()] * len(rows)
    for d, where in by_degree.items():
        for i, disc in zip(where, _resultant_rows(d, [rows[i] for i in where])):
            out[i] = disc
    return out


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
