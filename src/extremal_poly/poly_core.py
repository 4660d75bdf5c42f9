"""Monic real-rooted polynomials with overflow-safe discriminants.

A polynomial is its sorted roots. Coefficient lists (the resultant
oracle's input, and the family closed forms' output) are ascending:
coeffs[k] multiplies x**k. Discriminants are kept as (sign, log|value|)
pairs because the values themselves overflow float64 well before degree
20 for root sets of any realistic spread.

Two independent discriminant routes are provided on purpose: the pairwise
root-difference product, and a Sylvester resultant determinant that only
ever sees coefficients. Agreement between them is what the verification
suite leans on. The resultant oracle takes many coefficient rows at once
and eliminates one stack of Sylvester matrices per degree, one numpy
operation per column; each row reads the bits of its own single call.
"""

import itertools
import math
from dataclasses import dataclass

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
    if a <= 0:
        raise DomainError("height a must be positive")
    return math.fsum(math.log(math.hypot(a, r)) for r in roots)


# Root pairs per row block of log_disc_from_roots: the blocks bound its
# memory, and wider ones raise the peak and run no faster.
_PAIR_BLOCK = 1 << 14

# Pairs from which a block's logs are summed by binade rather than as a
# list. The two cost the same, about 15 us, near 500 pairs on a 2-vCPU
# Xeon VM (list 7.5 against 12 us at 256 pairs, 650 against 140 us at
# 2^14), so every block at d <= 32 takes the list.
_BINADE_MIN_PAIRS = 512


def _binade_sums(logs: np.ndarray) -> list[float]:
    """At most two floats per binade of logs, summing exactly to sum(logs).

    Exponent buckets after Demmel and Hida (SIAM J. Sci. Comput. 25,
    2003): each entry m·2^e splits as (hi + lo)·2^(e-26), hi an integer
    with |hi| <= 2^26 and lo a multiple of 2^-27 with |lo| <= 1/2. Over
    fewer than 2^26 entries every partial sum of either part is a multiple
    of its unit below 2^53, so each binade's sums are exact in any order,
    and so is their scaling while 2^(e-53) stays normal. The entries must
    be finite and each 0 or at least 2^-968 in magnitude; the log of a
    positive float is 0 or above 2^-54.
    """
    m, e = np.frexp(logs)
    m *= 2.0**26
    hi = np.rint(m)
    m -= hi
    e_min = int(e.min())
    e -= e_min
    hi_sums = np.bincount(e, weights=hi)
    lo_sums = np.bincount(e, weights=m)
    scale = np.arange(e_min - 26, e_min - 26 + hi_sums.size)
    return np.ldexp(hi_sums, scale).tolist() + np.ldexp(lo_sums, scale).tolist()


def _block_terms(gaps: np.ndarray) -> list[float]:
    # floats whose exact sum is that of the logs of the positive gaps
    logs = np.log(gaps[gaps > 0])
    if logs.size >= _BINADE_MIN_PAIRS and math.isfinite(logs.max()):
        return _binade_sums(logs)
    # a small block sums as fast as a list, and an inf log (a gap past
    # float range) makes the fsum inf
    return logs.tolist()


def log_disc_from_roots(p: RealRootedPoly) -> LogDiscriminant:
    """Discriminant from the pairwise root-difference product.

    sign 0 exactly when two stored roots coincide as floats; otherwise +1,
    since the polynomial is monic with all roots real. log_abs is
    2·log prod (x_k - x_i), the exact sum of the np.log of every gap
    rounded once: a block of at least _BINADE_MIN_PAIRS gaps contributes
    its exact per-binade sums, a smaller one its logs, and one fsum of
    those floats gives the same bits as an fsum of every log.
    """
    rs = sorted(p.roots)
    if any(x == y for x, y in zip(rs, rs[1:])):
        return LogDiscriminant.zero()
    xs = np.array(rs)
    rows = max(1, _PAIR_BLOCK // xs.size)
    # block j holds x_k - x_i for rows j <= i < j + rows and columns k > j;
    # the roots are sorted and distinct, so its pairs k > i are exactly its
    # positive entries, at most max(2^14, d - 1) of them: below the 2^26
    # that _binade_sums allows. A gap past float range is inf and so is
    # log_abs.
    blocks = (
        xs[j + 1 :] - xs[j : j + rows, None]
        for j in range(0, xs.size - 1, rows)
    )
    with np.errstate(over="ignore"):
        # fsum is correctly rounded and doubling is exact, so the log of
        # prod (x_k - x_i)^2 is rounded once
        total = math.fsum(itertools.chain.from_iterable(map(_block_terms, blocks)))
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
    bits of its own single call.
    """
    rows = []
    by_degree: dict[int, list[int]] = {}
    for i, coeffs in enumerate(coeff_rows):
        cs = [float(c) for c in coeffs]
        if len(cs) - 1 < 2:
            raise DomainError("degree must be >= 2")
        if cs[-1] == 0.0:
            raise DomainError("leading coefficient must be nonzero")
        if not all(math.isfinite(c) for c in cs):
            raise InputError("coefficients must be finite")
        rows.append(cs)
        by_degree.setdefault(len(cs) - 1, []).append(i)
    out: list[LogDiscriminant] = [LogDiscriminant.zero()] * len(rows)
    for d, where in by_degree.items():
        for i, disc in zip(where, _resultant_rows(d, [rows[i] for i in where])):
            out[i] = disc
    return out


def disc_resultant_oracle(coeffs) -> LogDiscriminant:
    """Discriminant via the Sylvester resultant of f and f'; the
    one-polynomial call of disc_resultant_oracles."""
    return disc_resultant_oracles([coeffs])[0]


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
