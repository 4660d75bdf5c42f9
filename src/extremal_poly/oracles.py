"""Independent routes that check the paper's closed forms.

No solve path imports this module: solve-min, solve-disc, energy and
lemniscate run without it, and only verification, the package's exports
and the tests use it. Each route reaches its answer without the closed
form it checks:

- general Jacobi and Gegenbauer expansions, the Jacobi discriminant
  formula and the multiplier-degenerate members, for jacobi_family;
- a Sylvester resultant determinant that only ever sees coefficients, up
  to RESULTANT_MAX_DEGREE, beside poly_core's pairwise root-difference
  product: agreement between the two discriminant routes is what the
  verification suite leans on;
- the published low-degree maximisers with the quartic and quintic
  discriminants, and Descartes' bound on the number of real roots;
- a multi-start ascent oracle, numeric_oracle_max_discs, that never looks
  at either family, and stationarity_residual, the roots-only KKT check
  of an answer built on its gradients.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binomial_family as bf
from . import jacobi_family as jf
from .errors import DomainError, InputError, check_degree, check_height
from .poly_core import LogDiscriminant

# Oracle tolerance, relative in log magnitude: verify's two resultant
# checks hold their worst error to it.
TOL_ORACLE = 1e-8

# Largest degree of disc_resultant_oracles: the last at which family_coeffs
# rows (a in [0.01, 100], multiplier in [2d - 2 + 1e-3, 20d]) stay in TOL_ORACLE.
RESULTANT_MAX_DEGREE = 12

# How near alpha + beta may come to a degenerate value -d - k before
# jacobi_disc refuses it.
_DEGENERATE_REJECT = 1e-9

# Largest unit-chart target T = log m - d log a the ascent oracle takes.
# Each term of its constraint sum 0.5 log(1 + x_k^2) = T is >= 0, so every
# feasible point has 1 + x_k^2 <= e^(2T), that is |x_k| <= sqrt(e^(2T) - 1)
# < e^T, and the (1 + x^2)^2 of _newton_directions is at most e^(4T): below
# 2^1024, the float overflow, exactly when T < 256 log 2 (about 177.4).
_ORACLE_MAX_TARGET = 256.0 * math.log(2.0)

# Largest stationarity residual (_kkt_residuals) of an oracle start that
# counts as converged. Starts that reach a maximum end at or below about
# 3e-7 for d = 2..6, and stalled ones near 0.7.
_ORACLE_STATIONARY = 1e-4

# Newton iterations after which an ascent start stops unconverged.
_ORACLE_MAX_ITERS = 100_000


def _check_jacobi(d: int, alpha: float, beta: float) -> None:
    """DomainError unless d and the exponents (alpha, beta) name a Jacobi
    polynomial; the exponents may be arbitrary reals, classical or not."""
    if not isinstance(d, int) or d < 1:
        raise DomainError("d must be an integer >= 1")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
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


def jacobi_coeffs(d: int, alpha: float, beta: float) -> list[float]:
    """Ascending coefficients of P_d^(alpha,beta) from the finite sum
    2^-d sum_k C(d+alpha, d-k) C(d+beta, k) (x-1)^k (x+1)^(d-k)."""
    _check_jacobi(d, alpha, beta)
    total = [0.0] * (d + 1)
    for k in range(d + 1):
        w = gen_binom(d + alpha, d - k) * gen_binom(d + beta, k)
        if w == 0.0:
            continue
        lo = [math.comb(k, i) * (-1.0) ** (k - i) for i in range(k + 1)]
        hi = [float(math.comb(d - k, i)) for i in range(d - k + 1)]
        for i, ci in enumerate(lo):
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
    ((order+1/2)_d / (2 order)_d) * C_d^order; zero in exact arithmetic,
    NaN if any coefficient is NaN."""
    denom = pochhammer(2.0 * order, d)
    if abs(denom) <= 1e-12:
        raise DomainError("(2 order)_d vanishes; scaling undefined")
    scale = pochhammer(order + 0.5, d) / denom
    jac = jacobi_coeffs(d, order - 0.5, order - 0.5)
    geg = gegenbauer_coeffs(d, order)
    return float(np.max(np.abs(np.subtract(jac, np.multiply(scale, geg)))))


def jacobi_connection_residual(a: float, d: int, lam: float) -> float:
    """Coefficient residual of the identity linking the family to Jacobi
    polynomials with exponents -lam/2 - 1 at rotated argument -ix/a.

    Relative to the largest family coefficient; NaN if any coefficient is
    NaN. DomainError off the member domain lam >= 2d - 2, and where the
    normalizing Pochhammer (lam - 2d + 2)_d vanishes (to 1e-9): on the
    domain, only at and just above the boundary multiplier 2d - 2, where
    the identity degenerates.
    """
    fam = jf.family_coeffs(a, d, lam)  # first: its check refuses lam < 2d - 2
    poch = pochhammer(lam - 2.0 * d + 2.0, d)
    if abs(poch) <= 1e-9:
        raise DomainError("(lam-2d+2)_d vanishes; connection undefined")
    jac = jacobi_coeffs(d, -lam / 2.0 - 1.0, -lam / 2.0 - 1.0)
    const = complex(0.0, 2.0 * a) ** d * math.factorial(d) / ((-1.0) ** d * poch)
    rot = complex(0.0, -1.0 / a)
    scale = max(1.0, float(np.max(np.abs(fam))))
    residuals = [
        abs(complex(fam[k], 0.0) - const * jac[k] * rot**k) / scale
        for k in range(d + 1)
    ]
    return float(np.max(residuals))


def jacobi_disc(d: int, alpha: float, beta: float):
    """Discriminant of P_d^(alpha,beta) in closed form:

    2^(-d(d-1)) prod_{k=1}^{d} k^(k-2d+2) (k+alpha)^(k-1) (k+beta)^(k-1)
                               (d+k+alpha+beta)^(d-k)

    log space with sign tracking. DomainError when alpha+beta = -d-k for
    some k = 1..d (degenerate leading coefficient; formula invalid).
    """
    _check_jacobi(d, alpha, beta)
    if d < 2:
        raise DomainError("discriminant formula needs d >= 2")
    for k in range(1, d + 1):
        if abs(alpha + beta + d + k) <= _DEGENERATE_REJECT:
            raise DomainError(
                "alpha+beta = -d-%d is excluded (degenerate degree)" % k
            )
    sign = 1
    terms = [-d * (d - 1) * math.log(2.0)]
    for k in range(1, d + 1):
        terms.append((k - 2 * d + 2) * math.log(k))
        for base, expo in ((k + alpha, k - 1), (k + beta, k - 1), (d + k + alpha + beta, d - k)):
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


def reference_max_disc(d: int, m: float) -> float:
    """Maximal discriminant at height 1 and modulus m, for d <= 5 and
    1 < m <= 2^(d-1), via the published low-degree extremal coefficients
    and the elementary quartic/quintic discriminant formulas. Serves as
    an independent reference for the general solver."""
    if d == 2:
        return 4.0 * (m - 1.0)
    if d == 3:
        return 4.0 * (m - 1.0) ** 3
    if d == 4:
        s = math.sqrt(m * m + 7.0 * m + 1.0)
        c2 = -0.4 * (m - 4.0 + s)
        c0 = (3.0 * m + 3.0 - 2.0 * s) / 5.0
        return quartic_disc(c2, c0)
    if d == 5:
        s = math.sqrt(m * m + 23.0 * m + 1.0)
        c2 = -(2.0 / 7.0) * (m - 6.0 + s)
        c0 = (5.0 * m + 5.0 - 2.0 * s) / 7.0
        return quintic_disc(c2, c0)
    raise ValueError("reference values cover d in 2..5 only")


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


@dataclass(frozen=True)
class OracleResult:
    """Best configuration found by the ascent oracle. converged describes
    the winning start; starts_converged counts all that stopped before
    _ORACLE_MAX_ITERS at a stationary point; iterations is the most Newton
    iterations any start took."""

    log_disc: LogDiscriminant
    roots: tuple[float, ...]
    converged: bool
    starts_converged: int
    iterations: int


def _rescale_to_modulus(x: np.ndarray, target) -> np.ndarray:
    """Per-row scale factors t > 0 with sum 0.5 log(1 + t^2 x^2) = target,
    the modulus constraint in the unit chart; target is one float or one
    per row.

    Newton in log t from t = 1 (after a tangent step the violation is
    second order, so this is a handful of iterations), with the per-round
    multiplicative change clamped to keep stray rows from overshooting.
    A row stops moving once it meets the tolerance, so each row's factor
    is the same as if it were solved alone. Rows must be nonzero."""
    t = np.ones(x.shape[0])
    tol = 1e-13 * np.maximum(1.0, np.abs(target))
    for _ in range(80):
        tx2 = (t[:, None] * x) ** 2
        val = 0.5 * np.sum(np.log(1.0 + tx2), axis=1) - target
        off = np.abs(val) > tol
        if not off.any():
            break
        # d/d(log t) of the constraint sum
        slope = np.sum(tx2[off] / (1.0 + tx2[off]), axis=1)
        step = val[off] / np.maximum(slope, 1e-300)
        t[off] *= np.exp(-np.clip(step, -math.log(2.0), math.log(2.0)))
    return t


def _pairwise_log(x: np.ndarray, pairs) -> np.ndarray:
    """Per row, g(x) = sum_{j<k} 2 log|x_j - x_k|, with pairs the
    np.triu_indices(d, k=1) of the row length; -inf where two points
    meet."""
    iu, ju = pairs
    with np.errstate(divide="ignore"):
        return 2.0 * np.sum(np.log(np.abs(x[:, iu] - x[:, ju])), axis=1)


def _diagonals(t: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous stack of square
    matrices, shape (n, d)."""
    n, d, _ = t.shape
    return t.reshape(n, d * d)[:, :: d + 1]


def _kkt_gradients(x: np.ndarray, a: float):
    """Per row, the KKT data of g = sum_{j<k} 2 log|x_j - x_k| under
    h = sum 0.5 log(a^2 + x^2): inv[k, j] = 1/(x_k - x_j) (0 on the
    diagonal), grad g, grad h and the least-squares mu of grad g = mu grad h.
    Rows must have distinct entries. grad h goes through hypot, and mu
    through grad h scaled to a largest entry of 1, so neither overflows
    for roots past sqrt(max float) or at heights like 1e-200."""
    diff = x[:, :, None] - x[:, None, :]
    _diagonals(diff)[:] = 1.0
    inv = 1.0 / diff
    _diagonals(inv)[:] = 0.0
    grad_g = 2.0 * inv.sum(axis=2)
    h = np.hypot(a, x)
    grad_h = (x / h) / h
    h_max = np.max(np.abs(grad_h), axis=1, keepdims=True)
    h_unit = grad_h / h_max
    mu = np.sum(grad_g * h_unit, axis=1) / np.sum(h_unit * h_unit, axis=1)
    return inv, grad_g, grad_h, mu / h_max[:, 0]


def stationarity_residual(roots, a: float) -> tuple[float, float]:
    """(residual, mu): how far distinct real roots are from a critical
    point of the log discriminant at fixed log |f(ai)|, from the roots
    alone.

    The residual is |grad g - mu grad h| / |grad g| with mu the
    least-squares multiplier, the charges' electrostatic balance
    sum_{j != k} 2/(x_k - x_j) = mu x_k / (a^2 + x_k^2). Every extremal
    polynomial drives it to roundoff, with mu its multiplier: lambda in
    the multiplier family, 2d - 2 in the binomial family. It forms d x d
    arrays, sized for d up to a few thousand."""
    x = np.sort(np.asarray(roots, dtype=float))
    check_degree(x.size)
    check_height(a)
    if not np.all(np.isfinite(x)):
        raise InputError("roots must be finite")
    if np.any(x[1:] == x[:-1]):
        raise DomainError("roots must be distinct")
    resid, mu = _kkt_residuals(x[None, :], a)
    return float(resid[0]), float(mu[0])


def _kkt_residuals(x: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, |grad g - mu grad h| / |grad g| and mu of _kkt_gradients,
    both norms taken after scaling by the largest |grad g| so neither
    overflows."""
    _, grad_g, grad_h, mu = _kkt_gradients(x, a)
    scale = np.max(np.abs(grad_g), axis=1, keepdims=True)
    resid = np.linalg.norm((grad_g - mu[:, None] * grad_h) / scale, axis=1)
    return resid / np.linalg.norm(grad_g / scale, axis=1), mu


def _newton_directions(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, an ascent direction for g on the tangent space of the unit
    chart's constraint h(x) = sum 0.5 log(1 + x^2), a Newton step on the
    KKT system (_kkt_gradients), and the step's first-order predicted gain
    grad g . step.

    With mu the least-squares multiplier of grad g = mu grad h, the
    Lagrangian Hessian W = hess g - mu hess h is reduced to an orthonormal
    basis Z of the tangent space, and the step solves
    |Z^T W Z| s = Z^T grad g with each eigenvalue taken as
    max(|w|, 1e-12 max|w|); the direction Z s ascends even where W is
    indefinite. With V the eigenvectors and r = V^T Z^T grad g, the
    predicted gain grad g . Z s is sum r_i^2 / |w_i|, from the same r.
    Rows must have distinct entries."""
    d = x.shape[1]
    inv, grad_g, grad_h, mu = _kkt_gradients(x, 1.0)
    s2 = 1.0 + x * x
    # hess g: 2/(x_k - x_j)^2 off the diagonal, the negated row sum on it;
    # hess h is diagonal, (1 - x^2)/(1 + x^2)^2
    w = 2.0 * inv * inv
    _diagonals(w)[:] = -w.sum(axis=2) - mu[:, None] * (1.0 - x * x) / (s2 * s2)
    # columns 1..d-1 of the Householder reflector that maps grad h onto
    # the first axis span its orthogonal complement
    v = grad_h / np.linalg.norm(grad_h, axis=1, keepdims=True)
    v[:, 0] += np.copysign(1.0, v[:, 0])
    z = np.eye(d)[:, 1:] - (2.0 / np.sum(v * v, axis=1))[:, None, None] * (
        v[:, :, None] * v[:, None, 1:]
    )
    zt = np.swapaxes(z, 1, 2)
    evals, evecs = np.linalg.eigh(zt @ w @ z)
    mag = np.abs(evals)
    mag = np.maximum(mag, 1e-12 * np.maximum(mag.max(axis=1, keepdims=True), 1e-300))
    r = (np.swapaxes(evecs, 1, 2) @ (zt @ grad_g[:, :, None]))[:, :, 0]
    coef = r / mag
    return (z @ (evecs @ coef[:, :, None]))[:, :, 0], np.sum(r * coef, axis=1)


def _count_arg(name: str, value, low: int) -> None:
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < low:
        raise DomainError("%s must be an integer >= %d" % (name, low))


def numeric_oracle_max_discs(
    a: float,
    d: int,
    ms,
    starts: int = 32,
    seed: int = 0,
) -> list[OracleResult]:
    """Direct numerical maximisation of the pairwise log product
    g(x) = sum_{j<k} 2 log|x_j - x_k| under the modulus constraint
    sum 0.5 log(a^2 + x_k^2) = log m, one OracleResult per m in ms (a
    nonempty sequence); knows nothing about either closed-form family.
    RegimeError unless every m exceeds a^d.
    DomainError for a target log m - d log a of 256 log 2 (about 177.4) or
    more, where the unit-chart roots may pass 2^256 (_ORACLE_MAX_TARGET).

    The ascent runs in the unit chart x = a u: at height 1 with the
    target log m - d log a, so the height alone over- or underflows
    nothing, even at a = 1e150 or 1e-150. The roots come back as a u, and
    the log disc gains d (d - 1) log a.

    Each case has its own Cauchy-distributed starts (seeded seed + index),
    rescaled onto its constraint, and all starts of all cases advance in
    one loop, one trial point per active start and round. A trial is a
    reduced Newton step on the KKT system (_newton_directions), halved
    until the trial point, rescaled back onto the constraint by a damped
    Newton iteration in log scale, raises g. With tol = 1e-12 (1 + |log
    disc|), a start stops once an accepted step gains at most tol, once a
    fresh step that is rejected predicted at most tol to first order
    (grad g . step), or once 60 halvings fail to raise g; _ORACLE_MAX_ITERS
    = 100 000 caps the Newton iterations per start. A stopped start counts as converged
    when its stationarity residual (as in stationarity_residual) is at
    most _ORACLE_STATIONARY = 1e-4. Each case's winner is its best final
    value, ties to the lowest start index. Rows never interact, so each
    case returns the bits of its own one-case call.
    """
    check_degree(d)
    check_height(a)
    if d > 6:
        raise DomainError("oracle cost grows too fast beyond d = 6")
    _count_arg("starts", starts, 1)
    _count_arg("seed", seed, 0)
    ms = list(ms)
    if not ms:
        raise DomainError("need at least one modulus")
    log_a = math.log(a)
    targets = []
    for m in ms:
        targets.append(bf._log_modulus(a, d, m) - d * log_a)
        if targets[-1] >= _ORACLE_MAX_TARGET:
            raise DomainError(
                "log m - d log a = %.17g is past the oracle's bound 256 log 2: "
                "its roots would overflow" % targets[-1]
            )
    offset = d * (d - 1) * log_a

    u = np.empty((starts, d))
    for i in range(starts):
        rng = np.random.default_rng(seed + i)
        row = rng.standard_cauchy(d)
        while np.unique(row).size < d:
            row = rng.standard_cauchy(d)
        u[i] = row
    # case c owns rows c * starts ... (c + 1) * starts - 1
    x = np.tile(u, (len(ms), 1))
    target = np.repeat(targets, starts)
    x *= _rescale_to_modulus(x, target)[:, None]
    pairs = np.triu_indices(d, k=1)
    g = _pairwise_log(x, pairs)

    # Each round tries one trial point per active start, either a fresh
    # Newton step or the last one halved.
    n = x.shape[0]
    step = np.zeros_like(x)
    predicted = np.zeros(n)
    iters = np.zeros(n, int)
    halvings = np.zeros(n, int)
    converged = np.zeros(n, bool)
    active = np.ones(n, bool)
    fresh = active.copy()
    while active.any():
        if fresh.any():
            step[fresh], predicted[fresh] = _newton_directions(x[fresh])
            iters[fresh] += 1
            halvings[fresh] = 0
        act = np.flatnonzero(active)
        y = x[act] + step[act]
        ok = np.all(np.isfinite(y), axis=1) & np.any(y != 0.0, axis=1)
        y[~ok] = x[act[~ok]]
        y *= _rescale_to_modulus(y, target[act])[:, None]
        g_new = _pairwise_log(y, pairs)
        up = ok & (g_new > g[act])
        acc, rej = act[up], act[~up]
        gain = g_new[up] - g[acc]
        x[acc], g[acc] = y[up], g_new[up]
        tol = 1e-12 * (1.0 + np.abs(g[act] + offset))
        # stop on a negligible gain, on a rejected fresh step that promised
        # no more, or once 60 halvings (down to 1e-18 of the Newton step)
        # fail to raise g
        flat = rej[(halvings[rej] == 0) & (predicted[rej] <= tol[~up])]
        step[rej] *= 0.5
        halvings[rej] += 1
        done = np.concatenate(
            [acc[gain <= tol[up]], flat, rej[halvings[rej] >= 60]]
        )
        converged[done] = True
        active[done] = False
        fresh = np.zeros(n, bool)
        fresh[acc] = True
        active[fresh & (iters >= _ORACLE_MAX_ITERS)] = False
        fresh &= active

    # a start can also stop on small gains while it crawls along a flat
    # direction far from the maximum (d = 3, m = 1e30 stalls at a residual
    # of 0.7); it counts as converged only where its roots are stationary
    converged &= _kkt_residuals(x, 1.0)[0] <= _ORACLE_STATIONARY
    results = []
    for c in range(len(ms)):
        rows = slice(c * starts, (c + 1) * starts)
        best = c * starts + int(np.argmax(g[rows]))
        results.append(
            OracleResult(
                log_disc=LogDiscriminant(1, float(g[best] + offset)),
                roots=tuple(float(v) for v in np.sort(a * x[best])),
                converged=bool(converged[best]),
                starts_converged=int(converged[rows].sum()),
                iterations=int(iters[rows].max()),
            )
        )
    return results
