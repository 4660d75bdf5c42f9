"""Extremal solvers for the two dual problems.

solve_min_abs: minimise |f(ai)| over monic real-rooted f at fixed
discriminant. solve_max_disc: maximise the discriminant at fixed
|f(ai)| = m. Both reduce their target to the log phase ratio log p and
make one decision on it (_dispatch, by binomial_family.crossover_side):
the binomial family for p < 1 (large modulus / small height), the
multiplier family for p > 1, and the shared boundary member, where both
families collapse to one polynomial, within a snap window around the
crossover p = 1, m = 2^(d-1) a^d.

A multi-start ascent oracle is included for certifying the closed forms
numerically; it never looks at either family. numeric_oracle_max_discs
runs the starts of many moduli at one height and degree in one loop. It
works in the unit chart (height 1, roots scaled by a), takes reduced
Newton steps on the KKT system of the pairwise log product under the
modulus constraint, and stops each start once a step gains no more than
1e-12 (1 + |log disc|), a rejected Newton step predicted no more than
that, or no halved step gains at all. Its KKT gradients also serve
stationarity_residual, the roots-only check of an answer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binomial_family as bf
from . import jacobi_family as jf
from .errors import DomainError, InputError, check_degree, check_disc, check_height
from .poly_core import (
    LogDiscriminant,
    RealRootedPoly,
    _exp_or_inf,
    log_disc_from_roots,
    log_modulus_at_ai,
)

PROBLEM_MIN_ABS = "min_abs"
PROBLEM_MAX_DISC = "max_disc"
REGIME_BINOMIAL = "f_family"
REGIME_MULTIPLIER = "g_family"

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


@dataclass(frozen=True)
class ExtremalSolution:
    """One or two optimal polynomials plus the achieved objective values.

    polys holds two entries exactly when the binomial member has a
    nonzero subleading coefficient (mirror pair, sorted by smallest
    root); the shared boundary member has a single entry. achieved_m and
    achieved_disc are recomputed from the returned roots rather than
    echoing the inputs; achieved_m is exp(log_m), log_m being
    log |f(ai)| of polys[0], and is inf once the modulus leaves float
    range, like LogDiscriminant.value. lambda_or_b carries the family
    parameter: the Lagrange multiplier in the multiplier regime, the
    subleading coefficient of polys[0] otherwise. coeffs holds one
    ascending coefficient row per entry of polys, in the same order,
    from the family's closed form rather than from the rounded roots
    (inf where a coefficient leaves float range).
    """

    problem: str
    regime: str
    polys: tuple[RealRootedPoly, ...]
    coeffs: tuple[tuple[float, ...], ...]
    achieved_m: float
    log_m: float
    achieved_disc: LogDiscriminant
    lambda_or_b: float


def _finish(problem: str, regime: str, polys, coeffs, a: float, lambda_or_b: float):
    lead = polys[0]
    log_m = log_modulus_at_ai(lead.roots, a)
    return ExtremalSolution(
        problem=problem,
        regime=regime,
        polys=tuple(polys),
        coeffs=tuple(tuple(row) for row in coeffs),
        achieved_m=_exp_or_inf(log_m),
        log_m=log_m,
        achieved_disc=log_disc_from_roots(lead),
        lambda_or_b=lambda_or_b,
    )


def _dispatch(
    problem: str, a: float, d: int, log_p: float, solve_lambda
) -> ExtremalSolution:
    """The one regime decision, binomial_family.crossover_side: the
    boundary member within the snap window of the crossover log p = 0,
    the binomial mirror pair below it, and above it the multiplier member
    at the multiplier that solve_lambda() returns. The families' roots
    come sorted and finite, so they are the polynomials as they stand."""
    side = bf.crossover_side(a, d, log_p)
    if side > 0:
        lam = solve_lambda()
        params = jf.JacobiFamilyParams(a=a, d=d, multiplier=lam)
        poly = RealRootedPoly(tuple(jf.family_roots(params)))
        return _finish(
            problem, REGIME_MULTIPLIER, [poly], [jf.family_coeffs(params)], a, lam
        )
    if side == 0:
        poly = RealRootedPoly(tuple(bf._lattice_roots(a, d, 0.0)))
        row = bf._binomial_row(a, d, 0.0)
        return _finish(problem, REGIME_BINOMIAL, [poly], [row], a, 0.0)
    lead = RealRootedPoly(tuple(bf._lattice_roots(a, d, log_p)))
    row = bf._binomial_row(a, d, bf._subleading(a, d, log_p))
    # negating the roots negates every x^j with d - j odd, B among them
    pair = [
        (lead, row),
        (
            RealRootedPoly(tuple(-r for r in reversed(lead.roots))),
            [-c if (d - j) % 2 else c for j, c in enumerate(row)],
        ),
    ]
    pair.sort(key=lambda member: member[0].roots[0])
    polys, rows = zip(*pair)
    return _finish(problem, REGIME_BINOMIAL, polys, rows, a, rows[0][d - 1])


def solve_max_disc(a: float, d: int, m: float) -> ExtremalSolution:
    """Maximise the discriminant over monic degree-d real-rooted f with
    |f(ai)| = m. Requires m > a^d (the unconstrained minimum of the
    modulus); RegimeError otherwise."""
    check_degree(d)
    check_height(a)
    return _max_disc(a, d, bf._log_modulus(a, d, m))


def _max_disc(a: float, d: int, log_m: float) -> ExtremalSolution:
    """solve_max_disc for a checked height and degree and log m > d log a."""
    return _dispatch(
        PROBLEM_MAX_DISC, a, d, bf._log_phase_of_modulus(a, d, log_m),
        lambda: jf._multiplier_from_modulus(a, d, log_m),
    )


def solve_min_abs(a: float, d: int, disc: float) -> ExtremalSolution:
    """Minimise |f(ai)| over monic degree-d real-rooted f with
    discriminant disc > 0."""
    check_degree(d)
    check_height(a)
    check_disc(disc)
    log_disc = math.log(disc)
    return _dispatch(
        PROBLEM_MIN_ABS, a, d, bf._log_phase_of_disc(a, d, log_disc),
        lambda: _multiplier_from_disc(a, d, log_disc),
    )


def _multiplier_from_disc(a: float, d: int, log_disc: float) -> float:
    """Invert the closed-form discriminant for the multiplier on
    [2d-2, inf), where it decreases, by jacobi_family._newton_multiplier;
    for a checked height and degree."""
    return jf._newton_multiplier(jf._log_disc_and_slope(a, d), log_disc, d)


@dataclass(frozen=True)
class OracleResult:
    """Best configuration found by the ascent oracle. converged describes
    the winning start; starts_converged counts all that stopped before
    max_iters at a stationary point; iterations is the most Newton
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
    max_iters: int = 100_000,
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
    (grad g . step), or once 60 halvings fail to raise g; max_iters caps
    the Newton iterations per start. A stopped start counts as converged
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
    _count_arg("max_iters", max_iters, 1)
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
        active[fresh & (iters >= max_iters)] = False
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
