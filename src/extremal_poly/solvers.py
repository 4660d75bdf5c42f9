"""Extremal solvers for the two dual problems.

solve_min_abs: minimise |f(ai)| over monic real-rooted f at fixed
discriminant. solve_max_disc: maximise the discriminant at fixed
|f(ai)| = m. Both reduce their target to the log phase ratio log p and
make one decision on it (_dispatch): the binomial family for p < 1 (large
modulus / small height), the multiplier family for p > 1, and the shared
boundary member, where both families collapse to one polynomial, within
a snap window around the crossover p = 1, m = 2^(d-1) a^d.

A multi-start ascent oracle is included for certifying the closed forms
numerically; it never looks at either family. It takes reduced Newton
steps on the KKT system of the pairwise log product under the modulus
constraint and stops each start once a step gains no more than
1e-12 (1 + |g|) or no halved step gains at all.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binomial_family as bf
from . import jacobi_family as jf
from .errors import DomainError, MonotonicityError, RegimeError
from .poly_core import (
    LogDiscriminant,
    RealRootedPoly,
    _exp_or_inf,
    eval_coeffs,
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
)

PROBLEM_MIN_ABS = "min_abs"
PROBLEM_MAX_DISC = "max_disc"
REGIME_BINOMIAL = "f_family"
REGIME_MULTIPLIER = "g_family"

# Targets near the crossover snap to the shared boundary member (binomial
# regime, zero subleading), which then meets the target to this relative
# accuracy. Root positions vary like the square root of the distance to the
# boundary, so resolving anything finer is illusory anyway.
_BOUNDARY_SNAP = 1e-9


@dataclass(frozen=True)
class ExtremalSolution:
    """One or two optimal polynomials plus the achieved objective values.

    polys holds two entries exactly when the binomial member has a
    nonzero subleading coefficient (mirror pair, sorted by smallest
    root); the shared boundary member has a single entry. achieved_m and
    achieved_disc are recomputed from the returned roots rather than
    echoing the inputs; achieved_m is inf once the modulus leaves float
    range, like LogDiscriminant.value. lambda_or_b carries the family
    parameter: the Lagrange multiplier in the multiplier regime, the
    subleading coefficient otherwise.
    """

    problem: str
    regime: str
    polys: tuple[RealRootedPoly, ...]
    achieved_m: float
    achieved_disc: LogDiscriminant
    lambda_or_b: float


def _validate_common(a: float, d: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    if a <= 0 or not math.isfinite(a):
        raise DomainError("height a must be positive and finite")


def _finish(problem: str, regime: str, polys, a: float, lambda_or_b: float):
    lead = polys[0]
    return ExtremalSolution(
        problem=problem,
        regime=regime,
        polys=tuple(polys),
        achieved_m=_exp_or_inf(log_modulus_at_ai(lead.roots, a)),
        achieved_disc=log_disc_from_roots(lead),
        lambda_or_b=lambda_or_b,
    )


def _dispatch(
    problem: str, a: float, d: int, log_p: float, window: float, solve_lambda
) -> ExtremalSolution:
    """The one regime decision: the boundary member within half the
    window of the crossover log p = 0, the binomial mirror pair below it,
    and above it the multiplier member at the multiplier that
    solve_lambda() returns. window is the log p distance at which the
    boundary member misses the target by _BOUNDARY_SNAP; snapping only
    within half of it leaves room for the rounding of the target."""
    if abs(log_p) <= 0.5 * window:
        poly = poly_from_roots(bf.tangent_lattice_roots(a, d, bf.boundary_phase(d)))
        return _finish(problem, REGIME_BINOMIAL, [poly], a, 0.0)
    if log_p < 0.0:
        roots, sub = bf.lattice_member(a, d, log_p)
        pair = [poly_from_roots(roots), poly_from_roots(sorted(-r for r in roots))]
        pair.sort(key=lambda p: p.roots[0])
        return _finish(problem, REGIME_BINOMIAL, pair, a, sub)
    lam = solve_lambda()
    poly = poly_from_roots(
        jf.family_roots(jf.JacobiFamilyParams(a=a, d=d, multiplier=lam))
    )
    return _finish(problem, REGIME_MULTIPLIER, [poly], a, lam)


def solve_max_disc(a: float, d: int, m: float) -> ExtremalSolution:
    """Maximise the discriminant over monic degree-d real-rooted f with
    |f(ai)| = m. Requires m > a^d (the unconstrained minimum of the
    modulus); RegimeError otherwise."""
    _validate_common(a, d)
    if m <= 0 or not math.isfinite(m):
        raise DomainError("modulus m must be positive and finite")
    log_m = math.log(m)
    if log_m <= d * math.log(a):
        raise RegimeError("m must exceed a^d for a real-rooted solution")
    # phase ratio p = 2^(d-1) a^d / m
    log_ratio = log_m - (d - 1) * math.log(2.0) - d * math.log(a)
    return _dispatch(
        PROBLEM_MAX_DISC, a, d, -log_ratio,
        _BOUNDARY_SNAP * max(1.0, abs(log_m)),
        lambda: jf.solve_multiplier(a, d, m),
    )


def solve_min_abs(a: float, d: int, disc: float) -> ExtremalSolution:
    """Minimise |f(ai)| over monic degree-d real-rooted f with
    discriminant disc > 0."""
    _validate_common(a, d)
    if disc <= 0 or not math.isfinite(disc):
        raise DomainError("target discriminant must be positive and finite")
    log_disc = math.log(disc)
    # Along the binomial family log disc moves 2d-2 times as fast as log p,
    # so this window keeps the boundary member within _BOUNDARY_SNAP of the
    # target discriminant, as the modulus window does for m.
    return _dispatch(
        PROBLEM_MIN_ABS, a, d, bf.log_phase_ratio(a, d, disc),
        _BOUNDARY_SNAP * max(1.0, abs(log_disc)) / (2.0 * d - 2.0),
        lambda: _multiplier_from_disc(a, d, log_disc),
    )


def _multiplier_from_disc(a: float, d: int, log_disc: float) -> float:
    """Invert the closed-form discriminant for the multiplier on
    [2d-2, inf). The closed form decreases there; both bracket ends are
    sign-checked and violations raise MonotonicityError."""

    def log_value(lam: float) -> float:
        return jf.closed_form_disc(
            jf.JacobiFamilyParams(a=a, d=d, multiplier=lam)
        ).log_abs

    if log_value(2.0 * d - 2.0) < log_disc:
        raise MonotonicityError(
            "target discriminant exceeds the family value at the boundary"
        )
    return jf.bisect_multiplier(log_value, log_disc, d)


def lagrange_residuals(p: RealRootedPoly, lam: float) -> tuple[float, float]:
    """(ode_residual, recurrence_residual) of the stationarity conditions
    at multiplier lam, both relatively scaled.

    The differential identity (x^2+1) f'' - lam x f' + d (lam-d+1) f = 0
    is sampled on a Chebyshev grid of 4d points spanning the roots plus
    margin 1; the coefficient recurrence is checked slot by slot. Extremal
    members at height 1 drive both to roundoff; anything else does not.
    """
    d = p.degree
    cs = list(p.coeffs)
    worst = abs((lam - 2.0 * d + 2.0) * cs[d - 1])
    scale = max(1.0, abs((lam - 2.0 * d + 2.0) * cs[d - 1]))
    for k in range(d - 1):
        lhs = (k + 1.0) * (k + 2.0) * cs[k + 2]
        rhs = (d - k) * (d + k - 1.0 - lam) * cs[k]
        worst = max(worst, abs(lhs - rhs))
        scale = max(scale, abs(lhs), abs(rhs))
    rec_residual = worst / scale

    d1 = [k * cs[k] for k in range(1, d + 1)]
    d2 = [k * d1[k] for k in range(1, d)]
    half_width = max(abs(r) for r in p.roots) + 1.0
    n = 4 * d
    worst = 0.0
    scale = max(1.0, max(abs(c) for c in cs))
    for i in range(n):
        x = half_width * math.cos(math.pi * (2 * i + 1) / (2 * n))
        t1 = (x * x + 1.0) * eval_coeffs(d2, x)
        t2 = -lam * x * eval_coeffs(d1, x)
        t3 = d * (lam - d + 1.0) * eval_coeffs(cs, x)
        worst = max(worst, abs(t1 + t2 + t3))
        scale = max(scale, abs(t1), abs(t2), abs(t3))
    return worst / scale, rec_residual


@dataclass(frozen=True)
class OracleResult:
    """Best configuration found by the ascent oracle. converged describes
    the winning start; starts_converged counts all that stopped before
    max_iters; iterations is the most Newton iterations any start took."""

    log_disc: LogDiscriminant
    roots: tuple[float, ...]
    converged: bool
    starts_converged: int
    iterations: int


def _rescale_to_modulus(x: np.ndarray, a: float, target: float) -> np.ndarray:
    """Per-row scale factors t > 0 with sum 0.5 log(a^2 + t^2 x^2) = target.

    Newton in log t from t = 1 (after a tangent step the violation is
    second order, so this is a handful of iterations), with the per-round
    multiplicative change clamped to keep stray rows from overshooting.
    A row stops moving once it meets the tolerance, so each row's factor
    is the same as if it were solved alone. Rows must be nonzero."""
    t = np.ones(x.shape[0])
    tol = 1e-13 * max(1.0, abs(target))
    for _ in range(80):
        tx2 = (t[:, None] * x) ** 2
        val = 0.5 * np.sum(np.log(a * a + tx2), axis=1) - target
        off = np.abs(val) > tol
        if not off.any():
            break
        # d/d(log t) of the constraint sum
        slope = np.sum(tx2[off] / (a * a + tx2[off]), axis=1)
        step = val[off] / np.maximum(slope, 1e-300)
        t[off] *= np.exp(-np.clip(step, -math.log(2.0), math.log(2.0)))
    return t


def _pairwise_log(x: np.ndarray) -> np.ndarray:
    """Per row, g(x) = sum_{j<k} 2 log|x_j - x_k|; -inf where two points
    meet."""
    iu, ju = np.triu_indices(x.shape[1], k=1)
    with np.errstate(divide="ignore"):
        return 2.0 * np.sum(np.log(np.abs(x[:, iu] - x[:, ju])), axis=1)


def _newton_directions(x: np.ndarray, a: float) -> np.ndarray:
    """Per row, an ascent direction for g on the tangent space of
    h(x) = sum 0.5 log(a^2 + x^2): a Newton step on the KKT system.

    With mu the least-squares multiplier of grad g = mu grad h, the
    Lagrangian Hessian W = hess g - mu hess h is reduced to an orthonormal
    basis Z of the tangent space, and the step solves
    |Z^T W Z| s = Z^T grad g with each eigenvalue taken as
    max(|w|, 1e-12 max|w|); the direction Z s ascends even where W is
    indefinite. Rows must have distinct entries."""
    d = x.shape[1]
    diag = np.eye(d, dtype=bool)
    diff = x[:, :, None] - x[:, None, :]
    diff[:, diag] = 1.0
    inv = 1.0 / diff
    inv[:, diag] = 0.0
    grad_g = 2.0 * inv.sum(axis=2)
    s2 = a * a + x * x
    grad_h = x / s2
    mu = np.sum(grad_g * grad_h, axis=1) / np.sum(grad_h * grad_h, axis=1)
    # hess g: 2/(x_k - x_j)^2 off the diagonal, the negated row sum on it;
    # hess h is diagonal, (a^2 - x^2)/(a^2 + x^2)^2
    w = 2.0 * inv * inv
    w[:, diag] = -w.sum(axis=2) - mu[:, None] * (a * a - x * x) / (s2 * s2)
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
    coef = (np.swapaxes(evecs, 1, 2) @ (zt @ grad_g[:, :, None]))[:, :, 0] / mag
    return (z @ (evecs @ coef[:, :, None]))[:, :, 0]


def numeric_oracle_max_disc(
    a: float,
    d: int,
    m: float,
    starts: int = 32,
    seed: int = 0,
    max_iters: int = 100_000,
) -> OracleResult:
    """Direct numerical maximisation of the pairwise log product
    g(x) = sum_{j<k} 2 log|x_j - x_k| under the modulus constraint
    sum 0.5 log(a^2 + x_k^2) = log m; knows nothing about either
    closed-form family.

    Each Cauchy-distributed start (seeded seed + index) is rescaled onto
    the constraint and then improved by reduced Newton steps on the KKT
    system (_newton_directions). A step is halved until the trial point,
    rescaled back onto the constraint by a damped Newton iteration in log
    scale, raises g. A start stops when the gain falls to
    1e-12 (1 + |g|) or when no halving raises g, and counts as converged
    then; max_iters caps the Newton iterations per start. Winner is the
    best final value, ties to the lowest start index.
    """
    _validate_common(a, d)
    if d > 6:
        raise DomainError("oracle cost grows too fast beyond d = 6")
    if m <= 0 or not math.isfinite(m) or math.log(m) <= d * math.log(a):
        raise RegimeError("need m > a^d")
    if starts < 1:
        raise DomainError("need at least one start")
    target = math.log(m)

    x = np.empty((starts, d))
    for i in range(starts):
        rng = np.random.default_rng(seed + i)
        row = a * rng.standard_cauchy(d)
        while np.unique(row).size < d or np.all(row == 0.0):
            row = a * rng.standard_cauchy(d)
        x[i] = row
    x *= _rescale_to_modulus(x, a, target)[:, None]
    g = _pairwise_log(x)

    # All starts advance together: each round tries one trial point per
    # active start, either a fresh Newton step or the last one halved.
    step = np.zeros_like(x)
    iters = np.zeros(starts, int)
    halvings = np.zeros(starts, int)
    converged = np.zeros(starts, bool)
    active = np.full(starts, max_iters > 0)
    fresh = active.copy()
    while active.any():
        if fresh.any():
            step[fresh] = _newton_directions(x[fresh], a)
            iters[fresh] += 1
            halvings[fresh] = 0
        act = np.flatnonzero(active)
        y = x[act] + step[act]
        ok = np.all(np.isfinite(y), axis=1) & np.any(y != 0.0, axis=1)
        y[~ok] = x[act[~ok]]
        y *= _rescale_to_modulus(y, a, target)[:, None]
        g_new = _pairwise_log(y)
        up = ok & (g_new > g[act])
        acc, rej = act[up], act[~up]
        gain = g_new[up] - g[acc]
        x[acc], g[acc] = y[up], g_new[up]
        step[rej] *= 0.5
        halvings[rej] += 1
        # stop on a negligible gain, or once 60 halvings (down to 1e-18 of
        # the Newton step) fail to raise g
        done = np.concatenate(
            [acc[gain <= 1e-12 * (1.0 + np.abs(g[acc]))], rej[halvings[rej] >= 60]]
        )
        converged[done] = True
        active[done] = False
        fresh = np.zeros(starts, bool)
        fresh[acc] = True
        active[fresh & (iters >= max_iters)] = False
        fresh &= active

    best = int(np.argmax(g))
    return OracleResult(
        log_disc=LogDiscriminant(1, float(g[best])),
        roots=tuple(float(v) for v in np.sort(x[best])),
        converged=bool(converged[best]),
        starts_converged=int(converged.sum()),
        iterations=int(iters.max()),
    )
