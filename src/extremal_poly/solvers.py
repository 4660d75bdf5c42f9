"""Extremal solvers for the two dual problems.

solve_min_abs: minimise |f(ai)| over monic real-rooted f at fixed
discriminant. solve_max_disc: maximise the discriminant at fixed
|f(ai)| = m. Each dispatches between the binomial family (large modulus /
small height) and the multiplier family (the rest), gluing at the
boundary m = 2^(d-1) a^d where both collapse to the same polynomial.

A multi-start projected-ascent oracle is included for certifying the
closed forms numerically; it never looks at either family.
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
    eval_coeffs,
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
)

PROBLEM_MIN_ABS = "min_abs"
PROBLEM_MAX_DISC = "max_disc"
REGIME_BINOMIAL = "f_family"
REGIME_MULTIPLIER = "g_family"

# Inputs within this relative log distance of the gluing modulus snap to
# the shared boundary member (binomial regime, zero subleading). Root
# positions vary like the square root of the distance to the boundary, so
# resolving anything finer is illusory anyway.
_BOUNDARY_SNAP = 1e-9


@dataclass(frozen=True)
class ExtremalSolution:
    """One or two optimal polynomials plus the achieved objective values.

    polys holds two entries exactly when the binomial member has a
    nonzero subleading coefficient (mirror pair, sorted by smallest
    root); the shared boundary member has a single entry. achieved_m and
    achieved_disc are recomputed from the returned roots rather than
    echoing the inputs. lambda_or_b carries the family parameter: the
    Lagrange multiplier in the multiplier regime, the subleading
    coefficient otherwise.
    """

    problem: str
    regime: str
    polys: tuple[RealRootedPoly, ...]
    achieved_m: float
    achieved_disc: LogDiscriminant
    lambda_or_b: float


def _boundary_phase(d: int) -> float:
    return 0.0 if d % 2 else math.pi / (2.0 * d)


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
        achieved_m=math.exp(log_modulus_at_ai(lead.roots, a)),
        achieved_disc=log_disc_from_roots(lead),
        lambda_or_b=lambda_or_b,
    )


def _binomial_pair(a: float, d: int, log_p: float):
    roots, sub = bf.lattice_member(a, d, log_p)
    mirror = sorted(-r for r in roots)
    pair = [poly_from_roots(roots), poly_from_roots(mirror)]
    pair.sort(key=lambda p: p.roots[0])
    return pair, sub


def _multiplier_poly(a: float, d: int, lam: float) -> RealRootedPoly:
    return poly_from_roots(
        jf.family_roots(jf.JacobiFamilyParams(a=a, d=d, multiplier=lam))
    )


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
    log_ratio = log_m - (d - 1) * math.log(2.0) - d * math.log(a)
    if abs(log_ratio) <= _BOUNDARY_SNAP * max(1.0, abs(log_m)):
        poly = poly_from_roots(bf.tangent_lattice_roots(a, d, _boundary_phase(d)))
        return _finish(PROBLEM_MAX_DISC, REGIME_BINOMIAL, [poly], a, 0.0)
    if log_ratio > 0.0:
        # binomial regime with phase ratio p = 2^(d-1) a^d / m
        pair, sub = _binomial_pair(a, d, -log_ratio)
        return _finish(PROBLEM_MAX_DISC, REGIME_BINOMIAL, pair, a, sub)
    lam = jf.solve_multiplier(a, d, m)
    poly = _multiplier_poly(a, d, lam)
    return _finish(PROBLEM_MAX_DISC, REGIME_MULTIPLIER, [poly], a, lam)


def solve_min_abs(a: float, d: int, disc: float) -> ExtremalSolution:
    """Minimise |f(ai)| over monic degree-d real-rooted f with
    discriminant disc > 0."""
    _validate_common(a, d)
    if disc <= 0 or not math.isfinite(disc):
        raise DomainError("target discriminant must be positive and finite")
    if bf.small_height_condition(a, d, disc):
        p = bf.phase_ratio(a, d, disc).p
        if p >= 1.0 - _BOUNDARY_SNAP:
            poly = poly_from_roots(
                bf.tangent_lattice_roots(a, d, _boundary_phase(d))
            )
            return _finish(PROBLEM_MIN_ABS, REGIME_BINOMIAL, [poly], a, 0.0)
        pair, sub = _binomial_pair(a, d, bf.log_phase_ratio(a, d, disc))
        return _finish(PROBLEM_MIN_ABS, REGIME_BINOMIAL, pair, a, sub)
    lam = _multiplier_from_disc(a, d, math.log(disc))
    poly = _multiplier_poly(a, d, lam)
    return _finish(PROBLEM_MIN_ABS, REGIME_MULTIPLIER, [poly], a, lam)


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
    the winning start; starts_converged counts all that plateaued."""

    log_disc: LogDiscriminant
    roots: tuple[float, ...]
    converged: bool
    starts_converged: int


def _pairwise_log(x: np.ndarray, idx) -> np.ndarray:
    iu, ju = idx
    diffs = np.abs(x[:, iu] - x[:, ju])
    with np.errstate(divide="ignore"):
        return 2.0 * np.sum(np.log(diffs), axis=1)


def _rescale_to_modulus(x: np.ndarray, a: float, target: float) -> np.ndarray:
    """Per-row scale factors t > 0 with sum 0.5 log(a^2 + t^2 x^2) = target.

    Newton in log t from t = 1 (after a projected step the violation is
    second order, so this is a handful of iterations), with the per-round
    multiplicative change clamped to keep stray rows from overshooting.
    Rows must be nonzero."""
    t = np.ones(x.shape[0])
    for _ in range(80):
        tx2 = (t[:, None] * x) ** 2
        val = 0.5 * np.sum(np.log(a * a + tx2), axis=1) - target
        if np.all(np.abs(val) <= 1e-13 * max(1.0, abs(target))):
            break
        # d/d(log t) of the constraint sum
        slope = np.sum(tx2 / (a * a + tx2), axis=1)
        step = val / np.maximum(slope, 1e-300)
        t = t * np.exp(-np.clip(step, -math.log(2.0), math.log(2.0)))
    return t


def numeric_oracle_max_disc(
    a: float,
    d: int,
    m: float,
    starts: int = 32,
    seed: int = 0,
    max_iters: int = 100_000,
) -> OracleResult:
    """Direct numerical maximisation of the pairwise log product under the
    modulus constraint; knows nothing about either closed-form family.

    Projected gradient ascent from Cauchy-distributed starts (seeded
    seed + index), renormalised to the constraint after every step by a
    global rescale solved with a damped Newton iteration in log scale.
    Step size starts at 1e-2/d^2,
    halves on failed steps, and may recover up to 100x the base. Winner
    is the best final value, ties to the lowest start index.
    """
    _validate_common(a, d)
    if d > 6:
        raise DomainError("oracle cost grows too fast beyond d = 6")
    if m <= 0 or not math.isfinite(m) or math.log(m) <= d * math.log(a):
        raise RegimeError("need m > a^d")
    if starts < 1:
        raise DomainError("need at least one start")
    target = math.log(m)
    idx = np.triu_indices(d, k=1)

    x = np.empty((starts, d))
    for i in range(starts):
        rng = np.random.default_rng(seed + i)
        row = a * rng.standard_cauchy(d)
        while np.unique(row).size < d or np.all(row == 0.0):
            row = a * rng.standard_cauchy(d)
        x[i] = np.sort(row)
    x *= _rescale_to_modulus(x, a, target)[:, None]

    g = _pairwise_log(x, idx)
    base_step = 1e-2 / (d * d)
    eta = np.full(starts, base_step)
    active = np.ones(starts, bool)
    converged = np.zeros(starts, bool)

    for _ in range(max_iters):
        if not active.any():
            break
        xa = x[active]
        diff = xa[:, :, None] - xa[:, None, :]
        with np.errstate(divide="ignore"):
            inv = np.where(diff != 0.0, 1.0 / diff, 0.0)
        grad_g = 2.0 * np.sum(inv, axis=2)
        grad_h = xa / (a * a + xa * xa)
        dot = np.sum(grad_g * grad_h, axis=1) / np.sum(grad_h * grad_h, axis=1)
        proj = grad_g - dot[:, None] * grad_h
        y = xa + eta[active, None] * proj
        ok = np.all(np.isfinite(y), axis=1) & np.any(y != 0.0, axis=1)
        y[~ok] = xa[~ok]
        y *= _rescale_to_modulus(y, a, target)[:, None]
        g_new = _pairwise_log(y, idx)
        better = ok & np.isfinite(g_new) & (g_new > g[active])

        act_idx = np.flatnonzero(active)
        acc = act_idx[better]
        rej = act_idx[~better]
        x[acc] = y[better]
        gain = g_new[better] - g[acc]
        g[acc] = g_new[better]
        eta[acc] = np.minimum(eta[acc] * 1.3, 100.0 * base_step)
        eta[rej] *= 0.5
        done_acc = acc[gain <= 1e-12 * (1.0 + np.abs(g[acc]))]
        converged[done_acc] = True
        active[done_acc] = False
        stalled = rej[eta[rej] < 1e-12 * base_step]
        converged[stalled] = True
        active[stalled] = False

    best = int(np.argmax(g))
    return OracleResult(
        log_disc=LogDiscriminant(1, float(g[best])),
        roots=tuple(float(v) for v in np.sort(x[best])),
        converged=bool(converged[best]),
        starts_converged=int(converged.sum()),
    )
