"""Self-contained invariant suite behind `verify`.

Every check is deterministic (fixed seeds, fixed grids) so that two runs
produce byte-identical reports. The suite cross-checks the closed forms
against independent routes: the resultant-based discriminant oracle, the
low-degree reference formulas, the stationarity residuals, and (in deep
mode) the brute-force ascent oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binomial_family as bf
from . import jacobi_family as jf
from . import lemniscate as lem
from . import trig_products as tp
from .energy import (
    arctan_cdf_distance,
    config_from_points,
    energy_lower_bound,
    solve_equilibrium,
)
from .poly_core import (
    TOL_ORACLE,
    disc_resultant_oracle,
    descartes_real_root_bound,
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
    quartic_disc,
    quintic_disc,
    rel_log_diff,
)
from .solvers import (
    REGIME_BINOMIAL,
    _rescale_to_modulus,
    lagrange_residuals,
    numeric_oracle_max_disc,
    solve_max_disc,
    solve_min_abs,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


def _check_reference_max_disc() -> CheckResult:
    worst = 0.0
    count = 0
    for d in (2, 3, 4, 5):
        top = 2.0 ** (d - 1)
        for i in range(1, 11):
            m = 1.0 + (top - 1.0) * i / 10.0
            want = math.log(reference_max_disc(d, m))
            got = solve_max_disc(1.0, d, m).achieved_disc
            worst = max(worst, rel_log_diff(got.log_abs, want))
            count += 1
    return CheckResult(
        "reference-max-disc",
        worst <= 1e-9,
        "%d grid points, worst rel log err %.3e" % (count, worst),
    )


def _check_pinned_values() -> CheckResult:
    d4 = solve_max_disc(1.0, 4, 8.0).achieved_disc.value
    d5 = solve_max_disc(1.0, 5, 16.0).achieved_disc.value
    err = max(abs(d4 / 16384.0 - 1.0), abs(d5 / 12800000.0 - 1.0))
    return CheckResult(
        "pinned-values",
        err <= 1e-9,
        "boundary discs 2^14 and 2^12*5^5, worst rel err %.3e" % err,
    )


def _check_duality_roundtrip() -> CheckResult:
    cases = [
        (1.0, 2, 4.0),
        (1.0, 2, 1.5),
        (0.5, 3, 0.02),
        (2.0, 3, 50.0),
        (1.0, 4, 200.0),
        (0.8, 5, 1.0),
        (1.5, 6, 1e6),
    ]
    worst = 0.0
    for a, d, disc in cases:
        sol = solve_min_abs(a, d, disc)
        back = solve_max_disc(a, d, sol.achieved_m)
        worst = max(
            worst, rel_log_diff(back.achieved_disc.log_abs, math.log(disc))
        )
    return CheckResult(
        "duality-roundtrip",
        worst <= 1e-8,
        "%d cases, worst rel log err %.3e" % (len(cases), worst),
    )


def _check_multiplier_vs_resultant(tol: float, deep: bool) -> CheckResult:
    rng = np.random.default_rng(20240915)
    worst = 0.0
    count = 0
    degrees = range(2, 9) if deep else range(2, 7)
    for d in degrees:
        for _ in range(20):
            lam = float(rng.uniform(2 * d - 2 + 1e-3, 6 * d))
            for a in (0.5, 1.0, 2.0):
                params = jf.JacobiFamilyParams(a=a, d=d, multiplier=lam)
                closed = jf.closed_form_disc(params)
                oracle = disc_resultant_oracle(jf.family_coeffs(params))
                if closed.sign != oracle.sign:
                    return CheckResult(
                        "multiplier-vs-resultant", False,
                        "sign mismatch at d=%d lam=%.6f a=%s" % (d, lam, a),
                    )
                worst = max(worst, rel_log_diff(closed.log_abs, oracle.log_abs))
                count += 1
    return CheckResult(
        "multiplier-vs-resultant",
        worst <= tol,
        "%d cases, worst rel log err %.3e" % (count, worst),
    )


def _check_jacobi_vs_resultant(tol: float) -> CheckResult:
    rng = np.random.default_rng(77001)
    worst = 0.0
    count = 0
    while count < 50:
        d = int(rng.integers(2, 8))
        if count % 3 == 0:
            alpha = beta = float(rng.uniform(-2 * d - 3.0, -d - 0.5))
        else:
            alpha = float(rng.uniform(-4.0, 4.0))
            beta = float(rng.uniform(-4.0, 4.0))
        if min(abs(alpha + beta + d + k) for k in range(1, d + 1)) < 1e-3:
            continue
        if min(abs(alpha + k) for k in range(1, d)) < 1e-6:
            continue
        if min(abs(beta + k) for k in range(1, d)) < 1e-6:
            continue
        params = jf.JacobiParams(d=d, alpha=alpha, beta=beta)
        closed = jf.jacobi_disc(params)
        oracle = disc_resultant_oracle(jf.jacobi_coeffs(params))
        if closed.sign != oracle.sign:
            return CheckResult(
                "jacobi-vs-resultant", False,
                "sign mismatch at d=%d alpha=%.6f beta=%.6f" % (d, alpha, beta),
            )
        worst = max(worst, rel_log_diff(closed.log_abs, oracle.log_abs))
        count += 1
    return CheckResult(
        "jacobi-vs-resultant",
        worst <= tol,
        "50 cases, worst rel log err %.3e" % worst,
    )


def _check_jacobi_gegenbauer() -> CheckResult:
    worst = 0.0
    count = 0
    for d in range(1, 7):
        for mu in (0.5, 1.0, 2.0, 0.25, -3.2):
            if abs(jf.pochhammer(2.0 * mu, d)) <= 1e-9:
                continue
            worst = max(worst, jf.jacobi_gegenbauer_residual(d, mu))
            count += 1
    return CheckResult(
        "jacobi-gegenbauer",
        worst <= 1e-10,
        "%d cases, worst coeff residual %.3e" % (count, worst),
    )


def _check_multiplier_jacobi_connection() -> CheckResult:
    cases = [
        (1.0, 2, 3.0),
        (1.0, 4, 6.5),
        (2.0, 5, 9.7),
        (0.5, 3, 7.2),
        (1.0, 6, 11.3),
    ]
    worst = 0.0
    for a, d, lam in cases:
        params = jf.JacobiFamilyParams(a=a, d=d, multiplier=lam)
        worst = max(worst, jf.jacobi_connection_residual(params))
    return CheckResult(
        "multiplier-jacobi-connection",
        worst <= 1e-9,
        "%d cases, worst rel residual %.3e" % (len(cases), worst),
    )


def _check_binomial_sum() -> CheckResult:
    for d in range(2, 31):
        total = 1 + sum(math.comb(d, 2 * k) for k in range(1, d // 2 + 1))
        if total != 2 ** (d - 1):
            return CheckResult(
                "binomial-sum", False, "mismatch at d=%d" % d
            )
    return CheckResult("binomial-sum", True, "exact for d in 2..30")


def _check_binomial_equality() -> CheckResult:
    rng = np.random.default_rng(5150)
    worst_m = 0.0
    worst_disc = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        disc = float(np.exp(rng.uniform(-3.0, 6.0)))
        log_thr = (
            (2.0 / d - 1.0) * math.log(2.0)
            - math.log(d) / (d - 1.0)
            + math.log(disc) / (d * (d - 1.0))
        )
        a = float(np.exp(log_thr + math.log(rng.uniform(0.3, 1.0))))
        sol = solve_min_abs(a, d, disc)
        bound = bf.min_modulus_bound(a, d, disc)
        worst_m = max(worst_m, abs(sol.achieved_m / bound - 1.0))
        worst_disc = max(
            worst_disc,
            rel_log_diff(sol.achieved_disc.log_abs, math.log(disc)),
        )
        if sol.regime != REGIME_BINOMIAL:
            return CheckResult(
                "binomial-equality", False,
                "unexpected regime %s at a=%.6f d=%d" % (sol.regime, a, d),
            )
    return CheckResult(
        "binomial-equality",
        worst_m <= 1e-9 and worst_disc <= 1e-8,
        "100 cases, worst modulus err %.3e, worst disc log err %.3e"
        % (worst_m, worst_disc),
    )


def _check_boundary_glue() -> CheckResult:
    worst = 0.0
    for d in range(2, 9):
        for a in (0.5, 1.0, 2.0):
            gc = jf.family_coeffs(
                jf.JacobiFamilyParams(a=a, d=d, multiplier=2 * d - 2)
            )
            fc = bf.binomial_coeffs(
                bf.BinomialFamilyParams(
                    a=a, d=d, subleading=0.0,
                    phase=0.0 if d % 2 else math.pi / (2.0 * d),
                )
            )
            scale = max(abs(c) for c in gc)
            diff = max(abs(x - y) for x, y in zip(gc, fc))
            worst = max(worst, diff / scale)
    return CheckResult(
        "boundary-glue",
        worst <= 1e-10,
        "d in 2..8, a in {0.5,1,2}, worst scaled coeff diff %.3e" % worst,
    )


def _check_lagrange_stationarity() -> CheckResult:
    cases = [
        (1.0, 2, 1.5),
        (1.0, 3, 4.0),
        (0.5, 4, 0.9 * 2.0 ** 3 * 0.5 ** 4),
        (2.0, 5, 0.7 * 2.0 ** 4 * 2.0 ** 5),
        (1.0, 6, 40.0),
        (1.0, 4, 30.0),
        (0.7, 3, 3.0 * 0.7 ** 3),
    ]
    worst = 0.0
    for a, d, m in cases:
        sol = solve_max_disc(a, d, m)
        lam = (
            sol.lambda_or_b
            if sol.regime != REGIME_BINOMIAL
            else 2.0 * d - 2.0
        )
        for poly in sol.polys:
            rescaled = poly_from_roots([r / a for r in poly.roots])
            ode, rec = lagrange_residuals(rescaled, lam)
            worst = max(worst, ode, rec)
    return CheckResult(
        "lagrange-stationarity",
        worst <= 1e-9,
        "%d cases, worst residual %.3e" % (len(cases), worst),
    )


def _check_degenerate_family() -> CheckResult:
    certified = 0
    total = 0
    fallback = 0
    for d in range(3, 10):
        for anchor in range(0, d - 2):
            if (d - anchor) % 2 == 0:
                continue
            for ck in (-2.0, -1.0, 0.0, 1.0, 2.0):
                total += 1
                coeffs = jf.degenerate_family_coeffs(d, anchor, ck)
                if descartes_real_root_bound(coeffs) < d:
                    certified += 1
                    continue
                zs = np.roots(list(reversed(coeffs)))
                scale = 1.0 + np.max(np.abs(zs))
                n_real = int(np.sum(np.abs(zs.imag) <= 1e-8 * scale))
                if n_real < d and np.max(np.abs(zs.imag)) > 1e-6 * scale:
                    certified += 1
                    fallback += 1
    return CheckResult(
        "degenerate-not-real-rooted",
        certified == total,
        "%d/%d certified (%d via companion roots)"
        % (certified, total, fallback),
    )


def _check_cos_product() -> CheckResult:
    rng = np.random.default_rng(31415)
    worst = 0.0
    for d in range(2, 11):
        for x in rng.uniform(-math.pi, math.pi, 1000):
            got = tp.cos_sq_product(float(x), d)
            want = tp.cos_sq_product_closed_form(float(x), d)
            worst = max(worst, abs(got - want))
    return CheckResult(
        "cos-product",
        worst <= 1e-12,
        "d in 2..10, 1000 points each, worst abs residual %.3e" % worst,
    )


def _check_sine_product() -> CheckResult:
    rng = np.random.default_rng(27182)
    worst = 0.0
    for d in range(2, 11):
        for x in rng.uniform(-math.pi, math.pi, 200):
            worst = max(worst, abs(tp.sine_product_identity_residual(float(x), d)))
    return CheckResult(
        "sine-product",
        worst <= 2e-12,
        "d in 2..10, 200 points each, worst abs residual %.3e" % worst,
    )


def _check_pairwise_bound() -> CheckResult:
    rng = np.random.default_rng(16180)
    worst_excess = -math.inf
    worst_eq = 0.0
    for d in range(2, 8):
        log_bound = tp.log_hadamard_bound(d)
        for _ in range(10_000):
            ys = rng.uniform(0.0, math.pi, d)
            val = tp.pairwise_sin_sq_product([float(y) for y in ys])
            if val > 0.0:
                worst_excess = max(worst_excess, math.log(val) - log_bound)
        ap = [math.pi * k / d for k in range(d)]
        eq = tp.pairwise_sin_sq_product(ap)
        worst_eq = max(worst_eq, abs(math.log(eq) - log_bound))
    return CheckResult(
        "pairwise-bound",
        worst_excess <= 1e-9 and worst_eq <= 1e-9,
        "worst log excess %.3e, AP equality log err %.3e"
        % (worst_excess, worst_eq),
    )


def _check_lemniscate_witness(deep: bool) -> CheckResult:
    worst_gap = -math.inf
    top = 9 if deep else 7
    for d in range(2, top):
        disc = 2.0 ** (1 - d) * float(d) ** d
        poly, height, value = lem.inscribed_disk_poly(d, disc)
        disk = lem.largest_disk(poly)
        worst_gap = max(worst_gap, height - disk.radius)
        if abs(value - 1.0) > 1e-9:
            return CheckResult(
                "lemniscate-witness", False,
                "edge value %.17g != 1 at d=%d" % (value, d),
            )
    return CheckResult(
        "lemniscate-witness",
        worst_gap <= 1e-8,
        "d in 2..%d, worst radius shortfall %.3e" % (top - 1, worst_gap),
    )


def _check_lemniscate_upper_bound() -> CheckResult:
    rng = np.random.default_rng(60221)
    worst = -math.inf
    count = 0
    for d in range(2, 6):
        for _ in range(10):
            roots = sorted(float(r) for r in rng.uniform(-2.0, 2.0, d))
            poly = poly_from_roots(roots)
            ld = log_disc_from_roots(poly)
            if ld.sign != 1:
                continue
            disk = lem.largest_disk(poly)
            bound = lem.radius_upper_bound(d, math.exp(ld.log_abs))
            worst = max(worst, disk.radius - bound)
            count += 1
    return CheckResult(
        "lemniscate-upper-bound",
        worst <= 1e-8,
        "%d random polynomials, worst bound excess %.3e" % (count, worst),
    )


def _check_energy_equilibrium() -> CheckResult:
    rng = np.random.default_rng(66260)
    worst_eq = 0.0
    min_margin = math.inf
    for d in range(2, 7):
        v_edge = (1.0 / d - 1.0) * math.log(2.0)
        for _ in range(4):
            v = v_edge - float(rng.uniform(0.05, 1.5))
            config = solve_equilibrium(1.0, d, v)
            bound = energy_lower_bound(1.0, d, config.potential_v)
            worst_eq = max(worst_eq, abs(config.energy_I - bound))
            for _ in range(5):
                pert = np.asarray(config.points) + 1e-2 * rng.standard_normal(d)
                t = _rescale_to_modulus(pert[None, :], 1.0, -d * config.potential_v)[0]
                other = config_from_points([float(t * x) for x in pert], 1.0)
                min_margin = min(min_margin, other.energy_I - config.energy_I)
    return CheckResult(
        "energy-equilibrium",
        worst_eq <= 1e-9 and min_margin > 0.0,
        "20 potentials, worst bound gap %.3e, min perturbation margin %.3e"
        % (worst_eq, min_margin),
    )


def _check_arctan_cdf() -> CheckResult:
    dists = []
    for d in (10, 100, 1000):
        phase = 0.0 if d % 2 else math.pi / (2.0 * d)
        points = bf.tangent_lattice_roots(1.0, d, phase)
        config = config_from_points(points, 1.0)
        dists.append((d, arctan_cdf_distance(config)))
    decreasing = dists[0][1] > dists[1][1] > dists[2][1]
    within = all(dist <= 3.0 / d for d, dist in dists)
    return CheckResult(
        "arctan-cdf",
        decreasing and within,
        "distances " + ", ".join("%d: %.3e" % (d, x) for d, x in dists),
    )


def _check_oracle_agreement() -> CheckResult:
    worst = 0.0
    count = 0
    for d in (2, 3):
        boundary = 2.0 ** (d - 1)
        for m in (0.3 + 0.7 * boundary, boundary, 2.0 * boundary):
            got = numeric_oracle_max_disc(1.0, d, m, starts=8, seed=7)
            want = solve_max_disc(1.0, d, m).achieved_disc
            worst = max(worst, rel_log_diff(got.log_disc.log_abs, want.log_abs))
            count += 1
    return CheckResult(
        "oracle-agreement",
        worst <= 1e-5,
        "%d cases, worst rel log err %.3e" % (count, worst),
    )


def run_suite(deep: bool = False, tol_oracle: float = TOL_ORACLE) -> list[CheckResult]:
    """Run every check; deep widens degree ranges and adds the ascent
    oracle. Deterministic: repeated runs return identical results."""
    results = [
        _check_binomial_sum(),
        _check_cos_product(),
        _check_sine_product(),
        _check_pairwise_bound(),
        _check_reference_max_disc(),
        _check_pinned_values(),
        _check_duality_roundtrip(),
        _check_multiplier_vs_resultant(tol_oracle, deep),
        _check_jacobi_vs_resultant(tol_oracle),
        _check_jacobi_gegenbauer(),
        _check_multiplier_jacobi_connection(),
        _check_binomial_equality(),
        _check_boundary_glue(),
        _check_lagrange_stationarity(),
        _check_degenerate_family(),
        _check_lemniscate_witness(deep),
        _check_lemniscate_upper_bound(),
        _check_energy_equilibrium(),
        _check_arctan_cdf(),
    ]
    if deep:
        results.append(_check_oracle_agreement())
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        lines.append("%s %s: %s" % ("PASS" if r.passed else "FAIL", r.name, r.detail))
    n_pass = sum(1 for r in results if r.passed)
    lines.append("%d/%d checks passed" % (n_pass, len(results)))
    return "\n".join(lines)
