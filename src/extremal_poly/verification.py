"""Self-contained invariant suite behind `verify`.

Every check is deterministic (fixed seeds, fixed grids) so that two runs
produce byte-identical reports. The suite cross-checks the closed forms
against the independent routes of oracles: the resultant-based
discriminant oracle, the low-degree reference formulas, the roots-only
stationarity residual of each answer with its multiplier matched against
the family's, and (in deep mode) the brute-force ascent oracle.
"""

import math
from dataclasses import dataclass, replace

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
from .oracles import (
    TOL_ORACLE,
    _rescale_to_modulus,
    degenerate_family_coeffs,
    descartes_real_root_bound,
    disc_resultant_oracles,
    jacobi_coeffs,
    jacobi_connection_residual,
    jacobi_disc,
    jacobi_gegenbauer_residual,
    numeric_oracle_max_discs,
    reference_max_disc,
    stationarity_residual,
)
from .poly_core import log_disc_from_roots, poly_from_roots, rel_log_diff
from .solvers import REGIME_BINOMIAL, solve_max_disc, solve_min_abs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _err(x: float) -> str:
    """A worst error, residual or excess for the report: %.3e, except that
    roundoff (|x| < 1e-12) prints as <1e-12, so the report's bytes do not
    follow the last digits of the roots. A NaN error prints as nan and +inf
    as inf; neither is within a finite bound, so _report fails both."""
    return "<1e-12" if abs(x) < 1e-12 else "%.3e" % x


def _worst(errors) -> float:
    """The largest of errors (numbers, or arrays of one shape), -inf for
    none, NaN if any is NaN: the builtin max drops a NaN second argument."""
    return float(np.max(errors, initial=-math.inf))


def _report(name: str, detail: str, *bounded) -> CheckResult:
    """Pass when the worst of each (errors, bound) pair is within its bound,
    so never on a NaN; detail has a %s for each worst, printed by _err."""
    worsts = [_worst(errors) for errors, _ in bounded]
    passed = all(worst <= bound for worst, (_, bound) in zip(worsts, bounded))
    return CheckResult(name, passed, detail % tuple(map(_err, worsts)))


def _check_reference_max_disc() -> CheckResult:
    errors = []
    for d in (2, 3, 4, 5):
        top = 2.0 ** (d - 1)
        for i in range(1, 11):
            m = 1.0 + (top - 1.0) * i / 10.0
            want = math.log(reference_max_disc(d, m))
            got = solve_max_disc(1.0, d, m).achieved_disc
            errors.append(rel_log_diff(got.log_abs, want))
    return _report(
        "reference-max-disc",
        "%d grid points, worst rel log err %%s" % len(errors),
        (errors, 1e-9),
    )


def _check_pinned_values() -> CheckResult:
    d4 = solve_max_disc(1.0, 4, 8.0).achieved_disc.value
    d5 = solve_max_disc(1.0, 5, 16.0).achieved_disc.value
    return _report(
        "pinned-values",
        "boundary discs 2^14 and 2^12*5^5, worst rel err %s",
        ([abs(d4 / 16384.0 - 1.0), abs(d5 / 12800000.0 - 1.0)], 1e-9),
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
    errors = []
    for a, d, disc in cases:
        sol = solve_min_abs(a, d, disc)
        back = solve_max_disc(a, d, sol.achieved_m)
        errors.append(rel_log_diff(back.achieved_disc.log_abs, math.log(disc)))
    return _report(
        "duality-roundtrip",
        "%d cases, worst rel log err %%s" % len(cases),
        (errors, 1e-8),
    )


def _multiplier_cases(deep: bool) -> list:
    # the (a, d, lam) of the multiplier-family members checked against the
    # resultant, in order
    rng = np.random.default_rng(20240915)
    cases = []
    degrees = range(2, 9) if deep else range(2, 7)
    for d in degrees:
        for _ in range(20):
            lam = float(rng.uniform(2 * d - 2 + 1e-3, 6 * d))
            for a in (0.5, 1.0, 2.0):
                cases.append((a, d, lam))
    return cases


def _jacobi_cases() -> list:
    # the (d, alpha, beta) of the 50 Jacobi polynomials checked against the
    # resultant, in order; every third symmetric, with exponents below -d
    rng = np.random.default_rng(77001)
    cases = []
    for i in range(50):
        d = int(rng.integers(2, 8))
        if i % 3 == 0:
            alpha = beta = float(rng.uniform(-2 * d - 3.0, -d - 0.5))
        else:
            alpha = float(rng.uniform(-4.0, 4.0))
            beta = float(rng.uniform(-4.0, 4.0))
        cases.append((d, alpha, beta))
    return cases


def _resultant_check(name: str, cases, row, closed, describe) -> CheckResult:
    # the closed-form discriminant of each case against the resultant of
    # its coefficient row, in sign and relative log; each case is the
    # argument tuple of row, closed and describe
    oracles = disc_resultant_oracles([row(*case) for case in cases])
    errors = []
    for case, oracle in zip(cases, oracles):
        got = closed(*case)
        if got.sign != oracle.sign:
            return CheckResult(name, False, "sign mismatch at " + describe(*case))
        errors.append(rel_log_diff(got.log_abs, oracle.log_abs))
    return _report(
        name, "%d cases, worst rel log err %%s" % len(cases), (errors, TOL_ORACLE)
    )


def _check_multiplier_vs_resultant(deep: bool) -> CheckResult:
    return _resultant_check(
        "multiplier-vs-resultant", _multiplier_cases(deep), jf.family_coeffs,
        jf.closed_form_disc,
        lambda a, d, lam: "d=%d lam=%.6f a=%s" % (d, lam, a),
    )


def _check_jacobi_vs_resultant() -> CheckResult:
    return _resultant_check(
        "jacobi-vs-resultant", _jacobi_cases(), jacobi_coeffs, jacobi_disc,
        lambda d, alpha, beta: "d=%d alpha=%.6f beta=%.6f" % (d, alpha, beta),
    )


def _check_jacobi_gegenbauer() -> CheckResult:
    cases = [(d, mu) for d in range(1, 7) for mu in (0.5, 1.0, 2.0, 0.25, -3.2)]
    return _report(
        "jacobi-gegenbauer",
        "%d cases, worst coeff residual %%s" % len(cases),
        ([jacobi_gegenbauer_residual(d, mu) for d, mu in cases], 1e-10),
    )


def _check_multiplier_jacobi_connection() -> CheckResult:
    cases = [
        (1.0, 2, 3.0),
        (1.0, 4, 6.5),
        (2.0, 5, 9.7),
        (0.5, 3, 7.2),
        (1.0, 6, 11.3),
    ]
    return _report(
        "multiplier-jacobi-connection",
        "%d cases, worst rel residual %%s" % len(cases),
        ([jacobi_connection_residual(*case) for case in cases], 1e-9),
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
    m_errors = []
    disc_errors = []
    for _ in range(100):
        d = int(rng.integers(2, 9))
        disc = float(np.exp(rng.uniform(-3.0, 6.0)))
        log_thr = bf.log_threshold_height(d, math.log(disc))
        a = float(np.exp(log_thr + math.log(rng.uniform(0.3, 1.0))))
        sol = solve_min_abs(a, d, disc)
        bound = bf.min_modulus_bound(a, d, disc)
        m_errors.append(abs(sol.achieved_m / bound - 1.0))
        disc_errors.append(rel_log_diff(sol.achieved_disc.log_abs, math.log(disc)))
        if sol.regime != REGIME_BINOMIAL:
            return CheckResult(
                "binomial-equality", False,
                "unexpected regime %s at a=%.6f d=%d" % (sol.regime, a, d),
            )
    return _report(
        "binomial-equality",
        "100 cases, worst modulus err %s, worst disc log err %s",
        (m_errors, 1e-9),
        (disc_errors, 1e-8),
    )


def _check_boundary_glue() -> CheckResult:
    errors = []
    for d in range(2, 9):
        for a in (0.5, 1.0, 2.0):
            gc = np.asarray(jf.family_coeffs(a, d, 2 * d - 2))
            fc = bf.binomial_coeffs(a, d, 0.0)
            errors.append(_worst(np.abs(gc - fc)) / _worst(np.abs(gc)))
    return _report(
        "boundary-glue",
        "d in 2..8, a in {0.5,1,2}, worst scaled coeff diff %s",
        (errors, 1e-10),
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
    errors = []
    for a, d, m in cases:
        sol = solve_max_disc(a, d, m)
        lam = (
            sol.lambda_or_b
            if sol.regime != REGIME_BINOMIAL
            else 2.0 * d - 2.0
        )
        for poly in sol.polys:
            residual, mu = stationarity_residual(poly.roots, a)
            errors += [residual, abs(mu / lam - 1.0)]
    return _report(
        "lagrange-stationarity",
        "%d cases, worst residual %%s" % len(cases),
        (errors, 1e-9),
    )


def _check_degenerate_family() -> CheckResult:
    cases = [
        (d, anchor, ck)
        for d in range(3, 10)
        for anchor in range(1 - d % 2, d - 2, 2)  # d - anchor odd
        for ck in (-2.0, -1.0, 0.0, 1.0, 2.0)
    ]
    # Descartes' rule of signs certifies fewer than d real roots
    certified = sum(
        descartes_real_root_bound(degenerate_family_coeffs(*case)) < case[0]
        for case in cases
    )
    return CheckResult(
        "degenerate-not-real-rooted",
        certified == len(cases),
        "%d/%d certified" % (certified, len(cases)),
    )


def _check_cos_product() -> CheckResult:
    rng = np.random.default_rng(31415)
    errors = []
    for d in range(2, 11):
        xs = rng.uniform(-math.pi, math.pi, 1000)
        got = tp.cos_sq_product(xs, d)
        want = tp.cos_sq_product_closed_form(xs, d)
        errors.append(np.abs(got - want))
    return _report(
        "cos-product",
        "d in 2..10, 1000 points each, worst abs residual %s",
        (errors, 1e-12),
    )


def _check_sine_product() -> CheckResult:
    rng = np.random.default_rng(27182)
    errors = []
    for d in range(2, 11):
        xs = rng.uniform(-math.pi, math.pi, 200)
        errors.append(np.abs(tp.sine_product_identity_residual(xs, d)))
    return _report(
        "sine-product",
        "d in 2..10, 200 points each, worst abs residual %s",
        (errors, 2e-12),
    )


def _check_pairwise_bound() -> CheckResult:
    rng = np.random.default_rng(16180)
    excesses = []
    eq_errors = []
    for d in range(2, 8):
        log_bound = tp.log_hadamard_bound(d)
        # one row per draw of d angles; log is monotone, so the largest
        # product has the largest log excess
        vals = tp.pairwise_sin_sq_product(rng.uniform(0.0, math.pi, (10_000, d)))
        top = _worst(vals)
        if top != 0.0:  # a zero product has no log; a NaN one fails
            excesses.append(math.log(top) - log_bound)
        ap = [math.pi * k / d for k in range(d)]
        eq = tp.pairwise_sin_sq_product(ap)
        eq_errors.append(abs(math.log(eq) - log_bound))
    return _report(
        "pairwise-bound",
        "worst log excess %s, AP equality log err %s",
        (excesses, 1e-9),
        (eq_errors, 1e-9),
    )


def _check_lemniscate_witness(deep: bool) -> CheckResult:
    gaps = []
    top = 9 if deep else 7
    for d in range(2, top):
        disc = 2.0 ** (1 - d) * float(d) ** d
        poly, height, value = lem.inscribed_disk_poly(d, disc)
        disk = lem.largest_disk(poly)
        gaps.append(height - disk.radius)
        if not abs(value - 1.0) <= 1e-9:  # written so that NaN fails
            return CheckResult(
                "lemniscate-witness", False,
                "edge value %.17g != 1 at d=%d" % (value, d),
            )
    return _report(
        "lemniscate-witness",
        "d in 2..%d, worst radius shortfall %%s" % (top - 1),
        (gaps, 1e-8),
    )


def _check_lemniscate_upper_bound() -> CheckResult:
    rng = np.random.default_rng(60221)
    excesses = []
    for d in range(2, 6):
        for _ in range(10):
            roots = sorted(float(r) for r in rng.uniform(-2.0, 2.0, d))
            poly = poly_from_roots(roots)
            ld = log_disc_from_roots(poly)
            disk = lem.largest_disk(poly)
            bound = math.exp(lem.log_radius_upper_bound(d, ld.log_abs))
            excesses.append(disk.radius - bound)
    return _report(
        "lemniscate-upper-bound",
        "%d random polynomials, worst bound excess %%s" % len(excesses),
        (excesses, 1e-8),
    )


def _check_energy_equilibrium() -> CheckResult:
    rng = np.random.default_rng(66260)
    gaps = []
    margins = []
    for d in range(2, 7):
        v_edge = (1.0 / d - 1.0) * math.log(2.0)
        for _ in range(4):
            v = v_edge - float(rng.uniform(0.05, 1.5))
            config = solve_equilibrium(1.0, d, v)
            bound = energy_lower_bound(1.0, d, config.potential_v)
            gaps.append(abs(config.energy_I - bound))
            perts = np.asarray(config.points) + 1e-2 * rng.standard_normal((5, d))
            scales = _rescale_to_modulus(perts, -d * config.potential_v)
            for t, pert in zip(scales, perts):
                other = config_from_points([float(t * x) for x in pert], 1.0)
                margins.append(other.energy_I - config.energy_I)
    margin = -_worst([-x for x in margins])  # the least; NaN if any is
    result = _report(
        "energy-equilibrium",
        "20 potentials, worst bound gap %%s, min perturbation margin %.3e" % margin,
        (gaps, 1e-9),
    )
    return replace(result, passed=result.passed and margin > 0.0)


def _check_arctan_cdf() -> CheckResult:
    dists = []
    for d in (10, 100, 1000):
        points = bf.lattice_roots(1.0, d, 0.0)
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
    errors = []
    for d in (2, 3):
        boundary = 2.0 ** (d - 1)
        ms = (0.3 + 0.7 * boundary, boundary, 2.0 * boundary)
        got = numeric_oracle_max_discs(1.0, d, ms, starts=8, seed=7)
        for m, res in zip(ms, got):
            want = solve_max_disc(1.0, d, m).achieved_disc
            errors.append(rel_log_diff(res.log_disc.log_abs, want.log_abs))
    return _report(
        "oracle-agreement",
        "%d cases, worst rel log err %%s" % len(errors),
        (errors, 1e-9),
    )


def run_suite(deep: bool = False) -> list[CheckResult]:
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
        _check_multiplier_vs_resultant(deep),
        _check_jacobi_vs_resultant(),
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
