"""End-to-end acceptance gate.

Ten criteria, one test each, every run printing a single PASS/FAIL line
on the real stdout (bypassing pytest capture) so the tee'd run log always
carries the verdicts. Tolerances and runtime budgets are part of the
assertions, not advisory.
"""

import math
import subprocess
import sys
import time

import numpy as np

from extremal_poly.binomial_family import (
    _log_phase_of_disc,
    lattice_roots,
    min_modulus_bound,
    small_height_condition,
)
from extremal_poly.energy import (
    arctan_cdf_distance,
    config_from_points,
    energy_lower_bound,
    solve_equilibrium,
)
from extremal_poly.errors import DomainError
from extremal_poly.jacobi_family import (
    closed_form_disc,
    family_coeffs,
)
from extremal_poly.lemniscate import (
    inscribed_disk_poly,
    largest_disk,
    radius_upper_bound,
)
from extremal_poly.oracles import (
    degenerate_family_coeffs,
    descartes_real_root_bound,
    disc_resultant_oracles,
    jacobi_coeffs,
    jacobi_disc,
    numeric_oracle_max_discs,
    reference_max_disc,
    stationarity_residual,
)
from extremal_poly.poly_core import (
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
    rel_log_diff,
)
from extremal_poly.solvers import REGIME_MULTIPLIER, solve_max_disc, solve_min_abs
from extremal_poly.trig_products import (
    cos_sq_product,
    cos_sq_product_closed_form,
    log_hadamard_bound,
    pairwise_sin_sq_product,
)


def _verdict(ok: bool, label: str, detail: str) -> None:
    # bypass capture so the per-criterion line always shows in the run log
    print(
        "%s %s: %s" % ("PASS" if ok else "FAIL", label, detail),
        file=sys.__stdout__,
        flush=True,
    )
    assert ok, "%s: %s" % (label, detail)


def _worst(errors) -> float:
    # the largest error, NaN if any is: the builtin max keeps its first
    # argument when a later one is NaN, so a running max passes on a NaN
    return float(np.max(errors, initial=0.0))


def test_criterion_01_low_degree_closed_forms():
    t0 = time.perf_counter()
    errors = []
    for d in range(2, 6):
        top = 2.0 ** (d - 1)
        for k in range(1, 11):
            m = 1.0 + (top - 1.0) * k / 10.0
            got = solve_max_disc(1.0, d, m).achieved_disc
            want = reference_max_disc(d, m)
            errors.append(rel_log_diff(got.log_abs, math.log(want)))
    pin4 = solve_max_disc(1.0, 4, 8.0).achieved_disc
    pin5 = solve_max_disc(1.0, 5, 16.0).achieved_disc
    errors.append(rel_log_diff(pin4.log_abs, math.log(16384.0)))
    errors.append(rel_log_diff(pin5.log_abs, math.log(12_800_000.0)))
    worst = _worst(errors)
    elapsed = time.perf_counter() - t0
    _verdict(
        worst <= 1e-9 and elapsed < 1.0,
        "criterion 1 (closed-form maximal discriminants d=2..5)",
        "worst rel log err %.3e, pinned 2^14 and 1.28e7 included, %.2fs"
        % (worst, elapsed),
    )


def test_criterion_02_multiplier_disc_vs_resultant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    errors = []
    for d in range(2, 9):
        for _ in range(20):
            lam = float(rng.uniform(2.0 * d - 2.0, 6.0 * d))
            for a in (0.5, 1.0, 2.0):
                got = closed_form_disc(a, d, lam)
                want = disc_resultant_oracles([family_coeffs(a, d, lam)])[0]
                ok = got.sign == want.sign
                errors.append(rel_log_diff(got.log_abs, want.log_abs) if ok else math.inf)
    worst = _worst(errors)
    elapsed = time.perf_counter() - t0
    _verdict(
        worst <= 1e-8 and elapsed < 10.0,
        "criterion 2 (closed-form discriminant vs resultant, d=2..8)",
        "420 cases, worst rel log err %.3e, %.2fs" % (worst, elapsed),
    )


def test_criterion_03_jacobi_disc_vs_resultant():
    rng = np.random.default_rng(30303)
    errors = []
    done = symmetric = 0
    while done < 50:
        d = int(rng.integers(2, 8))
        if done % 3 == 0:
            alpha = beta = float(rng.uniform(-2.0 * d - 3.0, -d - 0.5))
        else:
            alpha = float(rng.uniform(-4.0, 4.0))
            beta = float(rng.uniform(-4.0, 4.0))
        # stay a fixed distance off the excluded hypersurfaces; the
        # resultant oracle degrades onto them before the formula does
        if min(abs(alpha + beta + d + k) for k in range(1, d + 1)) < 1e-3:
            continue
        if min(abs(alpha + k) for k in range(1, d)) < 1e-6:
            continue
        if min(abs(beta + k) for k in range(1, d)) < 1e-6:
            continue
        try:
            got = jacobi_disc(d, alpha, beta)
        except DomainError:
            continue
        want = disc_resultant_oracles([jacobi_coeffs(d, alpha, beta)])[0]
        if want.sign == 0:
            continue
        if got.sign != want.sign:
            errors.append(math.inf)
        else:
            errors.append(rel_log_diff(got.log_abs, want.log_abs))
        symmetric += int(alpha == beta and alpha < -d)
        done += 1
    worst = _worst(errors)
    _verdict(
        worst <= 1e-8 and symmetric >= 10,
        "criterion 3 (Jacobi discriminant vs resultant)",
        "50 cases (%d with equal parameters below -d), worst rel log err %.3e"
        % (symmetric, worst),
    )


def test_criterion_04_small_height_equality():
    rng = np.random.default_rng(40404)
    m_errors = []
    disc_errors = []
    for _ in range(100):
        d = int(rng.integers(2, 9))
        disc = float(np.exp(rng.uniform(-3.0, 6.0)))
        log_thr = (
            (2.0 / d - 1.0) * math.log(2.0)
            - math.log(d) / (d - 1.0)
            + math.log(disc) / (d * (d - 1.0))
        )
        a = float(np.exp(log_thr) * rng.uniform(0.3, 1.0))
        assert small_height_condition(a, d, disc)
        p = poly_from_roots(lattice_roots(a, d, _log_phase_of_disc(a, d, math.log(disc))))
        m_errors.append(
            abs(log_modulus_at_ai(p.roots, a) - math.log(min_modulus_bound(a, d, disc)))
        )
        got = log_disc_from_roots(p)
        disc_errors.append(
            rel_log_diff(got.log_abs, math.log(disc))
            if got.sign == 1
            else math.inf
        )
    worst_m, worst_disc = _worst(m_errors), _worst(disc_errors)
    _verdict(
        worst_m <= math.log1p(1e-9) and worst_disc <= 1e-8,
        "criterion 4 (sharp modulus bound attained under small height)",
        "100 cases, worst modulus log err %.3e, worst disc rel log err %.3e"
        % (worst_m, worst_disc),
    )


def test_criterion_05_numeric_oracle_certification():
    t0 = time.perf_counter()
    errors = []
    for d in range(2, 6):
        boundary = 2.0 ** (d - 1)
        for m in (1.0 + 0.3 * (boundary - 1.0), boundary, 3.0 * boundary):
            res = numeric_oracle_max_discs(1.0, d, [m], starts=32, seed=0)[0]
            want = solve_max_disc(1.0, d, m).achieved_disc
            errors.append(rel_log_diff(res.log_disc.log_abs, want.log_abs))
    worst, cases = _worst(errors), len(errors)
    elapsed = time.perf_counter() - t0
    _verdict(
        worst <= 1e-5 and elapsed < 60.0,
        "criterion 5 (numeric oracle certifies both regimes)",
        "%d cases spanning regimes and boundary, worst rel log err %.3e, %.1fs"
        % (cases, worst, elapsed),
    )


def test_criterion_06_trig_identities():
    rng = np.random.default_rng(60606)
    identity_errors = []
    for d in range(2, 11):
        xs = rng.uniform(-10.0, 10.0, size=1000)
        gap = cos_sq_product(xs, d) - cos_sq_product_closed_form(xs, d)
        identity_errors.append(np.abs(gap))
    worst_identity = _worst(identity_errors)
    exceeded = 0
    eq_errors = []
    for d in range(2, 8):
        log_bound = log_hadamard_bound(d)
        # one (10000, d) draw gives the values of 10,000 draws of d angles
        vals = pairwise_sin_sq_product(rng.uniform(0.0, math.pi, size=(10_000, d)))
        with np.errstate(divide="ignore"):
            exceeded += int(np.sum(np.log(vals) > log_bound + math.log1p(1e-12)))
        ap = [k * math.pi / d for k in range(d)]
        eq_errors.append(abs(math.log(pairwise_sin_sq_product(ap)) - log_bound))
    worst_eq = _worst(eq_errors)
    _verdict(
        worst_identity <= 1e-12 and exceeded == 0 and worst_eq <= 1e-9,
        "criterion 6 (cosine product identity and pairwise sine bound)",
        "identity residual %.3e, 0 bound violations in 60000 draws, "
        "equality log gap %.3e" % (worst_identity, worst_eq),
    )


def test_criterion_07_lagrange_structure():
    errors = []
    for d in range(2, 7):
        # multiplier regime at height 1
        sol = solve_max_disc(1.0, d, 1.0 + 0.4 * (2.0 ** (d - 1) - 1.0))
        assert sol.regime == REGIME_MULTIPLIER
        res, mu = stationarity_residual(sol.polys[0].roots, 1.0)
        errors += [res, abs(mu / sol.lambda_or_b - 1.0)]
        # binomial regime at height 0.4, multiplier 2d - 2
        small = solve_min_abs(0.4, d, 2.0)
        res, mu = stationarity_residual(small.polys[0].roots, 0.4)
        errors += [res, abs(mu / (2.0 * d - 2.0) - 1.0)]
    worst = _worst(errors)
    bad = 0
    total = 0
    for d in range(3, 10):
        for anchor in range(0, d - 2):
            if (d - anchor) % 2 == 0:
                continue
            for ck in (-2.0, -1.0, 0.0, 1.0, 2.0):
                cs = degenerate_family_coeffs(d, anchor, ck)
                total += 1
                if descartes_real_root_bound(cs) >= d:
                    roots = np.roots(cs[::-1])
                    if float(np.max(np.abs(roots.imag))) <= 1e-8:
                        bad += 1
    _verdict(
        worst <= 1e-9 and bad == 0,
        "criterion 7 (stationarity residuals and degenerate members)",
        "worst residual %.3e, %d/%d degenerate members certified non-real-"
        "rooted" % (worst, total - bad, total),
    )


def test_criterion_08_lemniscate_radii():
    shortfalls = []
    for d in range(2, 9):
        disc = 2.0 ** (1 - d) * float(d) ** d
        poly, height, value = inscribed_disk_poly(d, disc)
        disk = largest_disk(poly)
        shortfalls.append(2.0 ** (-1.0 + 1.0 / d) - disk.radius)
    rng = np.random.default_rng(80808)
    excesses = []
    for d in range(2, 6):
        for _ in range(10):
            p = poly_from_roots(rng.uniform(-2.0, 2.0, size=d))
            ld = log_disc_from_roots(p)
            if ld.sign != 1:
                continue
            bound = radius_upper_bound(d, math.exp(ld.log_abs))
            excesses.append(largest_disk(p).radius - bound)
    shortfall, excess = _worst(shortfalls), _worst(excesses)
    _verdict(
        shortfall <= 1e-8 and excess <= 1e-8,
        "criterion 8 (inscribed disks meet the radius bounds)",
        "witness shortfall %.3e over d=2..8, random-poly bound excess %.3e"
        % (shortfall, excess),
    )


def test_criterion_09_energy_configurations():
    gaps = []
    for a in (0.5, 1.0, 2.0):
        for dv in (0.75, 1.0, 1.5):
            # dv > log 2 keeps every d in the equality regime
            for d in range(2, 7):
                v = -math.log(a) - dv
                cfg = solve_equilibrium(a, d, v)
                gaps.append(abs(cfg.energy_I - energy_lower_bound(a, d, v)))
    worst = _worst(gaps)
    dists = []
    for d in (10, 100, 1000):
        pts = lattice_roots(1.0, d, 0.0)
        dists.append(arctan_cdf_distance(config_from_points(pts, 1.0)))
    decreasing = dists[0] > dists[1] > dists[2]
    capped = all(x <= 3.0 / d for d, x in zip((10, 100, 1000), dists))
    _verdict(
        worst <= 1e-9 and decreasing and capped,
        "criterion 9 (equilibrium energies and arctan limit shape)",
        "worst bound gap %.3e, cdf distances %.1e > %.1e > %.1e all under 3/d"
        % (worst, *dists),
    )


def test_criterion_10_deep_verify_determinism():
    cmd = [
        sys.executable,
        "-c",
        "import sys; from extremal_poly.cli import main; "
        "sys.exit(main(['verify', '--deep']))",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _verdict(
        ok,
        "criterion 10 (deep verification is deterministic)",
        "two runs, exit codes (%d, %d), reports byte-identical: %s"
        % (first.returncode, second.returncode, first.stdout == second.stdout),
    )
