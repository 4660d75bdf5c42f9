"""Independent log-space reference checks for the benchmark's ops.

The checks never call extremal_poly: the modulus, the discriminant and
both families' closed forms are recomputed from the returned roots with
numpy and math.fsum (only the self-test asks the library for answers). Every comparison is relative,
with tolerance RTOL, on quantities that stay finite at any degree.

Each check returns None when the answer is right and a short reason
string otherwise. Run this file directly for the checker's self-test.
"""

import json
import math
import os

import numpy as np

RTOL = 1e-9
REGIME_BINOMIAL = "f_family"
REGIME_MULTIPLIER = "g_family"


def close(x: float, y: float, rtol: float = RTOL) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def log_modulus(roots, a: float) -> float:
    """log |f(ai)| = sum log |ai - x_k|."""
    return math.fsum(np.log(np.hypot(a, np.asarray(roots, dtype=float))))


def log_disc(roots) -> float:
    """log disc = sum_{j<k} 2 log |x_k - x_j|; -inf for a repeated root.
    One row of differences at a time, so the check adds O(d) memory to
    the peak RSS the benchmark reports."""
    x = np.sort(np.asarray(roots, dtype=float))
    rows = []
    for j in range(x.size - 1):
        diff = x[j + 1 :] - x[j]
        if diff[0] <= 0.0:
            return -math.inf
        rows.append(math.fsum(np.log(diff)))
    return 2.0 * math.fsum(rows)


def crossover_log_m(a: float, d: int) -> float:
    """log of the gluing modulus 2^(d-1) a^d."""
    return (d - 1) * math.log(2.0) + d * math.log(a)


def crossover_log_disc(a: float, d: int) -> float:
    """log of the discriminant at which the phase ratio reaches 1."""
    return d * (d - 1) * math.log(a) + (d - 1) * (d - 2) * math.log(2.0) + d * math.log(d)


def g_log_disc(a: float, d: int, lam: float) -> float:
    """Closed-form log discriminant of the multiplier-family member."""
    terms = [d * (d - 1) * math.log(a)]
    terms += [k * math.log(k) for k in range(1, d + 1)]
    terms += [2 * k * math.log(abs(lam - 2 * k)) for k in range(1, d // 2)]
    terms += [-(2 * k - 1) * math.log(abs(lam - 2 * k + 1)) for k in range((d + 1) // 2, d)]
    return math.fsum(terms)


def g_log_m(a: float, d: int, lam: float) -> float:
    """log(a^d * constraint_sum(d, lam)), summed as a log-sum-exp."""
    logs = [0.0]
    acc = 0.0
    for k in range(1, d // 2 + 1):
        acc += math.log((d - 2 * k + 2) * (d - 2 * k + 1) / (2.0 * k))
        acc -= math.log(lam - 2.0 * d + 2.0 * k + 1.0)
        logs.append(acc)
    top = max(logs)
    return d * math.log(a) + top + math.log(math.fsum(math.exp(v - top) for v in logs))


def f_log_m(a: float, d: int, log_disc_value: float) -> float:
    """Sharp binomial-family relation between log m and log disc."""
    return (
        0.5 * d * math.log(2.0 * a)
        - d / (2.0 * d - 2.0) * math.log(d)
        + log_disc_value / (2.0 * d - 2.0)
    )


def stieltjes_multiplier(roots, a: float) -> float:
    """Least-squares lam from the electrostatic balance
    sum_{j!=k} 1/(x_k - x_j) = (lam/2) x_k / (x_k^2 + a^2)."""
    x = np.asarray(roots, dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, np.inf)
    force = np.sum(1.0 / diff, axis=1)
    weight = x / (x * x + a * a)
    return 2.0 * float(np.dot(force, weight) / np.dot(weight, weight))


def _roots_ok(roots, d: int):
    if len(roots) != d:
        return "expected %d roots, got %d" % (d, len(roots))
    if not all(math.isfinite(r) for r in roots):
        return "non-finite root"
    if any(r2 <= r1 for r1, r2 in zip(roots, roots[1:])):
        return "roots not strictly ascending"
    return None


def check_family(a: float, d: int, roots, regime: str, lam: float | None):
    """The pair (log m, log disc) recomputed from roots lies on the
    family's closed form; returns (reason or None, log m, log disc)."""
    bad = _roots_ok(roots, d)
    if bad:
        return bad, math.nan, math.nan
    lm, ld = log_modulus(roots, a), log_disc(roots)
    if not math.isfinite(ld):
        return "repeated root", lm, ld
    if regime == REGIME_BINOMIAL:
        if not close(lm, f_log_m(a, d, ld)):
            return "off the binomial relation: log m %.17g vs %.17g" % (lm, f_log_m(a, d, ld)), lm, ld
    elif regime == REGIME_MULTIPLIER:
        if lam is None:
            lam = stieltjes_multiplier(roots, a)
        if not lam >= 2.0 * d - 2.0 - 1e-9 * d:
            return "multiplier %.17g below 2d-2" % lam, lm, ld
        if not close(ld, g_log_disc(a, d, lam)):
            return "log disc %.17g vs closed form %.17g" % (ld, g_log_disc(a, d, lam)), lm, ld
        if not close(lm, g_log_m(a, d, lam)):
            return "log m %.17g vs constraint %.17g" % (lm, g_log_m(a, d, lam)), lm, ld
    else:
        return "unknown regime %r" % regime, lm, ld
    return None, lm, ld


def _regime_side_ok(regime: str, target: float, crossover: float):
    """The binomial family lies above the crossover, the multiplier family
    below; they glue at it, where either label is right."""
    if close(target, crossover):
        return None
    expected = REGIME_BINOMIAL if target > crossover else REGIME_MULTIPLIER
    if regime != expected:
        return "regime %s on the wrong side of the crossover" % regime
    return None


def check_solution(problem: str, a: float, d: int, target_log: float, sol):
    """solve_max_disc (target log m) or solve_min_abs (target log disc)."""
    roots = list(sol.polys[0].roots)
    lam = sol.lambda_or_b if sol.regime == REGIME_MULTIPLIER else None
    bad, lm, ld = check_family(a, d, roots, sol.regime, lam)
    if bad:
        return bad
    if problem == "max_disc":
        if not close(lm, target_log):
            return "log m %.17g misses target %.17g" % (lm, target_log)
        bad = _regime_side_ok(sol.regime, target_log, crossover_log_m(a, d))
    else:
        if not close(ld, target_log):
            return "log disc %.17g misses target %.17g" % (ld, target_log)
        bad = _regime_side_ok(sol.regime, target_log, crossover_log_disc(a, d))
    if bad:
        return bad
    if sol.achieved_disc.sign != 1 or not close(sol.achieved_disc.log_abs, ld):
        return "reported log disc %r disagrees with the roots" % (sol.achieved_disc,)
    if not (sol.achieved_m > 0.0 and close(math.log(sol.achieved_m), lm)):
        return "reported m %.17g disagrees with the roots" % sol.achieved_m
    return None


def check_equilibrium(a: float, d: int, target_log_m: float, config):
    """solve_equilibrium: the regime is read off the target, and the
    multiplier off the returned points."""
    pts = list(config.points)
    near = close(target_log_m, crossover_log_m(a, d))
    regime = REGIME_BINOMIAL if near or target_log_m > crossover_log_m(a, d) else REGIME_MULTIPLIER
    bad, lm, ld = check_family(a, d, pts, regime, None)
    if bad:
        return bad
    if not close(lm, target_log_m):
        return "log m %.17g misses target %.17g" % (lm, target_log_m)
    if not close(config.potential_v, -lm / d):
        return "reported potential disagrees with the points"
    if not close(config.energy_I, -ld / (d * (d - 1.0))):
        return "reported energy disagrees with the points"
    return None


def _log_abs_f(roots: np.ndarray, xs: np.ndarray, y) -> np.ndarray:
    return 0.5 * np.sum(np.log((xs[:, None] - roots[None, :]) ** 2 + np.square(y)[:, None]), axis=1)


def _halfwidths(roots: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Largest y in [0, 1] with log |f(x + iy)| <= 0, by bisection."""
    with np.errstate(divide="ignore"):
        inside = _log_abs_f(roots, xs, np.zeros_like(xs)) <= 0.0
    lo, hi = np.zeros_like(xs), np.ones_like(xs)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _log_abs_f(roots, xs, mid) <= 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(inside, lo, 0.0)


def check_disk(roots, disk):
    """largest_disk: the top of the disk lies on |f| = 1, and no root or
    midpoint between neighbouring roots has a taller halfwidth."""
    rs = np.sort(np.asarray(roots, dtype=float))
    c, r = disk.center_x, disk.radius
    if not (disk.has_interior and r > 0.0 and math.isfinite(c)):
        return "empty disk for a real-rooted polynomial"
    if disk.boundary_point != complex(c, r):
        return "boundary point is not the top of the disk"
    level = float(_log_abs_f(rs, np.array([c]), np.array([r]))[0])
    if r < 1.0 and not abs(level) <= RTOL:
        return "log |f| = %.3e at the top of the disk" % level
    probes = np.concatenate([rs, 0.5 * (rs[1:] + rs[:-1])])
    best = float(np.max(_halfwidths(rs, probes)))
    if r < best * (1.0 - RTOL):
        return "radius %.17g below a probed halfwidth %.17g" % (r, best)
    return None


def check_suite(results, report: str, first_report: str | None, names):
    """verify --deep: every check passes, none of the named checks is
    missing, and the report repeats byte for byte within a run."""
    failed = [r.name for r in results if not r.passed]
    if failed:
        return "checks failed: " + ", ".join(failed)
    missing = set(names) - {r.name for r in results}
    if missing:
        return "checks missing: " + ", ".join(sorted(missing))
    if first_report is not None and report != first_report:
        return "report differs from the first run"
    return None


def _perturbed(roots, eps=1e-6):
    """Move the largest root outward by eps relative."""
    moved = list(roots)
    moved[-1] += eps * max(1.0, abs(moved[-1]))
    return moved


def selftest() -> list[str]:
    """Problems found with the checker itself; empty when it works.

    Right answers must pass; answers whose roots moved by 1e-6 must
    fail; and the library's recorded wrong answer at d = 60 must fail.
    """
    import extremal_poly as lib
    from dataclasses import replace

    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    a, d = 1.3, 8
    for u in (0.4, 1.3):
        log_m = d * math.log(a) + u * (d - 1) * math.log(2.0)
        sol = lib.solve_max_disc(a, d, math.exp(log_m))
        expect(check_solution("max_disc", a, d, log_m, sol) is None, "max_disc %s rejected" % sol.regime)
        moved = replace(sol, polys=(lib.poly_from_roots(_perturbed(sol.polys[0].roots)),))
        expect(check_solution("max_disc", a, d, log_m, moved) is not None, "perturbed %s accepted" % sol.regime)
        cfg = lib.solve_equilibrium(a, d, -log_m / d)
        expect(check_equilibrium(a, d, log_m, cfg) is None, "equilibrium %s rejected" % sol.regime)
        moved_cfg = replace(cfg, points=tuple(_perturbed(cfg.points)))
        expect(check_equilibrium(a, d, log_m, moved_cfg) is not None, "perturbed equilibrium accepted")
    for s in (-2.0, 2.0):
        log_d = crossover_log_disc(a, d) + s * d
        sol = lib.solve_min_abs(a, d, math.exp(log_d))
        expect(check_solution("min_abs", a, d, log_d, sol) is None, "min_abs %s rejected" % sol.regime)
        moved = replace(sol, polys=(lib.poly_from_roots(_perturbed(sol.polys[0].roots)),))
        expect(check_solution("min_abs", a, d, log_d, moved) is not None, "perturbed min_abs accepted")

    roots = [-1.5, -0.4, 0.2, 0.9, 1.7, 2.0]
    disk = lib.largest_disk(lib.poly_from_roots(roots))
    expect(check_disk(roots, disk) is None, "largest_disk rejected")
    low = replace(disk, radius=disk.radius - 1e-6, boundary_point=complex(disk.center_x, disk.radius - 1e-6))
    expect(check_disk(roots, low) is not None, "shrunk disk accepted")

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "known_wrong_d60.json")
    with open(path) as fh:
        known = json.load(fh)
    bad, _, _ = check_family(known["a"], known["d"], known["roots"], known["regime"], known["lambda"])
    expect(bad is not None, "recorded wrong d=60 answer accepted")
    return problems


if __name__ == "__main__":
    found = selftest()
    for line in found:
        print("FAIL", line)
    print("checker self-test:", "FAIL" if found else "ok")
    raise SystemExit(1 if found else 0)
