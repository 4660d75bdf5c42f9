"""Multiplier family, its closed-form discriminant, and the Jacobi bridge."""

import math

import numpy as np
import pytest

from extremal_poly.binomial_family import tangent_lattice_roots
from extremal_poly.errors import (
    DomainError,
    MonotonicityError,
    PoleError,
    RegimeError,
)
from extremal_poly.jacobi_family import (
    JacobiFamilyParams,
    JacobiParams,
    bisect_multiplier,
    closed_form_disc,
    constraint_sum,
    degenerate_family_coeffs,
    family_coeffs,
    family_roots,
    gegenbauer_coeffs,
    gen_binom,
    jacobi_coeffs,
    jacobi_connection_residual,
    jacobi_disc,
    jacobi_gegenbauer_residual,
    multiplier_poles,
    pochhammer,
    solve_multiplier,
)
from extremal_poly.poly_core import (
    disc_resultant_oracle,
    log_modulus_at_ai,
    rel_log_diff,
)
from extremal_poly.solvers import solve_max_disc


def test_multiplier_poles():
    assert multiplier_poles(2) == (1,)
    assert multiplier_poles(3) == (3,)
    assert multiplier_poles(4) == (3, 5)
    assert multiplier_poles(5) == (5, 7)
    assert multiplier_poles(6) == (5, 7, 9)


def test_family_coeffs_cubic():
    got = family_coeffs(JacobiFamilyParams(a=1.0, d=3, multiplier=4.0))
    assert got == pytest.approx([0.0, -3.0, 0.0, 1.0])


def test_family_coeffs_quadratic():
    got = family_coeffs(JacobiFamilyParams(a=1.0, d=2, multiplier=3.0))
    assert got == pytest.approx([-0.5, 0.0, 1.0])


def test_family_coeffs_height_scaling():
    base = family_coeffs(JacobiFamilyParams(a=1.0, d=4, multiplier=9.0))
    scaled = family_coeffs(JacobiFamilyParams(a=2.0, d=4, multiplier=9.0))
    for k, (lo, hi) in enumerate(zip(base, scaled)):
        assert hi == pytest.approx(lo * 2.0 ** (4 - k), rel=1e-14)


def test_pole_rejection_on_construction():
    with pytest.raises(PoleError):
        JacobiFamilyParams(a=1.0, d=4, multiplier=5.0)
    with pytest.raises(PoleError):
        JacobiFamilyParams(a=1.0, d=4, multiplier=3.0 + 5e-10)
    # just outside the rejection band is fine
    family_coeffs(JacobiFamilyParams(a=1.0, d=4, multiplier=3.0 + 1e-6))


def test_constraint_sum_boundary_is_power_of_two():
    for d in range(2, 11):
        assert constraint_sum(d, 2.0 * d - 2.0) == pytest.approx(
            2.0 ** (d - 1), rel=1e-13
        )


def test_constraint_sum_decreasing():
    lams = np.linspace(2 * 5 - 2.9, 40.0, 200)
    vals = [constraint_sum(5, float(l)) for l in lams]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_solve_multiplier_cubic_value():
    assert solve_multiplier(1.0, 3, 4.0) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("m", [1.5, 2.0, 4.0, 7.9])
def test_solve_multiplier_quartic_closed_form(m):
    s = math.sqrt(m * m + 7 * m + 1)
    want = (4 * m - 1 + s) / (m - 1)
    assert solve_multiplier(1.0, 4, m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [1.2, 3.0, 9.0, 15.9])
def test_solve_multiplier_quintic_closed_form(m):
    s = math.sqrt(m * m + 23 * m + 1)
    want = (6 * m - 1 + s) / (m - 1)
    assert solve_multiplier(1.0, 5, m) == pytest.approx(want, rel=1e-12)


def test_solve_multiplier_regime_errors():
    with pytest.raises(RegimeError):
        solve_multiplier(1.0, 3, 1.0)  # modulus = a^d
    with pytest.raises(RegimeError):
        solve_multiplier(1.0, 3, 4.0001)  # above the boundary 2^(d-1)


def test_solve_multiplier_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        a = float(rng.uniform(0.3, 2.5))
        u = float(rng.uniform(0.05, 1.0))
        m = a**d * math.exp(u * (d - 1) * math.log(2.0))
        lam = solve_multiplier(a, d, m)
        assert lam >= 2 * d - 2 - 1e-12
        assert a**d * constraint_sum(d, lam) == pytest.approx(m, rel=1e-10)


def test_bisect_multiplier_reports_missing_bracket():
    with pytest.raises(MonotonicityError):
        bisect_multiplier(lambda lam: 1.0, 0.5, 4)


def _pairwise_log_disc(roots) -> float:
    xs = np.asarray(roots)
    iu, ju = np.triu_indices(len(xs), k=1)
    return 2.0 * math.fsum(np.log(xs[ju] - xs[iu]))


@pytest.mark.parametrize("frac", [0.001, 0.05, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("d", [8, 30, 60, 100, 400, 1000])
def test_family_roots_sweep_against_closed_form(d, frac):
    log_m = frac * (d - 1) * math.log(2.0)
    lam = solve_multiplier(1.0, d, math.exp(log_m))
    params = JacobiFamilyParams(a=1.0, d=d, multiplier=lam)
    roots = family_roots(params)
    assert len(roots) == d and all(x < y for x, y in zip(roots, roots[1:]))
    want = closed_form_disc(params)
    assert want.sign == 1
    assert rel_log_diff(_pairwise_log_disc(roots), want.log_abs) <= 1e-12
    assert rel_log_diff(log_modulus_at_ai(roots, 1.0), log_m) <= 1e-12


@pytest.mark.parametrize("frac", [0.05, 0.5, 0.9])
def test_solve_max_disc_past_float_degree_range(frac):
    # at d = 1100, 2^(d-1) and constraint_sum(d, 2d-2) overflow to inf,
    # yet the multiplier solve and the roots stay finite and right
    d = 1100
    log_m = frac * (d - 1) * math.log(2.0)
    sol = solve_max_disc(1.0, d, math.exp(log_m))
    assert sol.regime == "g_family"
    roots = sol.polys[0].roots
    want = closed_form_disc(JacobiFamilyParams(a=1.0, d=d, multiplier=sol.lambda_or_b))
    assert rel_log_diff(_pairwise_log_disc(roots), want.log_abs) <= 1e-12
    assert rel_log_diff(log_modulus_at_ai(roots, 1.0), log_m) <= 1e-12


def _mpmath_family_roots(mp, a, d, lam):
    # exact family coefficients in u = x^2, highest power first, solved at
    # 50 digits: independent of the recurrence and of float expansion
    with mp.workdps(50):
        a, lam = mp.mpf(a), mp.mpf(lam)
        term = mp.mpf(1)
        desc = [term]
        for k in range(1, d // 2 + 1):
            term *= -a * a * (d - 2 * k + 2) * (d - 2 * k + 1) / (2 * k)
            term /= lam - 2 * d + 2 * k + 1
            desc.append(term)
        us = mp.polyroots(desc, maxsteps=200, extraprec=200)
        assert all(abs(mp.im(u)) == 0 and mp.re(u) > 0 for u in us)
        half = [float(mp.sqrt(mp.re(u))) for u in us]
    return sorted([-x for x in half] + half + ([0.0] if d % 2 else []))


@pytest.mark.parametrize("a,d,frac", [(1.0, 30, 0.999), (1.0, 60, 0.5), (0.5, 31, 0.05)])
def test_family_roots_match_mpmath(a, d, frac):
    mp = pytest.importorskip("mpmath")
    lam = solve_multiplier(a, d, a**d * 2.0 ** (frac * (d - 1)))
    got = family_roots(JacobiFamilyParams(a=a, d=d, multiplier=lam))
    want = _mpmath_family_roots(mp, a, d, lam)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(abs(w), a)


@pytest.mark.parametrize("a", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 13])
def test_family_roots_at_boundary_are_tangent_lattice(d, a):
    # both families meet at lam = 2d - 2; at d = 4, a = 1 the shared
    # member is x^4 - 6x^2 + 1
    phase = 0.0 if d % 2 else math.pi / (2.0 * d)
    got = family_roots(JacobiFamilyParams(a=a, d=d, multiplier=2.0 * d - 2.0))
    want = tangent_lattice_roots(a, d, phase)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * a)
    if (d, a) == (4, 1.0):
        quartic = sorted(math.tan(math.pi / 8 + k * math.pi / 4) for k in range(4))
        assert got == pytest.approx(quartic, rel=1e-14)


@pytest.mark.parametrize("lam", [1.0, 2.0, 5.5])
def test_family_roots_reject_nonpositive_radicand(lam):
    # below the extremal range the recurrence would need imaginary
    # off-diagonals; the roots are refused rather than returned as NaN
    with pytest.raises(DomainError):
        family_roots(JacobiFamilyParams(a=1.0, d=6, multiplier=lam))


def test_closed_form_disc_values():
    # 4/(lam-1) at d=2 and 108/(lam-3)^3 at d=3
    ld = closed_form_disc(JacobiFamilyParams(a=1.0, d=2, multiplier=3.0))
    assert ld.sign == 1 and ld.value == pytest.approx(2.0, rel=1e-13)
    ld = closed_form_disc(JacobiFamilyParams(a=1.0, d=3, multiplier=4.0))
    assert ld.value == pytest.approx(108.0, rel=1e-13)


def test_closed_form_disc_vs_resultant():
    rng = np.random.default_rng(22)
    for _ in range(40):
        d = int(rng.integers(2, 8))
        lam = float(rng.uniform(2 * d - 2, 6 * d))
        a = float(rng.choice([0.5, 1.0, 2.0]))
        params = JacobiFamilyParams(a=a, d=d, multiplier=lam)
        want = disc_resultant_oracle(family_coeffs(params))
        got = closed_form_disc(params)
        assert got.sign == want.sign
        assert rel_log_diff(got.log_abs, want.log_abs) < 1e-8


def test_pochhammer_and_binom():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(-2.0, 3) == 0.0
    assert gen_binom(4.0, 2) == pytest.approx(6.0)
    assert gen_binom(-0.5, 1) == pytest.approx(-0.5)


def test_jacobi_coeffs_symmetric_case_is_even():
    cs = jacobi_coeffs(JacobiParams(d=4, alpha=1.5, beta=1.5))
    assert cs[1] == pytest.approx(0.0, abs=1e-12)
    assert cs[3] == pytest.approx(0.0, abs=1e-12)
    # leading coefficient 2^-d C(2d+alpha+beta, d) by Vandermonde
    assert cs[4] == pytest.approx(330.0 / 16.0, rel=1e-13)


def test_jacobi_gegenbauer_agreement():
    for d in range(1, 7):
        for mu in (0.5, 1.0, 2.0, -3.2):
            if abs(pochhammer(2 * mu, d)) <= 1e-12:
                continue
            assert jacobi_gegenbauer_residual(d, mu) < 1e-10


def test_gegenbauer_known_cubic():
    # C_3^1 is the Chebyshev polynomial U_3 = 8x^3 - 4x
    cs = gegenbauer_coeffs(3, 1.0)
    assert cs == pytest.approx([0.0, -4.0, 0.0, 8.0])


def test_jacobi_disc_vs_resultant():
    rng = np.random.default_rng(23)
    done = 0
    while done < 25:
        d = int(rng.integers(2, 8))
        alpha = float(rng.uniform(-2 * d - 3, 3.0))
        beta = float(rng.uniform(-2 * d - 3, 3.0))
        params = JacobiParams(d=d, alpha=alpha, beta=beta)
        try:
            got = jacobi_disc(params)
        except DomainError:
            continue  # excluded parameter hit; resample
        want = disc_resultant_oracle(jacobi_coeffs(params))
        if want.sign == 0:
            continue
        assert got.sign == want.sign
        assert rel_log_diff(got.log_abs, want.log_abs) < 1e-8
        done += 1


def test_connection_residual_small_cases():
    for a, d, lam in [(1.0, 2, 3.0), (1.0, 4, 6.5), (2.0, 5, 9.7)]:
        r = jacobi_connection_residual(JacobiFamilyParams(a=a, d=d, multiplier=lam))
        assert r < 1e-9


def test_connection_excluded_multiplier():
    # lam = 2d - 2 makes the defining Pochhammer factor vanish
    with pytest.raises(DomainError):
        jacobi_connection_residual(JacobiFamilyParams(a=1.0, d=4, multiplier=6.0))


class TestDegenerateFamily:
    def test_known_quartic(self):
        got = degenerate_family_coeffs(4, 1, 0.0)
        assert got == pytest.approx([-3.0, 0.0, 6.0, 0.0, 1.0])

    def test_anchor_coefficient_passes_through(self):
        got = degenerate_family_coeffs(5, 2, 1.5)
        assert got[2] == pytest.approx(1.5)
        assert got[5] == 1.0

    def test_parity_constraint(self):
        with pytest.raises(DomainError):
            degenerate_family_coeffs(4, 2, 1.0)  # d - K even

    def test_anchor_range(self):
        with pytest.raises(DomainError):
            degenerate_family_coeffs(4, 3, 1.0)
        with pytest.raises(DomainError):
            degenerate_family_coeffs(4, -1, 1.0)

    def test_never_real_rooted(self):
        from extremal_poly.poly_core import descartes_real_root_bound

        for d in range(3, 10):
            for anchor in range(0, d - 2):
                if (d - anchor) % 2 == 0:
                    continue
                cs = degenerate_family_coeffs(d, anchor, 1.0)
                bound = descartes_real_root_bound(cs)
                if bound >= d:
                    roots = np.roots(cs[::-1])
                    assert np.max(np.abs(roots.imag)) > 1e-8
