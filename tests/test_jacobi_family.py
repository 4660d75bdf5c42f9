"""Multiplier family, its closed-form discriminant, and the Jacobi bridge."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from extremal_poly.binomial_family import lattice_roots
import extremal_poly.binomial_family as bf
import extremal_poly.jacobi_family as jf
import extremal_poly.oracles as oracles
from extremal_poly.errors import DomainError, RegimeError
from extremal_poly.jacobi_family import (
    _log_modulus_ratio_and_slope,
    _newton_multiplier,
    closed_form_disc,
    family_coeffs,
    family_roots,
)
from extremal_poly.oracles import (
    degenerate_family_coeffs,
    descartes_real_root_bound,
    disc_resultant_oracles,
    gegenbauer_coeffs,
    gen_binom,
    jacobi_coeffs,
    jacobi_connection_residual,
    jacobi_disc,
    jacobi_gegenbauer_residual,
    pochhammer,
)
from extremal_poly.poly_core import log_modulus_at_ai, rel_log_diff
from extremal_poly.solvers import solve_max_disc


def test_family_coeffs_cubic():
    got = family_coeffs(1.0, 3, 4.0)
    assert got == pytest.approx([0.0, -3.0, 0.0, 1.0])


def test_family_coeffs_quadratic():
    got = family_coeffs(1.0, 2, 3.0)
    assert got == pytest.approx([-0.5, 0.0, 1.0])


def test_family_coeffs_height_scaling():
    base = family_coeffs(1.0, 4, 9.0)
    scaled = family_coeffs(2.0, 4, 9.0)
    for k, (lo, hi) in enumerate(zip(base, scaled)):
        assert hi == pytest.approx(lo * 2.0 ** (4 - k), rel=1e-14)


def _below_domain(d, lam):
    """The member check's refusal of a finite lam below 2d - 2."""
    return "multiplier %.17g is below 2d - 2 = %d" % (lam, 2 * d - 2)


@pytest.mark.parametrize(
    # the poles 2d - 2j - 1, j = 1..floor(d/2): the odd integers from
    # d - 1 + d mod 2 to 2d - 3
    "d, pole",
    [(d, pole) for d in range(2, 42) for pole in range(d - 1 + d % 2, 2 * d - 2, 2)],
)
def test_pole_rejection_on_construction(d, pole):
    # every pole lies below the member domain lam >= 2d - 2, and each
    # public function of the family refuses it and its neighbourhood
    # with the one domain refusal; 2d - 2 and far out answer
    for lam in (pole, pole - 0.9e-9, pole + 0.9e-9, pole - 1.1e-9, pole + 1.1e-9):
        for call in (family_coeffs, family_roots, closed_form_disc):
            with pytest.raises(DomainError) as err:
                call(1.0, d, lam)
            assert str(err.value) == _below_domain(d, lam)
    for lam in (2.0 * d - 2.0, 1e300):
        for call in (family_coeffs, family_roots, closed_form_disc):
            call(1.0, d, lam)


# the degrees on both sides of the array bodies' crossover, and far past it
ARRAY_DEGREES = (bf._ARRAY_DEGREE - 1, bf._ARRAY_DEGREE, 200, 1000, 3000)


def _loop_and_array(monkeypatch, d, call):
    """call() at degree d with the per-term loop body, then with the
    numpy array body, each forced by moving the crossover, as raw bits."""
    monkeypatch.setattr(bf, "_ARRAY_DEGREE", d + 1)
    loop = np.asarray(call(), dtype=float).tobytes()
    monkeypatch.setattr(bf, "_ARRAY_DEGREE", d)
    return loop, np.asarray(call(), dtype=float).tobytes()


def _multipliers(d):
    """Multipliers from 2d - 2 to 1e300."""
    near = (2.0 * d - 2.0, 2.0 * d - 1.0, 2.0 * d + 0.37, 3.0 * d, 30.0 * d)
    return near + (1e6, 1e12, 1e100, 1e300)


@pytest.mark.parametrize("d", ARRAY_DEGREES)
def test_modulus_array_body_has_the_loops_bits(monkeypatch, d):
    # a last-bit change in one log1p term moves the sum at a few percent
    # of multipliers, so a hundred of them catch it
    dense = np.geomspace(2.0 * d - 2.0, 1e6 * d, 100).tolist()
    for lam in _multipliers(d) + tuple(dense):
        loop, array = _loop_and_array(
            monkeypatch, d, lambda: jf._log_modulus_ratio_and_slope(d, lam)
        )
        assert array == loop, lam


@pytest.mark.parametrize("d", ARRAY_DEGREES)
def test_family_coeffs_array_body_has_the_loops_bits(monkeypatch, d):
    for lam in _multipliers(d):
        for a in (0.3, 1.0, 7.0):
            loop, array = _loop_and_array(monkeypatch, d, lambda: family_coeffs(a, d, lam))
            assert array == loop, (lam, a)


@pytest.mark.parametrize("d", (2, 3, 8, 31, 63))
def test_family_roots_list_body_has_the_arrays_bits(monkeypatch, d):
    for lam in _multipliers(d):
        for a in (0.3, 1.0, 7.0):
            loop, array = _loop_and_array(monkeypatch, d, lambda: family_roots(a, d, lam))
            assert array == loop, (lam, a)


# zero denominators (lam = 0, and at n = 1 lam = -1 and 1), below the
# extremal range, and so small that lam's quotients overflow
@pytest.mark.parametrize("lam", [0.0, -1.0, 1.0, -3.0, 2.5, 1e-310, 5e-324])
@pytest.mark.parametrize("d", (3, 6, 63))
def test_family_roots_bodies_refuse_alike(monkeypatch, d, lam):
    texts = []
    for crossover in (d + 1, d):
        monkeypatch.setattr(bf, "_ARRAY_DEGREE", crossover)
        with pytest.raises(DomainError) as err:
            family_roots(1.0, d, lam)
        texts.append(str(err.value))
    assert texts == [_below_domain(d, lam)] * 2


def _series_tail(d, lam):
    """The terms after the leading 1 of the modulus series
    m / a^d = 1 + sum_k C(d,2k)(2k-1)!! / prod_{j<=k}(lam-2d+2j+1), summed
    in floats; all positive on lam > 2d-3."""
    total, term = 0.0, 1.0
    for k in range(1, d // 2 + 1):
        term *= (d - 2 * k + 2) * (d - 2 * k + 1) / (2.0 * k)
        term /= lam - 2.0 * d + 2.0 * k + 1.0
        total += term
    return total


def test_log_modulus_ratio_boundary_is_power_of_two():
    # m / a^d = 2^(d-1) at lam = 2d-2 to 1e-13 relative, as for the series
    for d in range(2, 11):
        got = _log_modulus_ratio_and_slope(d, 2.0 * d - 2.0)[0]
        assert abs(got - (d - 1) * math.log(2.0)) <= 1e-13
    # a few ulps of the log at large degree
    for d in (100, 1000, 3000):
        got = _log_modulus_ratio_and_slope(d, 2.0 * d - 2.0)[0]
        assert got == pytest.approx((d - 1) * math.log(2.0), rel=1e-15, abs=0.0)


def test_log_modulus_ratio_answers_just_above_2d_minus_3():
    got = _log_modulus_ratio_and_slope(4, math.nextafter(5.0, math.inf))[0]
    assert math.isfinite(got) and got > 0.0


def test_log_modulus_ratio_decreasing():
    lams = np.linspace(2 * 5 - 2.9, 40.0, 200)
    vals = [_log_modulus_ratio_and_slope(5, float(l))[0] for l in lams]
    assert all(x > y for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("d", [*range(2, 21), 31, 44, 59, 60])
def test_log_modulus_ratio_is_the_series(d):
    # the Chu-Vandermonde product against the series it sums; the tail
    # is compared with expm1 of the log, so far-out lam keep all digits
    for lam in (2.0 * d - 2.0, 2.0 * d - 2.5, 2.5 * d, 5.0 * d, 1e3 * d, 1e12, 1e200):
        want = _series_tail(d, lam)
        got = math.expm1(_log_modulus_ratio_and_slope(d, lam)[0])
        assert got == pytest.approx(want, rel=1e-13), lam


@pytest.mark.parametrize("d", [30, 1000, 3000])
def test_log_modulus_ratio_matches_mpmath(d):
    # every log1p term is positive and correct to a few ulps, and fsum is
    # exact, so the sum is good to a few ulps of itself: bound 1e-14
    mp = pytest.importorskip("mpmath")
    for lam in (2.0 * d - 2.0, 2.0 * d + 0.5, 3.0 * d, 30.0 * d, 1e9):
        with mp.workdps(60):
            total, term = mp.mpf(1), mp.mpf(1)
            for k in range(1, d // 2 + 1):
                term *= mp.mpf((d - 2 * k + 2) * (d - 2 * k + 1)) / (2 * k)
                term /= mp.mpf(lam) - 2 * d + 2 * k + 1
                total += term
            want = float(mp.log(total))
        got = _log_modulus_ratio_and_slope(d, lam)[0]
        assert got == pytest.approx(want, rel=1e-14), lam


def test_log_modulus_ratio_past_float_range():
    # m / a^d is about e^784 here, which the linear-space series overflows
    got = _log_modulus_ratio_and_slope(3000, 9000.0)[0]
    assert math.isfinite(got)
    assert got == pytest.approx(784.38194449717, rel=1e-12)


@pytest.mark.parametrize("d", [30, 1000, 3000, 10_000])
def test_closed_form_disc_matches_mpmath(d):
    # each float term is an integer times a correctly rounded log of an
    # exact integer (or of a), good to 1.5 ulps of itself, and the fsum
    # rounds once: bound 4 eps times the summed magnitudes
    mp = pytest.importorskip("mpmath")
    a = 0.7
    with mp.workdps(40):
        fixed = [d * (d - 1) * mp.log(mp.mpf(a))]
        fixed += [k * mp.log(k) for k in range(1, d + 1)]
        for lam in (2.0 * d - 2.0, 3.0 * d, 10.0 * d):
            terms = [2 * k * mp.log(int(lam) - 2 * k) for k in range(1, d // 2)]
            top = range((d + 1) // 2, d)
            terms += [-(2 * k - 1) * mp.log(int(lam) - 2 * k + 1) for k in top]
            want = float(mp.fsum(fixed + terms))
            size = float(mp.fsum(abs(t) for t in fixed + terms))
            got = closed_form_disc(a, d, lam)
            assert got.sign == 1
            assert abs(got.log_abs - want) <= 4.0 * sys.float_info.epsilon * size, lam


def test_closed_form_disc_slope_is_the_derivative():
    # central differences of the log disc in log lam, taken inside the
    # member domain: the one nearest 2d - 2 is a hundredth of a percent in
    for d in (2, 3, 4, 7, 30, 301):
        for lam in ((2.0 * d - 2.0) * 1.0001, 3.0 * d, 1e4 * d):
            h = 1e-6

            def at(t):
                return closed_form_disc(0.7, d, lam * math.exp(t)).log_abs

            want = (at(h) - at(-h)) / (2.0 * h)
            value, got = jf._log_disc_and_slope(0.7, d)(lam)
            assert got < 0.0
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (d, lam)
            # the disc solve's Newton evaluation has the bits of the disc
            assert value == at(0.0)



# the value function V(log m) = max log disc has slope lam on the
# multiplier side (the envelope theorem on the KKT system), so the
# discriminant's slope in log lam over the modulus's is lam; the two
# closed forms, Jacobi's discriminant and the Chu-Vandermonde product, are
# derived apart
ENVELOPE_CASES = [
    (1.0, d, lam)
    for d in (3, 10, 100, 1000, 3000, 10_000)
    for lam in (2.0 * d - 2.0 + 1e-6, 2.0 * d, 3.0 * d, 10.0 * d, 1e6 * d)
] + [(0.01, 50, 150.0), (7.0, 50, 150.0)]


@pytest.mark.parametrize("a, d, lam", ENVELOPE_CASES)
def test_envelope_identity_ties_the_two_closed_forms(a, d, lam):
    disc_slope = jf._log_disc_and_slope(a, d)(lam)[1]
    modulus_slope = _log_modulus_ratio_and_slope(d, lam)[1]
    assert abs(disc_slope / (lam * modulus_slope) - 1.0) <= 4.0 * sys.float_info.epsilon


def _reference_disc(a, d, lam):
    # the three term loops that the one term list replaced, on the member
    # domain lam >= 2d - 2: the signed log disc, its slope and the Newton
    # evaluation
    terms = [d * (d - 1) * math.log(a)] + [k * math.log(k) for k in range(1, d + 1)]
    sign = 1
    for k in range(1, d // 2):
        terms.append(2 * k * math.log(abs(lam - 2.0 * k)))
    for k in range((d + 1) // 2, d):
        base = lam - 2.0 * k + 1.0
        terms.append(-(2 * k - 1) * math.log(abs(base)))
        if base < 0:
            sign = -sign
    slopes = [2 * k * (lam / (lam - 2.0 * k)) for k in range(1, d // 2)]
    top = range((d + 1) // 2, d)
    slopes += [(1 - 2 * k) * (lam / (lam - 2.0 * k + 1.0)) for k in top]
    fixed = [d * (d - 1) * math.log(a)] + [k * math.log(k) for k in range(1, d + 1)]
    values, rates = fixed.copy(), []
    for k in range(1, d // 2):
        base = lam - 2.0 * k
        values.append(2 * k * math.log(base))
        rates.append(2 * k * (lam / base))
    for k in top:
        base = lam - 2.0 * k + 1.0
        values.append(-(2 * k - 1) * math.log(base))
        rates.append((1 - 2 * k) * (lam / base))
    return (sign, math.fsum(terms)), math.fsum(slopes), (math.fsum(values), math.fsum(rates))


def _bits(x):
    return np.float64(x).tobytes()


def _disc_grid():
    # random heights; multipliers from 2d - 2 up to 1e300
    rng = np.random.default_rng(2029)
    for d in (*range(2, 41), 60, 100, 300, 1000):
        count = 9 if d <= 40 else 2
        for _ in range(count):
            a = float(np.exp(rng.uniform(-7.0, 7.0)))
            yield a, d, 2.0 * d - 2.0
            yield a, d, float((2.0 * d - 2.0) * np.exp(rng.uniform(0.0, 8.0)))
            yield a, d, float(np.exp(rng.uniform(8.0, 690.0)))
        yield 1.0, d, 1e300


def test_one_term_list_has_the_bits_of_the_three_loops():
    checked = 0
    for a, d, lam in _disc_grid():
        got = closed_form_disc(a, d, lam)
        (sign, log_abs), slope, newton = _reference_disc(a, d, lam)
        assert (got.sign, _bits(got.log_abs)) == (sign, _bits(log_abs)), (a, d, lam)
        value, rate = jf._log_disc_and_slope(a, d)(lam)
        assert _bits(rate) == _bits(slope), (a, d, lam)
        assert (_bits(value), _bits(rate)) == tuple(map(_bits, newton)), (a, d, lam)
        checked += 1
    assert checked > 1000


def test_newton_multiplier_names_a_solve_that_does_not_settle():
    # steps that always lower the residual but never reach the target
    def crawl(lam):
        return 1.0 / lam, -1e6

    with pytest.raises(DomainError, match="did not settle"):
        _newton_multiplier(crawl, 0.0, 2)


def _multiplier(a, d, m):
    # the multiplier solve_max_disc answers with at a modulus m on the
    # multiplier side of the crossover
    sol = solve_max_disc(a, d, m)
    assert sol.regime == "g_family", (a, d, m)
    return sol.lambda_or_b


def test_solve_multiplier_cubic_value():
    # at the boundary modulus 2^(d-1) a^d the Newton solve stays at 2d - 2
    assert jf._multiplier_from_modulus(1.0, 3, math.log(4.0)) == pytest.approx(
        4.0, rel=1e-12
    )


@pytest.mark.parametrize("m", [1.5, 2.0, 4.0, 7.9])
def test_solve_multiplier_quartic_closed_form(m):
    s = math.sqrt(m * m + 7 * m + 1)
    want = (4 * m - 1 + s) / (m - 1)
    assert _multiplier(1.0, 4, m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [1.2, 3.0, 9.0, 15.9])
def test_solve_multiplier_quintic_closed_form(m):
    s = math.sqrt(m * m + 23 * m + 1)
    want = (6 * m - 1 + s) / (m - 1)
    assert _multiplier(1.0, 5, m) == pytest.approx(want, rel=1e-12)


def test_solve_multiplier_regime_errors():
    with pytest.raises(RegimeError):
        solve_max_disc(1.0, 3, 1.0)  # modulus = a^d
    # above the boundary 2^(d-1) the answer is the binomial pair
    assert solve_max_disc(1.0, 3, 4.0001).regime == "f_family"
    for a in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match="height a must be positive and finite"):
            solve_max_disc(a, 3, 2.0)


def test_solve_multiplier_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        a = float(rng.uniform(0.3, 2.5))
        u = float(rng.uniform(0.05, 1.0))
        m = a**d * math.exp(u * (d - 1) * math.log(2.0))
        lam = _multiplier(a, d, m)
        assert lam >= 2 * d - 2 - 1e-12
        got = d * math.log(a) + _log_modulus_ratio_and_slope(d, lam)[0]
        assert got == pytest.approx(math.log(m), abs=1e-10)


def test_solve_multiplier_far_from_the_crossover():
    # m just above a^d sends lam off to about d^2 / (2 log(m/a^d))
    for d in (2, 3, 10, 1000):
        for log_t in (1e-3, 1e-9, 1e-15):
            want = math.log(math.exp(log_t))  # the target as the solver sees it
            lam = jf._multiplier_from_modulus(1.0, d, want)
            got = _log_modulus_ratio_and_slope(d, lam)[0]
            assert got == pytest.approx(want, rel=1e-13)


def _pairwise_log_disc(roots) -> float:
    xs = np.asarray(roots)
    iu, ju = np.triu_indices(len(xs), k=1)
    return 2.0 * math.fsum(np.log(xs[ju] - xs[iu]))


@pytest.mark.parametrize("frac", [0.001, 0.05, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("d", [8, 30, 60, 100, 400, 1000])
def test_family_roots_sweep_against_closed_form(d, frac):
    log_m = frac * (d - 1) * math.log(2.0)
    # frac = 1.0 is the boundary member, at the multiplier 2d - 2
    lam = 2.0 * d - 2.0 if frac == 1.0 else _multiplier(1.0, d, math.exp(log_m))
    roots = family_roots(1.0, d, lam)
    assert len(roots) == d and all(x < y for x, y in zip(roots, roots[1:]))
    want = closed_form_disc(1.0, d, lam)
    assert want.sign == 1
    assert rel_log_diff(_pairwise_log_disc(roots), want.log_abs) <= 1e-12
    assert rel_log_diff(log_modulus_at_ai(roots, 1.0), log_m) <= 1e-12


@pytest.mark.parametrize("frac", [0.05, 0.5, 0.9])
def test_solve_max_disc_past_float_degree_range(frac):
    # at d = 1100, 2^(d-1) overflows to inf, yet the multiplier solve and
    # the roots stay finite and right
    d = 1100
    log_m = frac * (d - 1) * math.log(2.0)
    sol = solve_max_disc(1.0, d, math.exp(log_m))
    assert sol.regime == "g_family"
    roots = sol.polys[0].roots
    want = closed_form_disc(1.0, d, sol.lambda_or_b)
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
    lam = _multiplier(a, d, a**d * 2.0 ** (frac * (d - 1)))
    got = family_roots(a, d, lam)
    want = _mpmath_family_roots(mp, a, d, lam)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(abs(w), a)


@pytest.mark.parametrize("a", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 13])
def test_family_roots_at_boundary_are_tangent_lattice(d, a):
    # both families meet at lam = 2d - 2; at d = 4, a = 1 the shared
    # member is x^4 - 6x^2 + 1
    got = family_roots(a, d, 2.0 * d - 2.0)
    want = lattice_roots(a, d, 0.0)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * a)
    if (d, a) == (4, 1.0):
        quartic = sorted(math.tan(math.pi / 8 + k * math.pi / 4) for k in range(4))
        assert got == pytest.approx(quartic, rel=1e-14)


@pytest.mark.parametrize("lam", [4e200, 1e300, sys.float_info.max])
def test_family_roots_far_out(lam):
    # at d = 2 and 3 the roots are +-a sqrt(1/(lam-1)) and 0,
    # +-a sqrt(3/(lam-3)); the recurrence forms them with no overflow
    for a in (0.5, 3.0):
        got = family_roots(a, 2, lam)
        assert got == pytest.approx([-a / math.sqrt(lam), a / math.sqrt(lam)], rel=1e-15)
        got = family_roots(a, 3, lam)
        r = a * math.sqrt(3.0) / math.sqrt(lam)
        assert got == pytest.approx([-r, 0.0, r], rel=1e-15)


@pytest.mark.parametrize("lam", [-3.0, 0.0, 1.0, 2.0, 5.5])
def test_family_roots_reject_nonpositive_radicand(lam):
    # below the extremal range the recurrence would need imaginary
    # off-diagonals; the roots are refused rather than returned as NaN
    with pytest.raises(DomainError):
        family_roots(1.0, 6, lam)


def _radicands_are_positive(d, lam):
    """Whether every radicand of family_roots at lam, formed in floats as
    both bodies form them, is positive and finite."""
    if not lam > 0.0:
        return False
    for n in map(float, range(1, d)):
        try:
            r = n * ((lam + 2.0 - n) / lam) / (
                ((lam + 3.0 - 2.0 * n) / lam) * ((lam + 1.0 - 2.0 * n) / lam)
            )
        except ZeroDivisionError:
            return False
        if not 0.0 < r < math.inf:
            return False
    return True


def _domain_lams(d):
    """Multipliers across every pole up to 2d - 3, the member domain's
    edge 2d - 2 and far out."""
    odd = range(-1, 2 * d, 2)
    edge = 2.0 * d - 2.0
    lams = [-1e308, -3.0, -1.0, -0.0, 0.0, 5e-324, 1e-310, 0.5, edge]
    lams += [math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    lams += [0.5 * k for k in range(4 * d + 1)]
    lams += [k + s for k in odd for s in (-2e-9, 2e-9)]
    lams += [2.0 * d - 3.0 + s for s in (-5e-10, 5e-10, -2e-9, 2e-9, -1e-6, 1e-6)]
    return lams + [1e300, sys.float_info.max]


@pytest.mark.parametrize("d", [*range(2, 13), 31, 63, 64, 65, 257, 258, 300])
def test_family_roots_domain_is_the_radicand_rule(monkeypatch, d):
    # every radicand is positive and finite on the member domain
    # lam >= 2d - 2, and family_roots refuses exactly the lam below it, with
    # the one text, in each body; either body's radicands feed either root path
    for lam in _domain_lams(d):
        want = _below_domain(d, lam)
        if lam >= 2.0 * d - 2.0:
            assert _radicands_are_positive(d, lam), lam
            want = None
        for crossover in (d + 1, d):
            monkeypatch.setattr(bf, "_ARRAY_DEGREE", crossover)
            try:
                family_roots(1.0, d, lam)
                got = None
            except DomainError as err:
                got = str(err)
            assert got == want, (lam, crossover)


NEWTON_D = jf._NEWTON_DEGREE
# multipliers as fractions of the boundary 2d - 2, then 2d - 1, where the
# turning points of the seeds' phase meet the ends
NEWTON_LAMS = [(f, 0.0) for f in (1.0 + 1e-6, 1.0001, 1.01, 1.28, 1e10)] + [(1.0, 1.0)]


def _newton_lam(d, frac, offset):
    return frac * (2.0 * d - 2.0) + offset


def _mpmath_newton_correction(mp, x, d, lam):
    # |p/p'| / x at 40 digits, p and p' from the monic recurrence at a = 1
    with mp.workdps(40):
        x, lam = mp.mpf(x), mp.mpf(lam)
        p0, p1, q0, q1 = mp.mpf(1), x, mp.mpf(0), mp.mpf(1)
        for n in range(1, d):
            e2 = n * (lam + 2 - n) / ((lam + 3 - 2 * n) * (lam + 1 - 2 * n))
            p0, p1, q0, q1 = p1, x * p1 - e2 * p0, q1, p1 + x * q1 - e2 * q0
        return float(abs(p1 / q1) / x)


@pytest.mark.parametrize("frac, offset", NEWTON_LAMS)
@pytest.mark.parametrize("d", [NEWTON_D, 336, 512, 1000, 1001])
def test_newton_roots_match_mpmath(d, frac, offset):
    mp = pytest.importorskip("mpmath")
    lam = _newton_lam(d, frac, offset)
    pos = family_roots(1.0, d, lam)[(d + 1) // 2 :]
    half = len(pos)
    for k in (0, 1, half // 4, half // 2, half - 2, half - 1):
        assert _mpmath_newton_correction(mp, pos[k], d, lam) <= 1e-14


def _assert_newton_matches_svd(params, monkeypatch):
    # the SVD is backward stable: its roots are off by a small multiple of
    # eps times the largest, and the two paths agree to that
    monkeypatch.setattr(jf, "_NEWTON_DEGREE", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        newton = np.array(family_roots(*params))
    monkeypatch.setattr(jf, "_NEWTON_DEGREE", 10**9)
    svd = np.array(family_roots(*params))
    assert np.max(np.abs(newton - svd)) <= 32.0 * np.finfo(float).eps * svd[-1]


# and at 335 and 336, where the crossover stood before the Taylor step,
# and 511 and 512, well past it, where the SVD is still cheap enough to
# compare against
@pytest.mark.parametrize("frac, offset", NEWTON_LAMS[:5])
@pytest.mark.parametrize("d", [NEWTON_D - 1, NEWTON_D, 335, 336, 511, 512])
def test_newton_roots_match_the_svd_at_the_crossover(d, frac, offset, monkeypatch):
    lam = _newton_lam(d, frac, offset)
    _assert_newton_matches_svd((1.0, d, lam), monkeypatch)


@pytest.mark.parametrize("lam", [1e300, sys.float_info.max])
def test_newton_roots_far_out(lam, monkeypatch):
    # the seeds take lam as at most 1e300, past which d lam overflows
    _assert_newton_matches_svd((1.0, NEWTON_D, lam), monkeypatch)


def test_newton_roots_at_ten_thousand():
    # sum x^2 = -2 c_{d-2} = a^2 d (d - 1) / (lam - 2d + 3) by family_coeffs
    d = 10_000
    lam = _newton_lam(d, 1.28, 0.0)
    roots = family_roots(1.0, d, lam)
    assert len(roots) == d and all(x < y for x, y in zip(roots, roots[1:]))
    want = d * (d - 1) / (lam - 2.0 * d + 3.0)
    assert math.fsum(x * x for x in roots) == pytest.approx(want, rel=1e-13)


MEMBER_FUNCTIONS = [family_coeffs, family_roots, closed_form_disc, jacobi_connection_residual]


# both radicand bodies and both root paths (the SVD below d = 258, Newton
# from there on), at degrees where 2d - 2 is a power of two and either side
@pytest.mark.parametrize("d", [2, 3, 5, 9, 63, 64, 65, NEWTON_D - 1, NEWTON_D, 300, 513, 1000])
def test_family_roots_at_the_domain_edge(monkeypatch, d):
    # sum x^2 = d (d - 1) / (lam - 2d + 3), which is d (d - 1) at 2d - 2
    edge = 2.0 * d - 2.0
    below = math.nextafter(edge, -math.inf)
    for crossover in (d + 1, d):
        monkeypatch.setattr(bf, "_ARRAY_DEGREE", crossover)
        roots = family_roots(1.0, d, edge)
        assert all(map(math.isfinite, roots))
        assert all(x < y for x, y in zip(roots, roots[1:]))
        assert roots == [-x for x in reversed(roots)]
        want = d * (d - 1) / (edge - 2.0 * d + 3.0)
        assert math.fsum(x * x for x in roots) == pytest.approx(want, rel=1e-13)
        for call in MEMBER_FUNCTIONS:
            with pytest.raises(DomainError) as err:
                call(1.0, d, below)
            assert str(err.value) == _below_domain(d, below)


@pytest.mark.parametrize("a", [1e-150, 1e150])
def test_newton_roots_scale_with_height(a):
    d = NEWTON_D + 1
    lam = _newton_lam(d, 1.28, 0.0)
    unit = family_roots(1.0, d, lam)
    got = family_roots(a, d, lam)
    assert got == pytest.approx([a * x for x in unit], rel=4e-16)


# at a = 1e308 a sqrt(r) overflows before its division by sqrt(lam), in
# both radicand bodies; the Newton path forms a / sqrt(lam) first
@pytest.mark.parametrize("d, lam", [(8, 24.0), (64, 2000.0), (64, 1e4), (NEWTON_D + 1, 5e4)])
def test_family_roots_at_heights_near_the_largest_float(capfd, d, lam):
    a = 1e308
    unit = family_roots(1.0, d, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = family_roots(a, d, lam)
    assert capfd.readouterr().err == ""  # no LAPACK text
    assert all(math.isfinite(x) for x in got)
    assert max(abs(x - a * u) for x, u in zip(got, unit)) <= 1e-14 * (a * unit[-1])


# past float range: the last off-diagonal (d = 8 at lam = 14), the SVD's
# largest singular value with every off-diagonal a float (lam = 24) and
# the Newton path's largest root
@pytest.mark.parametrize(
    "a, d, lam",
    [(1e308, 8, 14.0), (1.5e308, 8, 24.0), (1e308, 64, 192.0), (sys.float_info.max, 300, 900.0)],
)
def test_family_roots_past_float_range_are_refused(capfd, a, d, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            family_roots(a, d, lam)
    want = "multiplier roots are past float range (d = %d, a = %.17g, lam = %.17g)"
    assert str(err.value) == want % (d, a, lam)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("d, lam", [(513, 1.0001 * 1024.0), (1000, None)])
def test_newton_roots_raise_no_warning(d, lam):
    # inputs where an earlier seeding met an exact zero pivot r_n = 0
    if lam is None:
        lam = _multiplier(1.0, d, 2.0 ** (0.5 * (d - 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = family_roots(1.0, d, lam)
    assert all(x < y for x, y in zip(roots, roots[1:]))


def _fraction_recurrence(d, lam):
    # ascending coefficients of p_{d-1} and p_d in xi, and the e2 of
    # family_roots, all exact
    e2 = [lam * n * (lam + 2 - n) / ((lam + 3 - 2 * n) * (lam + 1 - 2 * n)) for n in range(1, d)]
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for e in e2:
        shifted = [Fraction(0)] + cur
        prev, cur = cur, [s - e * p for s, p in zip(shifted, prev + [0, 0])]
    return prev, cur, e2


STRUCTURE_LAMS = {
    "2d-2": lambda d: Fraction(2 * d - 2),
    "just-above-2d-3": lambda d: 2 * d - 3 + Fraction(1, 1000),
    "far-out": lambda d: Fraction(10**6, 7),
}


@pytest.mark.parametrize("d", range(2, 13))
@pytest.mark.parametrize("where", sorted(STRUCTURE_LAMS))
def test_structure_relation_is_exact(d, where):
    # (xi^2 + lam) p_d' = d xi p_d + beta p_{d-1}, beta = lam d + 2 sum(e2),
    # the relation _newton_step takes p_d'/p_d from
    lam = STRUCTURE_LAMS[where](d)
    prev, cur, e2 = _fraction_recurrence(d, lam)
    beta = lam * d + 2 * sum(e2)
    deriv = [k * c for k, c in enumerate(cur)][1:] + [Fraction(0)]
    lhs = [lam * c for c in deriv] + [Fraction(0), Fraction(0)]
    for k, c in enumerate(deriv):
        lhs[k + 2] += c
    rhs = [Fraction(0)] + [d * c for c in cur] + [Fraction(0)]
    for k, c in enumerate(prev):
        rhs[k] += beta * c
    assert lhs == rhs


def test_newton_step_passes_through_a_zero_pivot():
    # at lam = 1e300 the e2 of family_roots round to 1, 2, 3 exactly, so
    # p_4 = xi^4 - 6 xi^2 + 3, and at xi = 1 the pivot r_2 = xi - 1/xi is
    # exactly 0; r_3 = -inf and r_4 = xi then give p'/p = -8/-2 = 4
    # exactly, a normal-form step of 1/(4 - 1/2), with no point moved
    lam = 1e300
    n = np.arange(1.0, 4.0)
    e2 = n * ((lam + 2.0 - n) / lam) / (((lam + 3.0 - 2.0 * n) / lam) * ((lam + 1.0 - 2.0 * n) / lam))
    assert e2.tolist() == [1.0, 2.0, 3.0]
    x = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = jf._newton_step(x, e2, lam)
    assert x.tolist() == [1.0, 2.0]
    assert step[0] == 1.0 / 3.5 and 1.0 / step[0] + 0.5 == 4.0
    # p'/p = 8 / -5 at xi = 2
    assert step[1] == pytest.approx(1.0 / (-1.6 - 1.0), rel=1e-15)


@pytest.mark.parametrize("frac", [0.05, 0.5, 0.999])
@pytest.mark.parametrize("d", [336, 1000, 3000])
def test_newton_roots_take_one_sweep(d, frac, monkeypatch):
    # every root's second Newton step is taken on its Taylor series, so
    # one sweep of the recurrence covers all the roots; of these cells only
    # d = 3000, frac 0.999 leaves a root uncertified (the largest), whose
    # later sweep carries it alone
    lam = jf._multiplier_from_modulus(1.0, d, frac * (d - 1) * math.log(2.0))
    sizes = []
    step = jf._newton_step

    def counted_step(x, e2, lam):
        sizes.append(x.size)
        return step(x, e2, lam)

    monkeypatch.setattr(jf, "_newton_step", counted_step)
    family_roots(1.0, d, lam)
    assert sizes[0] == d // 2
    assert all(n <= 2 for n in sizes[1:])


def _mpmath_worst_ulps(mp, x, d, lam):
    # the largest |p/p'| over the spacing of one of the x, as
    # _mpmath_newton_correction, with the e2 formed once for all of them
    with mp.workdps(40):
        lam = mp.mpf(lam)
        e2 = [n * (lam + 2 - n) / ((lam + 3 - 2 * n) * (lam + 1 - 2 * n)) for n in range(1, d)]
        ulps = []
        for v in x:
            v = mp.mpf(v)
            p0, p1, q0, q1 = 1, v, 0, 1
            for e in e2:
                p0, p1, q0, q1 = p1, v * p1 - e * p0, q1, p1 + v * q1 - e * q0
            ulps.append(float(abs(p1 / q1)) / np.spacing(float(v)))
    return max(ulps)


@pytest.mark.parametrize("d, frac, bound", [(384, 0.5, 14), (448, 0.05, 28), (1000, 0.5, 23)])
def test_newton_roots_worst_ulps(d, frac, bound):
    # the 4 smallest, the 4 largest and every 16th positive root; the
    # worst is the smallest, whose error the ratio recurrence carries
    mp = pytest.importorskip("mpmath")
    lam = jf._multiplier_from_modulus(1.0, d, frac * (d - 1) * math.log(2.0))
    pos = family_roots(1.0, d, lam)[(d + 1) // 2 :]
    half = len(pos)
    picked = set(range(4)) | set(range(half - 4, half)) | set(range(0, half, 16))
    assert _mpmath_worst_ulps(mp, [pos[k] for k in picked], d, lam) <= bound


def test_newton_roots_that_do_not_settle_are_refused(monkeypatch):
    # at 2d - 1.5 the largest root's Taylor step does not certify it, so
    # that root needs a second sweep
    lam = _newton_lam(NEWTON_D, 1.0, 0.5)
    monkeypatch.setattr(jf, "_NEWTON_SWEEPS", 1)
    with pytest.raises(DomainError, match="did not settle"):
        family_roots(1.0, NEWTON_D, lam)


def test_newton_roots_out_of_order_are_refused(monkeypatch):
    # reversed seeds converge root by root, but descending
    d = NEWTON_D
    seeds = jf._wkb_seeds
    monkeypatch.setattr(jf, "_wkb_seeds", lambda d, lam: seeds(d, lam)[::-1].copy())
    with pytest.raises(DomainError, match="strictly ascending"):
        family_roots(1.0, d, _newton_lam(d, 1.28, 0.0))


def test_closed_form_disc_values():
    # 4/(lam-1) at d=2 and 108/(lam-3)^3 at d=3
    ld = closed_form_disc(1.0, 2, 3.0)
    assert ld.sign == 1 and ld.value == pytest.approx(2.0, rel=1e-13)
    ld = closed_form_disc(1.0, 3, 4.0)
    assert ld.value == pytest.approx(108.0, rel=1e-13)


def test_closed_form_disc_vs_resultant():
    rng = np.random.default_rng(22)
    for _ in range(40):
        d = int(rng.integers(2, 8))
        lam = float(rng.uniform(2 * d - 2, 6 * d))
        a = float(rng.choice([0.5, 1.0, 2.0]))
        want = disc_resultant_oracles([family_coeffs(a, d, lam)])[0]
        got = closed_form_disc(a, d, lam)
        assert got.sign == want.sign
        assert rel_log_diff(got.log_abs, want.log_abs) < 1e-8


def test_pochhammer_and_binom():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(-2.0, 3) == 0.0
    assert gen_binom(4.0, 2) == pytest.approx(6.0)
    assert gen_binom(-0.5, 1) == pytest.approx(-0.5)


def test_jacobi_coeffs_symmetric_case_is_even():
    cs = jacobi_coeffs(4, 1.5, 1.5)
    assert cs[1] == pytest.approx(0.0, abs=1e-12)
    assert cs[3] == pytest.approx(0.0, abs=1e-12)
    # leading coefficient 2^-d C(2d+alpha+beta, d) by Vandermonde
    assert cs[4] == pytest.approx(330.0 / 16.0, rel=1e-13)


def test_jacobi_coeffs_skip_vanishing_terms():
    # alpha = -1 zeroes C(d + alpha, d - k) at k = 0:
    # P_2^(-1,0) = (3x + 1)(x - 1) / 4
    assert jacobi_coeffs(2, -1.0, 0.0) == [-0.25, -0.5, 0.75]


def test_jacobi_disc_of_a_double_root():
    # alpha = -2 leaves P_2^(-2,0) = (x - 1)^2 / 4
    assert jacobi_disc(2, -2.0, 0.0).sign == 0


# one call per argument refusal of the multiplier family and the Jacobi
# machinery, with its message; the first three keys name the argument
# bundles that made these checks before the functions took plain arguments
REFUSALS = {
    "JacobiFamilyParams multiplier": (
        lambda: family_coeffs(1.0, 4, math.nan),
        "multiplier must be finite",
    ),
    "JacobiParams d": (
        lambda: jacobi_coeffs(0, 0.0, 0.0), "d must be an integer >= 1"
    ),
    "JacobiParams exponents": (
        lambda: jacobi_disc(2, math.inf, 0.0),
        "alpha and beta must be finite",
    ),
    "gegenbauer_coeffs d": (
        lambda: gegenbauer_coeffs(-1, 1.0), "d must be a nonnegative integer"
    ),
    "jacobi_gegenbauer_residual order": (
        lambda: jacobi_gegenbauer_residual(1, 0.0),
        "(2 order)_d vanishes; scaling undefined",
    ),
    "jacobi_disc d": (
        lambda: jacobi_disc(1, 0.0, 0.0),
        "discriminant formula needs d >= 2",
    ),
    "jacobi_disc degree": (
        lambda: jacobi_disc(2, -2.0, -1.0),
        "alpha+beta = -d-1 is excluded (degenerate degree)",
    ),
    "degenerate_family_coeffs integers": (
        lambda: degenerate_family_coeffs(4.0, 1, 1.0), "d and anchor must be integers"
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_argument_refusals(name):
    call, message = REFUSALS[name]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


# each refusal of the member check, as (a, d, lam), exception and message
MEMBER_REFUSALS = [
    ((math.nan, 4, 7.0), DomainError, "height a must be positive and finite"),
    ((1.0, 1, 7.0), DomainError, "d must be an integer >= 2"),
    ((1.0, 4.0, 7.0), DomainError, "d must be an integer >= 2"),
    ((1.0, 4, math.inf), DomainError, "multiplier must be finite"),
    ((1.0, 4, 5.0 + 5e-10), DomainError, "multiplier 5.0000000005 is below 2d - 2 = 6"),
    ((1.0, 4, 5.0), DomainError, "multiplier 5 is below 2d - 2 = 6"),
    ((1.0, 4, 0.5), DomainError, "multiplier 0.5 is below 2d - 2 = 6"),
]


@pytest.mark.parametrize("call", MEMBER_FUNCTIONS)
@pytest.mark.parametrize("args, error, message", MEMBER_REFUSALS)
def test_member_functions_refuse_alike(call, args, error, message):
    with pytest.raises(error) as err:
        call(*args)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("call", [jacobi_coeffs, jacobi_disc])
@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 0.0, 0.0), "d must be an integer >= 1"),
        ((2.0, 0.0, 0.0), "d must be an integer >= 1"),
        ((2, math.nan, 0.0), "alpha and beta must be finite"),
        ((2, 0.0, -math.inf), "alpha and beta must be finite"),
    ],
)
def test_jacobi_functions_refuse_alike(call, args, message):
    with pytest.raises(DomainError) as err:
        call(*args)
    assert str(err.value) == message


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
        try:
            got = jacobi_disc(d, alpha, beta)
        except DomainError:
            continue  # excluded parameter hit; resample
        want = disc_resultant_oracles([jacobi_coeffs(d, alpha, beta)])[0]
        if want.sign == 0:
            continue
        assert got.sign == want.sign
        assert rel_log_diff(got.log_abs, want.log_abs) < 1e-8
        done += 1


def test_connection_residual_small_cases():
    for a, d, lam in [(1.0, 2, 3.0), (1.0, 4, 6.5), (2.0, 5, 9.7)]:
        r = jacobi_connection_residual(a, d, lam)
        assert r < 1e-9


def _with_nan_at(fn, index):
    # fn with the coefficient at index of its row made NaN
    return lambda *args: [math.nan if k == index else c for k, c in enumerate(fn(*args))]


def test_gegenbauer_residual_keeps_a_nan_coefficient(monkeypatch):
    # a builtin max over the gaps would drop a NaN that is not the first
    monkeypatch.setattr(oracles, "gegenbauer_coeffs", _with_nan_at(gegenbauer_coeffs, 2))
    assert math.isnan(jacobi_gegenbauer_residual(4, 1.0))


def test_connection_residual_keeps_a_nan_coefficient(monkeypatch):
    monkeypatch.setattr(jf, "family_coeffs", _with_nan_at(family_coeffs, 2))
    assert math.isnan(jacobi_connection_residual(1.0, 4, 6.5))


def test_connection_excluded_multiplier():
    # lam = 2d - 2 makes the defining Pochhammer factor vanish
    with pytest.raises(DomainError):
        jacobi_connection_residual(1.0, 4, 6.0)


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
        for d in range(3, 10):
            for anchor in range(0, d - 2):
                if (d - anchor) % 2 == 0:
                    continue
                cs = degenerate_family_coeffs(d, anchor, 1.0)
                bound = descartes_real_root_bound(cs)
                if bound >= d:
                    roots = np.roots(cs[::-1])
                    assert np.max(np.abs(roots.imag)) > 1e-8
