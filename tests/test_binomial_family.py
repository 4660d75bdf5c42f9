import math
import warnings

import numpy as np
import pytest

import extremal_poly.binomial_family as bf
from extremal_poly.binomial_family import (
    binomial_coeffs,
    lattice_roots,
    min_modulus_bound,
    small_height_condition,
)
from extremal_poly.errors import DomainError, RegimeError
from extremal_poly.poly_core import (
    log_disc_from_roots,
    log_modulus_at_ai,
    poly_from_roots,
    rel_log_diff,
)

SQ3 = math.sqrt(3.0)


def _member(a, d, disc):
    # (a, d, log_p) of the member that attains the minimal modulus at this
    # discriminant, the call shape of every binomial member function
    return a, d, bf._log_phase_of_disc(a, d, math.log(disc))


def _b(a, d, log_p):
    # B, the x^(d-1) coefficient of the member
    return binomial_coeffs(a, d, log_p)[d - 1]


def _member_poly(member):
    return poly_from_roots(lattice_roots(*member))


def _cot_lattice(a, d, log_p):
    # a cot(psi + pi j/d) straight from the definition, in plain floats
    delta = math.asin(math.exp(log_p)) / d
    psi = delta if d % 2 else -delta
    js = range(1 - (d + 1) // 2, d // 2 + 1)
    return sorted(a / math.tan(psi + math.pi * j / d) for j in js)


class TestTangentLattice:
    # the cotangent lattice a cot(psi + pi j/d) is the paper's tangent
    # lattice a tan(phase + pi k/d) written from the pole side
    def test_quarter_phase_degree_two(self):
        assert lattice_roots(1.0, 2, 0.0) == pytest.approx([-1.0, 1.0])

    def test_zero_phase_degree_three(self):
        got = lattice_roots(1.0, 3, 0.0)
        assert got == pytest.approx([-SQ3, 0.0, SQ3], abs=1e-15)
        assert got[1] == 0.0

    def test_height_scaling(self):
        assert lattice_roots(2.0, 2, 0.0) == pytest.approx([-2.0, 2.0])

    def test_near_pole_root_answers(self):
        # delta = asin(p)/2 = 1e-14 put the tangent chart's angle 1e-14
        # from its pole; the cot chart forms -cot(delta) and tan(delta)
        got = lattice_roots(1.0, 2, math.log(2e-14))
        assert got == pytest.approx([-1e14, 1e-14], rel=1e-12)

    def test_root_past_float_range_is_named(self):
        # the pole root a d/p leaves float range below log(a d) - 709.78
        assert lattice_roots(1.0, 3, -708.5)[-1] == pytest.approx(
            3.0 * math.exp(708.5), rel=1e-12
        )
        with pytest.raises(DomainError, match="largest root .* past float range"):
            lattice_roots(1.0, 3, -709.0)
        with pytest.raises(DomainError, match="past float range"):
            binomial_coeffs(1.0, 3, -709.0)

    def test_bad_height(self):
        with pytest.raises(DomainError):
            lattice_roots(-1.0, 2, -0.3)


@pytest.mark.parametrize("d", [3, 8, 20])
@pytest.mark.parametrize("log_p", [0.0, -1e-6, -5.0, -30.0, -300.0])
def test_lattice_roots_match_mpmath(d, log_p):
    mp = pytest.importorskip("mpmath")
    for a in (1.0, 0.37):
        got = lattice_roots(a, d, log_p)
        with mp.workdps(50):
            delta = mp.asin(mp.exp(mp.mpf(log_p))) / d
            psi = delta if d % 2 else -delta
            js = range(1 - (d + 1) // 2, d // 2 + 1)
            want = sorted(float(a * mp.cot(psi + mp.pi * j / d)) for j in js)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * max(abs(w), a)


@pytest.mark.parametrize("d", [2, 3, 8, 9, 181, 182, 1000, 1001])
def test_boundary_member_is_an_exact_mirror_set(d):
    # the boundary member has only x^(d-2k) terms, so its roots are exact
    # +- pairs with an exact 0 for odd d; the log disc then takes the
    # mirror path and keeps its value
    for a in (1.0, 0.37):
        x = np.array(lattice_roots(a, d, 0.0))
        assert np.array_equal(x, -x[::-1])
        assert np.all(np.diff(x) > 0.0)
        assert x[d // 2] == 0.0 if d % 2 else x[d // 2 - 1] < 0.0
        got = log_disc_from_roots(poly_from_roots(x))
        want = log_disc_from_roots(poly_from_roots(_cot_lattice(a, d, 0.0)))
        assert got.sign == 1
        assert rel_log_diff(got.log_abs, want.log_abs) <= 1e-13


class TestPhaseRatio:
    def test_clamps_to_one_on_boundary(self):
        # boundary disc for a=1, d=2 is 4; p = 1 gives the boundary member,
        # B = 0, also for log p a roundoff above 0
        for disc in (4.0, 4.0 * math.exp(-2e-13)):
            member = _member(1.0, 2, disc)
            assert _member_poly(member).roots == tuple(lattice_roots(1.0, 2, 0.0))
            assert _b(*member) == 0.0
            assert binomial_coeffs(*member) == binomial_coeffs(1.0, 2, 0.0)

    def test_rejects_heights_beyond_regime(self):
        member = _member(2.0, 2, 4.0)
        for call in (lattice_roots, binomial_coeffs):
            with pytest.raises(RegimeError):
                call(*member)

    def test_log_form_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = int(rng.integers(2, 8))
            disc = float(np.exp(rng.uniform(-2, 5)))
            a = 0.25 * float(rng.uniform(0.2, 1.0))
            lp = bf._log_phase_of_disc(a, d, math.log(disc))
            if lp > 0:
                continue
            # the roots sit at a cot(psi + pi j/d), psi = +-asin(p)/d
            assert lattice_roots(a, d, lp) == pytest.approx(
                _cot_lattice(a, d, lp)
            )
            sign = -1.0 if d % 2 else 1.0
            assert _b(a, d, lp) == pytest.approx(
                sign * a * d * math.sqrt(math.exp(-2.0 * lp) - 1.0)
            )


def test_lattice_phase_range():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        disc = float(np.exp(rng.uniform(-2, 5)))
        a = 0.2
        if bf._log_phase_of_disc(a, d, math.log(disc)) > 0:
            continue
        roots = _member_poly(_member(a, d, disc)).roots
        # the pole root a cot(delta) fixes delta, which lies in [0, pi/(2d)]
        pole = roots[-1] if d % 2 else -roots[0]
        assert 0.0 <= math.atan(a / pole) <= math.pi / (2 * d) + 1e-15


def test_subleading_sign_parity():
    # B carries sign (-1)^d away from the boundary
    assert _b(*_member(0.5, 2, 4.0)) > 0
    assert _b(*_member(0.5, 3, 4.0)) < 0
    assert _b(*_member(1.0, 2, 4.0)) == 0.0  # boundary


@pytest.mark.parametrize("d", [2, 3, 63, 64, 65, 1000])
def test_subleading_slot_has_the_bits_of_b(d):
    # the row stores B in its x^(d-1) slot unchanged, on the loop and on
    # the array path
    for a in (1.0, 0.37):
        for log_p in (0.0, -1e-6, -0.5, -30.0):
            b = bf._subleading(a, d, log_p)
            assert np.float64(_b(a, d, log_p)).tobytes() == np.float64(b).tobytes()


def test_known_expansion_degree_two():
    # a=0.5, B=sqrt(3): x^2 + sqrt(3) x - 1/4
    member = _member(0.5, 2, 4.0)
    assert _b(*member) == pytest.approx(SQ3, rel=1e-12)
    assert binomial_coeffs(*member) == pytest.approx([-0.25, SQ3, 1.0], rel=1e-12)


def test_known_expansion_boundary_quartic():
    # B=0, a=1, d=4: x^4 - 6x^2 + 1
    assert binomial_coeffs(1.0, 4, 0.0) == pytest.approx(
        [1.0, 0.0, -6.0, 0.0, 1.0], abs=1e-12
    )


def test_coefficient_and_root_routes_agree():
    rng = np.random.default_rng(6)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        disc = float(np.exp(rng.uniform(-2, 4)))
        thr = (
            (-1.0 + 2.0 / d) * math.log(2.0)
            - math.log(d) / (d - 1)
            + math.log(disc) / (d * (d - 1))
        )
        a = math.exp(thr) * float(rng.uniform(0.3, 0.999))
        member = _member(a, d, disc)
        cs = binomial_coeffs(*member)
        q = np.poly(lattice_roots(*member))[::-1]
        scale = max(abs(c) for c in cs)
        assert max(abs(x - y) for x, y in zip(cs, q)) < 1e-8 * scale


def test_binomial_coeffs_decides_the_regime_once(monkeypatch):
    # one crossover decision per call on each side, as for the solves in
    # test_each_solve_decides_once_and_checks_outside_newton
    sides = []
    side_of = bf.crossover_side

    def counted_side(a, d, log_p):
        sides.append(side_of(a, d, log_p))
        return sides[-1]

    monkeypatch.setattr(bf, "crossover_side", counted_side)
    for log_p, side in ((-1.0, -1), (0.0, 0), (1.0, 1)):
        sides.clear()
        try:
            binomial_coeffs(0.5, 5, log_p)
        except RegimeError:
            assert side == 1
        else:
            assert side <= 0
        assert sides == [side]


@pytest.mark.parametrize("d", (bf._ARRAY_DEGREE - 1, bf._ARRAY_DEGREE, 200, 1000, 3000))
def test_binomial_coeffs_array_body_has_the_loops_bits(monkeypatch, d):
    # the loop body and the numpy array body, each forced by moving the
    # crossover, give the same bits: boundary and far members, rows that
    # underflow to zero and rows that leave float range
    for a in (0.3, 1.0, 3.0):
        for log_p in (0.0, -1e-3, -1.0, -30.0):
            rows = []
            for crossover in (d + 1, d):
                monkeypatch.setattr(bf, "_ARRAY_DEGREE", crossover)
                rows.append(np.array(binomial_coeffs(a, d, log_p)).tobytes())
            assert rows[0] == rows[1], (a, log_p)


@pytest.mark.parametrize("crossover", (1000, 1001))
def test_binomial_row_past_float_range_holds_inf_quietly(monkeypatch, crossover):
    # C(1000, 500) 3^500 is about 1e538: the row holds inf, with no
    # overflow warning from either body
    monkeypatch.setattr(bf, "_ARRAY_DEGREE", crossover)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = binomial_coeffs(3.0, 1000, -1.0)
    assert row[500] == math.inf and row[0] == math.inf
    assert row[1000] == 1.0


@pytest.mark.parametrize("crossover", (600, 601))
def test_binomial_odd_slots_outlast_the_even_product(monkeypatch, crossover):
    # at a = 0.3, d = 600 the even product falls to a subnormal x^0 slot,
    # but the odd slots keep a product of their own from B: none is zero
    monkeypatch.setattr(bf, "_ARRAY_DEGREE", crossover)
    row = binomial_coeffs(0.3, 600, -1.0)
    assert 0.0 < row[0] < 2.2250738585072014e-308
    assert all(c != 0.0 and math.isfinite(c) for c in row[1::2])


def test_modulus_attains_bound_under_small_height():
    rng = np.random.default_rng(7)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        disc = float(np.exp(rng.uniform(-3, 5)))
        thr = (
            (-1.0 + 2.0 / d) * math.log(2.0)
            - math.log(d) / (d - 1)
            + math.log(disc) / (d * (d - 1))
        )
        a = math.exp(thr) * float(rng.uniform(0.3, 1.0))
        assert small_height_condition(a, d, disc)
        p = _member_poly(_member(a, d, disc))
        log_bound = math.log(min_modulus_bound(a, d, disc))
        assert abs(log_modulus_at_ai(p.roots, a) - log_bound) <= math.log1p(1e-9)
        got = log_disc_from_roots(p)
        assert got.sign == 1
        assert rel_log_diff(got.log_abs, math.log(disc)) < 1e-8


def test_min_modulus_bound_past_float_range_is_inf():
    # (2a)^(d/2) = 2^2.5 1e375 leaves float range, as LogDiscriminant.value does
    assert min_modulus_bound(1e150, 5, 1e-150) == math.inf
    log_bound = 2.5 * math.log(2.0) - 0.625 * math.log(5.0) + math.log(4.0) / 8.0
    assert min_modulus_bound(1.0, 5, 4.0) == math.exp(log_bound)


def test_small_height_condition_edges():
    # threshold height for d=2, disc=4 is 1
    assert small_height_condition(1.0, 2, 4.0)
    assert not small_height_condition(1.0 + 1e-9, 2, 4.0)
    assert small_height_condition(0.5, 2, 4.0)


def test_argument_validation():
    with pytest.raises(DomainError):
        min_modulus_bound(0.0, 2, 1.0)
    with pytest.raises(DomainError):
        min_modulus_bound(1.0, 2, -1.0)
    with pytest.raises(DomainError):
        small_height_condition(1.0, 1, 1.0)
