import math

import numpy as np
import pytest

from extremal_poly.binomial_family import (
    BinomialFamilyParams,
    binomial_coeffs,
    binomial_poly,
    lattice_phase,
    log_phase_ratio,
    min_modulus_bound,
    params_from_disc,
    phase_ratio,
    small_height_condition,
    subleading_coeff,
    tangent_lattice_roots,
)
from extremal_poly.errors import DomainError, RegimeError
from extremal_poly.poly_core import (
    log_disc_from_roots,
    modulus_at_ai,
    poly_from_roots,
    rel_log_diff,
)

SQ3 = math.sqrt(3.0)


class TestTangentLattice:
    def test_quarter_phase_degree_two(self):
        assert tangent_lattice_roots(1.0, 2, math.pi / 4) == pytest.approx([-1.0, 1.0])

    def test_zero_phase_degree_three(self):
        got = tangent_lattice_roots(1.0, 3, 0.0)
        assert got == pytest.approx([-SQ3, 0.0, SQ3], abs=1e-15)

    def test_height_scaling(self):
        assert tangent_lattice_roots(2.0, 2, math.pi / 4) == pytest.approx([-2.0, 2.0])

    def test_pole_reports_offending_k(self):
        with pytest.raises(DomainError, match="k=0"):
            tangent_lattice_roots(1.0, 2, math.pi / 2)
        with pytest.raises(DomainError, match="k=1"):
            tangent_lattice_roots(1.0, 2, 1e-14)

    def test_bad_height(self):
        with pytest.raises(DomainError):
            tangent_lattice_roots(-1.0, 2, 0.3)


class TestPhaseRatio:
    def test_clamps_to_one_on_boundary(self):
        # boundary disc for a=1, d=2 is 4
        assert phase_ratio(1.0, 2, 4.0).p == 1.0

    def test_rejects_heights_beyond_regime(self):
        with pytest.raises(RegimeError):
            phase_ratio(2.0, 2, 4.0)

    def test_log_form_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = int(rng.integers(2, 8))
            disc = float(np.exp(rng.uniform(-2, 5)))
            a = 0.25 * float(rng.uniform(0.2, 1.0))
            lp = log_phase_ratio(a, d, disc)
            if lp > 0:
                continue
            assert phase_ratio(a, d, disc).p == pytest.approx(math.exp(lp))


def test_lattice_phase_range():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        disc = float(np.exp(rng.uniform(-2, 5)))
        a = 0.2
        if log_phase_ratio(a, d, disc) > 0:
            continue
        g = lattice_phase(a, d, disc)
        assert 0.0 <= g <= math.pi / (2 * d) + 1e-15


def test_subleading_sign_parity():
    # B carries sign (-1)^d away from the boundary
    assert subleading_coeff(0.5, 2, 4.0) > 0
    assert subleading_coeff(0.5, 3, 4.0) < 0
    assert subleading_coeff(1.0, 2, 4.0) == 0.0  # boundary


def test_known_expansion_degree_two():
    # a=0.5, B=sqrt(3): x^2 + sqrt(3) x - 1/4
    params = params_from_disc(0.5, 2, 4.0)
    assert params.subleading == pytest.approx(SQ3, rel=1e-12)
    assert binomial_coeffs(params) == pytest.approx([-0.25, SQ3, 1.0], rel=1e-12)


def test_known_expansion_boundary_quartic():
    # B=0, a=1, d=4: x^4 - 6x^2 + 1
    params = BinomialFamilyParams(a=1.0, d=4, subleading=0.0, phase=math.pi / 8)
    assert binomial_coeffs(params) == pytest.approx(
        [1.0, 0.0, -6.0, 0.0, 1.0], abs=1e-12
    )


def test_params_phase_consistency_enforced():
    with pytest.raises(DomainError):
        BinomialFamilyParams(a=1.0, d=3, subleading=5.0, phase=0.3)


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
        params = params_from_disc(a, d, disc)
        cs = binomial_coeffs(params)
        q = poly_from_roots(tangent_lattice_roots(a, d, params.phase))
        scale = max(abs(c) for c in cs)
        assert max(abs(x - y) for x, y in zip(cs, q.coeffs)) < 1e-8 * scale


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
        p = binomial_poly(params_from_disc(a, d, disc))
        assert modulus_at_ai(p, a) == pytest.approx(
            min_modulus_bound(a, d, disc), rel=1e-9
        )
        got = log_disc_from_roots(p)
        assert got.sign == 1
        assert rel_log_diff(got.log_abs, math.log(disc)) < 1e-8


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
