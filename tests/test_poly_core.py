import dataclasses
import math

import numpy as np
import pytest

from extremal_poly.errors import DomainError, InputError
from extremal_poly.poly_core import (
    LogDiscriminant,
    RealRootedPoly,
    descartes_real_root_bound,
    disc_resultant_oracle,
    eval_at,
    eval_coeffs,
    log_disc_from_roots,
    log_modulus_at_ai,
    modulus_at_ai,
    poly_from_roots,
    quartic_disc,
    quintic_disc,
    rel_log_diff,
)


def test_poly_from_roots_basic():
    p = poly_from_roots([1.0, -1.0])
    assert p.degree == 2
    assert p.roots == (-1.0, 1.0)
    assert p.coeffs == (-1.0, 0.0, 1.0)


def test_poly_from_roots_sorts():
    p = poly_from_roots([3.0, -2.0, 0.5])
    assert list(p.roots) == sorted(p.roots)


def test_poly_from_roots_rejects_nonfinite():
    with pytest.raises(InputError):
        poly_from_roots([0.0, math.inf])
    with pytest.raises(InputError):
        poly_from_roots([0.0, math.nan])


def test_poly_from_roots_needs_degree_two():
    with pytest.raises(DomainError):
        poly_from_roots([1.0])


def test_eval_agreement():
    rng = np.random.default_rng(11)
    for _ in range(50):
        roots = rng.uniform(-3, 3, size=int(rng.integers(2, 7)))
        p = poly_from_roots(roots)
        x = float(rng.uniform(-4, 4))
        direct = math.prod(x - r for r in p.roots)
        assert eval_at(p, x).real == pytest.approx(direct, rel=1e-10, abs=1e-10)
        assert eval_coeffs(p.coeffs, x) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_eval_at_complex():
    p = poly_from_roots([-1.0, 1.0])
    assert eval_at(p, 1j) == pytest.approx(-2.0 + 0j)


def test_roots_are_the_only_field():
    p = poly_from_roots([2.0, -1.0, 0.5])
    assert [f.name for f in dataclasses.fields(RealRootedPoly)] == ["roots"]
    assert p.degree == 3
    assert "coeffs" not in p.__dict__
    assert p.coeffs == (1.0, -1.5, -1.5, 1.0)
    assert "coeffs" in p.__dict__


def test_equality_and_hash_follow_the_roots():
    p = poly_from_roots([1.0, -1.0])
    q = poly_from_roots([-1.0, 1.0])
    assert q.coeffs == (-1.0, 0.0, 1.0)  # q's cache is filled, p's is not
    assert p == q and hash(p) == hash(q)
    assert p != poly_from_roots([-1.0, 2.0])
    assert len({p, q, poly_from_roots([0.0, 1.0])}) == 2


def test_modulus_at_ai():
    p = poly_from_roots([-1.0, 1.0])
    # |f(i)| = |-1 - 1| = 2
    assert modulus_at_ai(p, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert log_modulus_at_ai(p.roots, 1.0) == pytest.approx(math.log(2.0), abs=1e-14)


def test_modulus_log_route_matches_direct():
    rng = np.random.default_rng(13)
    for _ in range(40):
        roots = rng.uniform(-3, 3, size=5)
        a = float(rng.uniform(0.1, 4.0))
        p = poly_from_roots(roots)
        assert math.log(modulus_at_ai(p, a)) == pytest.approx(
            log_modulus_at_ai(p.roots, a), abs=1e-12
        )


def test_log_disc_known_values():
    # disc(x^2 - 1) = 4, disc(x^3 - 3x) = 108
    ld = log_disc_from_roots(poly_from_roots([-1.0, 1.0]))
    assert ld.sign == 1
    assert ld.value == pytest.approx(4.0, rel=1e-14)
    ld3 = log_disc_from_roots(poly_from_roots([-math.sqrt(3), 0.0, math.sqrt(3)]))
    assert ld3.value == pytest.approx(108.0, rel=1e-13)


def test_log_disc_coincident_roots():
    ld = log_disc_from_roots(poly_from_roots([1.0, 1.0]))
    assert ld.sign == 0


def _list_log_disc(rs) -> LogDiscriminant:
    # reference: every pairwise term materialised, then summed
    terms = []
    for j in range(len(rs)):
        for k in range(j + 1, len(rs)):
            diff = rs[k] - rs[j]
            if diff == 0.0:
                return LogDiscriminant.zero()
            terms.append(2.0 * math.log(abs(diff)))
    return LogDiscriminant(1, math.fsum(terms))


def test_log_disc_equals_list_reference_bitwise():
    rng = np.random.default_rng(15)
    for trial in range(60):
        roots = list(rng.uniform(-3, 3, size=int(rng.integers(2, 60))))
        if trial % 3 == 0:
            roots[0] = roots[-1]
        if trial % 5 == 0:
            roots = [round(r, 1) for r in roots]
        p = poly_from_roots(roots)
        assert log_disc_from_roots(p) == _list_log_disc(p.roots)


def test_resultant_oracle_agrees_with_root_product():
    rng = np.random.default_rng(14)
    for _ in range(60):
        roots = rng.uniform(-3, 3, size=int(rng.integers(2, 8)))
        p = poly_from_roots(roots)
        want = log_disc_from_roots(p)
        got = disc_resultant_oracle(p.coeffs)
        assert got.sign == want.sign
        assert rel_log_diff(got.log_abs, want.log_abs) < 1e-8


def test_resultant_oracle_negative_disc():
    # x^3 + x has disc -4: complex root pair flips the sign
    got = disc_resultant_oracle([0.0, 1.0, 0.0, 1.0])
    assert got.sign == -1
    assert got.value == pytest.approx(-4.0, rel=1e-12)


def test_log_discriminant_value_roundtrip():
    ld = LogDiscriminant.from_value(12.5)
    assert ld.sign == 1
    assert ld.value == pytest.approx(12.5, rel=1e-15)
    assert LogDiscriminant.from_value(-3.0).sign == -1
    assert LogDiscriminant.zero().sign == 0
    assert LogDiscriminant.zero().value == 0.0


def test_log_discriminant_huge_value_is_inf():
    ld = LogDiscriminant(sign=1, log_abs=800.0)
    assert ld.value == math.inf


def test_rel_log_diff_floor():
    # small magnitudes compare absolutely, not relatively
    assert rel_log_diff(1e-13, 0.0) == pytest.approx(1e-13)
    assert rel_log_diff(200.0, 100.0) == pytest.approx(0.5)
    assert rel_log_diff(-5.0, -5.0) == 0.0


@pytest.mark.parametrize(
    "c2,c0,roots",
    [
        (-1.0, 0.09, None),
        (-6.0, 1.0, None),
        (-2.0, 0.5, None),
    ],
)
def test_quartic_disc_vs_oracle(c2, c0, roots):
    got = quartic_disc(c2, c0)
    ref = disc_resultant_oracle([c0, 0.0, c2, 0.0, 1.0])
    assert got == pytest.approx(ref.sign * math.exp(ref.log_abs), rel=1e-10)


def test_quintic_disc_vs_oracle():
    for c2, c0 in [(-3.0, 1.0), (-5.0, 2.0), (-2.5, 0.7)]:
        got = quintic_disc(c2, c0)
        ref = disc_resultant_oracle([0.0, c0, 0.0, c2, 0.0, 1.0])
        assert got == pytest.approx(ref.sign * math.exp(ref.log_abs), rel=1e-10)


@pytest.mark.parametrize(
    "coeffs,bound",
    [
        ([1.0, 0.0, 1.0], 0),  # x^2 + 1
        ([-1.0, 0.0, 1.0], 2),  # x^2 - 1
        ([0.0, -3.0, 0.0, 1.0], 3),  # x^3 - 3x
        ([-3.0, 0.0, 6.0, 0.0, 1.0], 2),  # x^4 + 6x^2 - 3
    ],
)
def test_descartes_bound(coeffs, bound):
    assert descartes_real_root_bound(coeffs) == bound


def test_descartes_rejects_zero_poly():
    with pytest.raises(DomainError):
        descartes_real_root_bound([0.0, 0.0])
