"""The verify suite's failure paths: each check that compares against a
closed form, a sign or a regime reports a FAIL line when that closed
form, sign or regime is wrong, and says where."""

import dataclasses
import math
from types import SimpleNamespace

import pytest

from extremal_poly import jacobi_family as jf
from extremal_poly import lemniscate as lem
from extremal_poly import verification
from extremal_poly.oracles import reference_max_disc
from extremal_poly.poly_core import LogDiscriminant
from extremal_poly.solvers import REGIME_MULTIPLIER
from extremal_poly.verification import CheckResult


def _flipped(fn):
    # fn with the sign of its LogDiscriminant negated
    def flipped(*args):
        ld = fn(*args)
        return LogDiscriminant(-ld.sign, ld.log_abs)

    return flipped


def test_binomial_sum_fails_on_a_wrong_binomial(monkeypatch):
    wrong = lambda n, k: math.comb(n, k) + ((n, k) == (7, 2))  # noqa: E731
    monkeypatch.setattr(verification, "math", SimpleNamespace(comb=wrong))
    assert verification._check_binomial_sum() == CheckResult(
        "binomial-sum", False, "mismatch at d=7"
    )


@pytest.mark.parametrize("deep", [False, True])
def test_multiplier_vs_resultant_fails_on_a_flipped_sign(monkeypatch, deep):
    monkeypatch.setattr(jf, "closed_form_disc", _flipped(jf.closed_form_disc))
    assert verification._check_multiplier_vs_resultant(deep) == CheckResult(
        "multiplier-vs-resultant", False,
        "sign mismatch at d=2 lam=8.982109 a=0.5",
    )


def test_jacobi_vs_resultant_fails_on_a_flipped_sign(monkeypatch):
    monkeypatch.setattr(verification, "jacobi_disc", _flipped(verification.jacobi_disc))
    assert verification._check_jacobi_vs_resultant() == CheckResult(
        "jacobi-vs-resultant", False,
        "sign mismatch at d=6 alpha=-13.896182 beta=-13.896182",
    )


def test_binomial_equality_fails_on_a_wrong_regime(monkeypatch):
    solve = verification.solve_min_abs
    monkeypatch.setattr(
        verification, "solve_min_abs",
        lambda a, d, disc: dataclasses.replace(solve(a, d, disc), regime=REGIME_MULTIPLIER),
    )
    result = verification._check_binomial_equality()
    assert not result.passed
    assert result.detail.startswith("unexpected regime g_family at a=")


def test_lemniscate_witness_fails_on_a_wrong_edge_value(monkeypatch):
    witness = lem.inscribed_disk_poly
    monkeypatch.setattr(
        lem, "inscribed_disk_poly", lambda d, disc: witness(d, disc)[:2] + (1.0 + 1e-6,)
    )
    for deep in (False, True):
        assert verification._check_lemniscate_witness(deep) == CheckResult(
            "lemniscate-witness", False,
            "edge value 1.0000009999999999 != 1 at d=2",
        )


@pytest.mark.parametrize("d", [1, 6])
def test_reference_max_disc_covers_degrees_two_to_five(d):
    with pytest.raises(ValueError, match="cover d in 2..5 only"):
        reference_max_disc(d, 2.0)
