"""The verify suite's failure paths: each check that compares against a
closed form, a sign or a regime reports a FAIL line when that closed
form, sign or regime is wrong, and says where; each check that holds an
error to a bound fails when that error is NaN or infinite."""

import ast
import dataclasses
import math
import pathlib
from types import SimpleNamespace

import pytest

from extremal_poly import binomial_family as bf
from extremal_poly import cli
from extremal_poly import jacobi_family as jf
from extremal_poly import lemniscate as lem
from extremal_poly import trig_products as tp
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


def _nan(fn):
    # a patch: NaN for every call
    return lambda *args, **kwargs: math.nan


def _nan_at(index):
    # a patch: the original's row, array or tuple with one entry made NaN
    def patch(fn):
        def wrapped(*args):
            out = list(fn(*args))
            out[index] = math.nan
            return out

        return wrapped

    return patch


def _log_abs(value):
    # a patch: the original's LogDiscriminant with its log made value
    return lambda fn: lambda *args: LogDiscriminant(fn(*args).sign, value)


def _fields(**fields):
    # a patch: the original's dataclass answer with fields replaced
    return lambda fn: lambda *args: dataclasses.replace(fn(*args), **fields)


_NAN_DISC = LogDiscriminant(1, math.nan)

# Each check that holds an error to a bound, with one input it compares
# made NaN, or a log discriminant made +inf: (the check as a call without
# arguments, whether it runs only under --deep, the owner and name of the
# patched function, the patch as a function of the original). The NaN is
# never the first value a check reduces, which a builtin max would keep.
NAN_CASES = {
    "reference-max-disc-nan": (
        verification._check_reference_max_disc, False,
        verification, "reference_max_disc", _nan,
    ),
    "reference-max-disc-inf": (
        verification._check_reference_max_disc, False,
        verification, "reference_max_disc", lambda fn: lambda d, m: math.inf,
    ),
    "pinned-values": (
        verification._check_pinned_values, False,
        verification, "solve_max_disc",
        lambda fn: lambda a, d, m: (
            dataclasses.replace(fn(a, d, m), achieved_disc=_NAN_DISC) if d == 5 else fn(a, d, m)
        ),
    ),
    "duality-roundtrip": (
        verification._check_duality_roundtrip, False,
        verification, "solve_max_disc", _fields(achieved_disc=_NAN_DISC),
    ),
    "multiplier-vs-resultant-nan": (
        lambda: verification._check_multiplier_vs_resultant(False), False,
        jf, "closed_form_disc", _log_abs(math.nan),
    ),
    "multiplier-vs-resultant-inf": (
        lambda: verification._check_multiplier_vs_resultant(False), False,
        jf, "closed_form_disc", _log_abs(math.inf),
    ),
    "jacobi-vs-resultant-nan": (
        verification._check_jacobi_vs_resultant, False,
        verification, "jacobi_disc", _log_abs(math.nan),
    ),
    "jacobi-vs-resultant-inf": (
        verification._check_jacobi_vs_resultant, False,
        verification, "jacobi_disc", _log_abs(math.inf),
    ),
    "jacobi-gegenbauer": (
        verification._check_jacobi_gegenbauer, False,
        verification, "jacobi_gegenbauer_residual",
        lambda fn: lambda d, mu: math.nan if d == 6 else fn(d, mu),
    ),
    "multiplier-jacobi-connection": (
        verification._check_multiplier_jacobi_connection, False,
        verification, "jacobi_connection_residual", _nan,
    ),
    "binomial-equality": (
        verification._check_binomial_equality, False,
        verification, "solve_min_abs", _fields(achieved_disc=_NAN_DISC),
    ),
    "boundary-glue": (
        verification._check_boundary_glue, False,
        bf, "binomial_coeffs", _nan_at(1),
    ),
    "lagrange-stationarity": (
        verification._check_lagrange_stationarity, False,
        verification, "stationarity_residual",
        lambda fn: lambda roots, a: (math.nan, fn(roots, a)[1]),
    ),
    "cos-product": (
        verification._check_cos_product, False,
        tp, "cos_sq_product", _nan_at(5),
    ),
    "sine-product": (
        verification._check_sine_product, False,
        tp, "sine_product_identity_residual", _nan_at(5),
    ),
    "pairwise-bound": (
        verification._check_pairwise_bound, False,
        tp, "pairwise_sin_sq_product", lambda fn: lambda ys: fn(ys) * math.nan,
    ),
    "lemniscate-witness-height": (
        lambda: verification._check_lemniscate_witness(False), False,
        lem, "inscribed_disk_poly", _nan_at(1),
    ),
    "lemniscate-witness-edge-value": (
        lambda: verification._check_lemniscate_witness(False), False,
        lem, "inscribed_disk_poly", _nan_at(2),
    ),
    "lemniscate-upper-bound": (
        verification._check_lemniscate_upper_bound, False,
        lem, "log_radius_upper_bound", _nan,
    ),
    "energy-equilibrium-gap": (
        verification._check_energy_equilibrium, False,
        verification, "energy_lower_bound", _nan,
    ),
    "energy-equilibrium-margin": (
        verification._check_energy_equilibrium, False,
        verification, "config_from_points", _fields(energy_I=math.nan),
    ),
    "oracle-agreement": (
        verification._check_oracle_agreement, True,
        verification, "numeric_oracle_max_discs",
        lambda fn: lambda a, d, ms, **kw: [SimpleNamespace(log_disc=_NAN_DISC) for _ in ms],
    ),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_bounded_check_fails_on_a_nan_or_infinite_error(monkeypatch, capsys, case):
    check, deep, owner, name, patch = NAN_CASES[case]
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    result = check()
    assert result.passed is False
    assert "nan" in result.detail or "inf" in result.detail
    assert cli.main(["verify", "--deep"] if deep else ["verify"]) == 1
    line = "FAIL %s: %s" % (result.name, result.detail)
    assert line in capsys.readouterr().out.splitlines()


def builtin_reductions(source: str) -> list[str]:
    """Every use of the name max or min in source: the builtins keep
    their first argument when a later one is NaN."""
    return [
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in ("max", "min")
    ]


def test_builtin_reductions_are_found_in_any_form():
    source = (
        "import numpy as np\n"
        "worst = max(0.0, 1.0)\n"
        "def f(xs):\n"
        "    return sorted(xs, key=abs)[0] if xs else min\n"
        "least = np.min([1.0])\n"
    )
    assert sorted(builtin_reductions(source)) == ["max", "min"]


def test_verification_reduces_through_its_one_helper():
    path = pathlib.Path(verification.__file__)
    assert builtin_reductions(path.read_text()) == []
