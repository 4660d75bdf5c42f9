import json
import math
import sys

import pytest

from extremal_poly.cli import canonical_json, main
from extremal_poly.jacobi_family import JacobiFamilyParams, closed_form_disc
from extremal_poly.poly_core import rel_log_diff


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCanonicalJson:
    def test_shortest_roundtrip_floats(self):
        s = canonical_json({"x": 0.1, "y": 1.0 / 3.0})
        assert json.loads(s) == {"x": 0.1, "y": 1.0 / 3.0}

    def test_negative_zero_is_normalised(self):
        assert canonical_json(-0.0) == "0"

    def test_infinities_become_strings(self):
        assert canonical_json(math.inf) == '"inf"'
        assert canonical_json(-math.inf) == '"-inf"'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(math.nan)

    def test_nested_containers(self):
        s = canonical_json({"a": [1, None, True], "b": {"c": 2.5}})
        assert json.loads(s) == {"a": [1, None, True], "b": {"c": 2.5}}

    def test_idempotent_through_parse(self):
        s1 = canonical_json({"roots": [-1.5, 0.25], "m": 2.0})
        s2 = canonical_json(json.loads(s1))
        assert s1 == s2


class TestSolveCommands:
    def test_solve_disc_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", "2", "--m", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["problem"] == "max_disc"
        assert doc["regime"] == "f_family"
        assert doc["roots"] == pytest.approx([-1.0, 1.0], rel=1e-12)
        assert doc["log_disc"]["sign"] == 1
        assert doc["log_disc"]["value"] == pytest.approx(4.0, rel=1e-12)
        assert doc["mirror"] is None

    def test_solve_min_reports_mirror(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-min", "--a", "0.5", "--d", "2", "--disc", "4"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["mirror"] is not None
        assert doc["mirror"]["roots"] == pytest.approx(
            [-r for r in reversed(doc["roots"])]
        )
        assert doc["achieved_m"] == pytest.approx(1.0, rel=1e-10)

    def test_solve_min_multiplier_regime(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-min", "--a", "2", "--d", "2", "--disc", "2"
        )
        doc = json.loads(out)
        assert doc["regime"] == "g_family"
        assert doc["lambda_or_B"] == pytest.approx(9.0, rel=1e-10)

    def test_schema_keys_are_stable(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", "3", "--m", "1.5"
        )
        doc = json.loads(out)
        assert sorted(doc) == [
            "achieved_m",
            "coeffs",
            "lambda_or_B",
            "log_disc",
            "mirror",
            "problem",
            "regime",
            "roots",
        ]

    def test_output_is_byte_deterministic(self, capsys):
        _, out1, _ = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", "3", "--m", "1.7"
        )
        _, out2, _ = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", "3", "--m", "1.7"
        )
        assert out1 == out2

    def test_invalid_input_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", "2", "--m", "0.5"
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("d,frac", [(30, 0.999), (60, 0.5), (100, 0.5)])
    def test_multiplier_regime_at_large_degree(self, capsys, d, frac):
        # these inputs used to fail as "not real-rooted" or return a
        # discriminant off by 1e-3
        m = repr(2.0 ** (frac * (d - 1)))
        code, out, err = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", str(d), "--m", m
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == "g_family"
        want = closed_form_disc(
            JacobiFamilyParams(a=1.0, d=d, multiplier=doc["lambda_or_B"])
        )
        assert rel_log_diff(doc["log_disc"]["log_abs"], want.log_abs) <= 1e-12

    @pytest.mark.parametrize("m", ["1e13", "1e160", repr(sys.float_info.max)])
    def test_huge_modulus_hits_tangent_pole(self, capsys, m):
        # the lattice angle of p ~ 1/m lands on a pole long before the
        # subleading coefficient's radicand p^(-2) - 1 would overflow
        code, out, err = run_cli(capsys, "solve-disc", "--a", "1", "--d", "3", "--m", m)
        assert code == 2 and out == ""
        assert err == "error: lattice angle k=1 hits a tangent pole\n"

    @pytest.mark.parametrize("frac,regime", [(0.999, "g_family"), (1.01, "f_family")])
    def test_overflowing_coeffs_are_null(self, capsys, frac, regime):
        m = repr(2.0 ** (frac * 999))
        code, out, err = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", "1000", "--m", m
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == regime
        assert doc["coeffs"] is None and len(doc["roots"]) == 1000
        if doc["mirror"] is not None:
            assert doc["mirror"]["coeffs"] is None


class TestLemniscateCommand:
    def test_negative_leading_root_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "lemniscate", "--roots", "-1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["radius"] == pytest.approx(0.5, abs=1e-9)
        assert doc["has_interior"] is True
        assert doc["bounds"] is None

    def test_equals_form_also_works(self, capsys):
        code, out, _ = run_cli(capsys, "lemniscate", "--roots=-1,1")
        assert code == 0

    def test_bounds_report(self, capsys):
        r = repr(math.sqrt(0.5))
        code, out, _ = run_cli(
            capsys, "lemniscate", "--roots", "-%s,%s" % (r, r), "--bounds"
        )
        doc = json.loads(out)
        assert doc["bounds"]["disc"] == pytest.approx(2.0, rel=1e-12)
        assert doc["bounds"]["upper"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert doc["bounds"]["lower"] == pytest.approx(0.5, rel=1e-12)

    def test_single_root_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lemniscate", "--roots", "1")
        assert code == 2
        assert "two" in err

    def test_garbage_roots_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lemniscate", "--roots", "1,spam")
        assert code == 2


class TestEnergyCommand:
    def test_equilibrium_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--a", "1", "--d", "2", "--v", "-0.3465735903"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == pytest.approx([-1.0, 1.0], abs=1e-8)
        assert doc["energy_I"] == pytest.approx(-math.log(2.0), abs=1e-8)
        assert sorted(doc) == ["a", "energy_I", "points", "potential_v"]

    def test_inadmissible_potential(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--a", "1", "--d", "2", "--v", "0.2")
        assert code == 2

    @pytest.mark.parametrize("a", ["0", "-1"])
    def test_nonpositive_height_exits_two(self, capsys, a):
        code, out, err = run_cli(capsys, "energy", "--a", a, "--d", "3", "--v", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "height" in err

    def test_overflowing_modulus_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "energy", "--a", "1", "--d", "3", "--v", "-300"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "overflows" in err


class TestEmitPlot:
    def test_lemniscate_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "emit-plot", "--what", "lemniscate", "--roots", "-1,1",
            "--samples", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,halfwidth"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == -2.0
        assert float(first[1]) == 0.0

    def test_lemniscate_default_sample_count(self, capsys):
        _, out, _ = run_cli(capsys, "emit-plot", "--what", "lemniscate",
                            "--roots", "-1,1")
        assert len(out.strip().split("\n")) == 64 * 2 + 2

    def test_cdf_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "emit-plot", "--what", "cdf", "--roots", "-1,1", "--a", "1"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "x,f_emp,f_arctan"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[1]) for r in rows] == [0.5, 1.0]
        assert float(rows[0][2]) == pytest.approx(0.25, abs=1e-12)
        assert float(rows[1][2]) == pytest.approx(0.75, abs=1e-12)

    def test_bad_sample_count(self, capsys):
        code, _, err = run_cli(
            capsys,
            "emit-plot", "--what", "lemniscate", "--roots", "-1,1",
            "--samples", "1",
        )
        assert code == 2


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_tolerance_env_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMAL_POLY_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_tolerance_env_must_be_positive(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMAL_POLY_TOL", "-1e-8")
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
