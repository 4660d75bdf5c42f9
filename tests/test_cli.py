import collections
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_poly import lemniscate
from extremal_poly.cli import canonical_json, main
from extremal_poly.jacobi_family import closed_form_disc
from extremal_poly.oracles import TOL_ORACLE
from extremal_poly.poly_core import log_modulus_at_ai, rel_log_diff
from extremal_poly.verification import format_report, run_suite

DATA = Path(__file__).parent / "data"


class _Float(float):
    pass


class _Str(str):
    pass


_Pair = collections.namedtuple("_Pair", "x y")


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

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
            canonical_json(object())

    @pytest.mark.parametrize("obj", [np.int64(1), np.bool_(True), {1}])
    def test_numpy_scalars_and_sets_rejected(self, obj):
        text = "cannot serialize %r" % type(obj)
        with pytest.raises(TypeError, match=re.escape(text)):
            canonical_json(obj)

    def test_nested_containers(self):
        s = canonical_json({"a": [1, None, True], "b": {"c": 2.5}})
        assert json.loads(s) == {"a": [1, None, True], "b": {"c": 2.5}}

    @pytest.mark.parametrize(
        "text", ['say "hi"', "back\\slash", "caf\u00e9", "nul\x00", "tab\t", ""]
    )
    def test_strings_and_keys_escape_like_json_dumps(self, text):
        obj = {text: [text, 1.5], "k": text}
        assert canonical_json(text) == json.dumps(text)
        assert canonical_json(obj) == json.dumps(obj, separators=(",", ":"))

    @pytest.mark.parametrize(
        "items, text",
        [
            pytest.param([-0.0, 0.0, -0.0], "[0,0,0]", id="items0"),
            pytest.param(
                [5e-324, -2.2250738585072014e-308, 1e-310],
                "[4.9406564584124654e-324,-2.2250738585072014e-308,9.9999999999999694e-311]",
                id="items1",
            ),
            pytest.param(  # sum overflows
                [1.7976931348623157e308, 1.7976931348623157e308, -1.0],
                "[1.7976931348623157e+308,1.7976931348623157e+308,-1]",
                id="items2",
            ),
            pytest.param([1.5, math.inf, -2.0], '[1.5,"inf",-2]', id="items3"),
            pytest.param([-math.inf], '["-inf"]', id="items4"),
            pytest.param(
                [True, 1.5, False, 2, 10**20, -3],
                "[true,1.5,false,2,100000000000000000000,-3]",
                id="items5",
            ),
            pytest.param([1.0, 2, 3.5], "[1,2,3.5]", id="items6"),
            pytest.param(
                [0.1, 1.0 / 3.0, -2.5e-7, 6.02e23],
                "[0.10000000000000001,0.33333333333333331,-2.4999999999999999e-07,6.02e+23]",
                id="items7",
            ),
            pytest.param([], "[]", id="items8"),
            # subclasses of float print as floats, each on its own too
            pytest.param(
                [np.float64(0.1), np.float64(-0.0), np.float64(-np.inf)],
                '[0.10000000000000001,0,"-inf"]',
                id="numpy-float64",
            ),
            pytest.param([_Float(-0.0), _Float(2.5), 1.0], "[0,2.5,1]", id="float-subclass"),
            pytest.param([1.5, None, 2], "[1.5,null,2]", id="none-and-int"),
            pytest.param([_Str('a"b'), "c"], '["a\\"b","c"]', id="str-subclass"),
            pytest.param([True, 1, 1.0], "[true,1,1]", id="bool-int-float"),
            pytest.param([{"k": -0.0}], '[{"k":0}]', id="dict-negative-zero"),
            # keys print as str(key); tuples as lists
            pytest.param(
                [{2: 0.5, True: (1.0, -0.0), "k": (None, -1e300)}],
                '[{"2":0.5,"True":[1,0],"k":[null,-1.0000000000000001e+300]}]',
                id="dict-keys-and-tuples",
            ),
            pytest.param(
                [collections.OrderedDict(x=_Pair(1.0, -2.5))],
                '[{"x":[1,-2.5]}]',
                id="dict-and-tuple-subclasses",
            ),
        ],
    )
    def test_float_lists_print_like_each_float(self, items, text):
        each = "[" + ",".join(canonical_json(x) for x in items) + "]"
        assert canonical_json(items) == canonical_json(tuple(items)) == each == text

    def test_nan_in_a_float_list_rejected(self):
        with pytest.raises(ValueError):
            canonical_json([1.0, math.nan, 2.0])

    def test_idempotent_through_parse(self):
        s1 = canonical_json({"roots": [-1.5, 0.25], "m": 2.0})
        s2 = canonical_json(json.loads(s1))
        assert s1 == s2

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310])
            | st.text(),
            lambda inner: st.lists(inner)
            | st.lists(inner).map(tuple)
            | st.dictionaries(st.text(), inner),
            max_leaves=20,
        )
    )
    def test_canonical_text_is_fixed_through_parse(self, obj):
        text = canonical_json(obj)
        assert canonical_json(json.loads(text)) == text


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

    def test_solve_min_just_past_the_crossover(self, capsys):
        # phase ratio p = exp(3e-12): inside the snap window of the
        # crossover, so the answer is the shared boundary member
        disc = 7.378697629173878e19
        code, out, err = run_cli(
            capsys, "solve-min", "--a", "1.0", "--d", "8", "--disc", repr(disc)
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == "f_family"
        assert doc["mirror"] is None
        assert doc["lambda_or_B"] == 0.0
        assert rel_log_diff(doc["log_disc"]["log_abs"], math.log(disc)) <= 1e-9

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

    def test_multiplier_past_float_range_exits_two(self, capsys):
        # the smallest positive discriminant needs a multiplier near e^746
        code, out, err = run_cli(
            capsys, "solve-min", "--a", "1", "--d", "2", "--disc", "5e-324"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: multiplier past float range (log lam = 745.82636628250111)\n"
        )

    @pytest.mark.parametrize("m", ["0", "nan", "-2", "-2e-3"])
    def test_modulus_must_be_positive_and_finite(self, capsys, m):
        code, out, err = run_cli(capsys, "solve-disc", "--a", "1", "--d", "3", "--m", m)
        assert (code, out) == (2, "")
        assert err == "error: modulus m must be positive and finite\n"

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
        want = closed_form_disc(1.0, d, doc["lambda_or_B"])
        assert rel_log_diff(doc["log_disc"]["log_abs"], want.log_abs) <= 1e-12

    @pytest.mark.parametrize("m", ["1e13", "1e160", repr(sys.float_info.max)])
    def test_huge_modulus_meets_target(self, capsys, m):
        # one root runs off to about a d/p = 3m/4, up to 1.35e308 at the
        # largest float; it is formed from log p, with no pole in the way
        code, out, err = run_cli(capsys, "solve-disc", "--a", "1", "--d", "3", "--m", m)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == "f_family"
        for roots in (doc["roots"], doc["mirror"]["roots"]):
            got = log_modulus_at_ai(roots, 1.0)
            assert rel_log_diff(got, math.log(float(m))) <= 1e-9

    def test_far_multiplier_meets_target(self, capsys):
        # lambda is about 4e200; the bisection could not bracket it and
        # the recurrence radicand overflowed there
        code, out, err = run_cli(
            capsys, "solve-min", "--a", "1", "--d", "2", "--disc", "1e-200"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == "g_family"
        assert doc["roots"] == pytest.approx([-5e-101, 5e-101], rel=1e-12)
        assert rel_log_diff(doc["log_disc"]["log_abs"], math.log(1e-200)) <= 1e-12

    def test_modulus_ratio_past_float_range(self, capsys):
        # m / a^d is about e^754, which the linear-space target overflowed
        m = "0.0002458387573380644"
        code, out, err = run_cli(
            capsys, "solve-disc", "--a", "0.5", "--d", "1100", "--m", m
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == "g_family"
        got = log_modulus_at_ai(doc["roots"], 0.5)
        assert rel_log_diff(got, math.log(float(m))) <= 1e-12

    @pytest.mark.parametrize("disc", ["1", "1e-300", "1e300"])
    def test_overflowing_modulus_is_inf(self, capsys, disc):
        # log m is about 843 here: the roots and the discriminant are fine,
        # only the plain-float modulus leaves float range
        code, out, err = run_cli(
            capsys, "solve-min", "--a", "2", "--d", "1000", "--disc", disc
        )
        assert code == 0, err
        assert '"achieved_m":"inf"' in out
        doc = json.loads(out)
        assert doc["regime"] == "g_family"
        assert len(doc["roots"]) == 1000
        assert all(math.isfinite(r) for r in doc["roots"])
        got = doc["log_disc"]["log_abs"]
        assert rel_log_diff(got, math.log(float(disc))) <= TOL_ORACLE

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve-disc", "--a", "1e-100", "--d", "4", "--m", "1e-300"),
            ("solve-min", "--a", "1e-100", "--d", "3", "--disc", "1e-320"),
        ],
    )
    def test_discriminant_below_float_range_is_null(self, capsys, argv):
        # log disc is about -1384 and -737: the plain value would print as
        # 0 or as a subnormal, so only (sign, log_abs) carry it
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out.count('"value":null') == 1
        log_disc = json.loads(out)["log_disc"]
        assert log_disc["sign"] == 1 and log_disc["value"] is None
        assert log_disc["log_abs"] < math.log(1e-300)

    @pytest.mark.parametrize("frac,regime", [(0.999, "g_family"), (1.01, "f_family")])
    def test_degree_1000_coeffs_are_finite(self, capsys, frac, regime):
        # the closed forms stay in float range here (largest 1.4e299 and
        # 2.7e302), where multiplying the roots out overflowed
        m = repr(2.0 ** (frac * 999))
        code, out, err = run_cli(
            capsys, "solve-disc", "--a", "1", "--d", "1000", "--m", m
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == regime
        rows = [doc["coeffs"]]
        if doc["mirror"] is not None:
            rows.append(doc["mirror"]["coeffs"])
        for row in rows:
            assert len(row) == 1001 and row[1000] == 1.0
            assert all(math.isfinite(c) for c in row)
        if regime == "g_family":
            assert all(c == 0.0 for c in doc["coeffs"][1::2])

    def test_coeffs_past_float_range_are_null(self, capsys):
        # the roots are finite, but B a^(n-1) C(d,n) / d passes 1e308
        code, out, err = run_cli(
            capsys, "solve-disc", "--a", "0.4", "--d", "30", "--m", "1e302"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["regime"] == "f_family"
        assert doc["coeffs"] is None and doc["mirror"]["coeffs"] is None
        assert len(doc["roots"]) == 30
        assert all(math.isfinite(r) for r in doc["roots"])


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

    def test_bounds_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "lemniscate", "--roots=0,1,2", "--bounds")
        assert code == 0
        assert out == (
            '{"center_x":1,"radius":0.68232780382801927,"boundary_point":'
            '{"re":1,"im":0.68232780382801927},"has_interior":true,"bounds":'
            '{"disc":4,"upper":0.68736481849930142,"lower":0.45824321233286747}}\n'
        )

    @pytest.mark.parametrize(
        "roots,upper",
        [
            # disc = 1e-400 is positive and not a float; upper = disc^(-1/2)
            ("0,1e-200", 1e200),
            # disc = 4e360; upper = (sqrt 3 / 2) disc^(-1/6)
            ("-1e60,0,1e60", math.sqrt(3.0) / 2.0 * 4.0 ** (-1.0 / 6.0) * 1e-60),
            # disc = 2.5e-647 and its upper bound e^744 are both past float range
            ("0,5e-324", None),
        ],
    )
    def test_bounds_past_float_range(self, capsys, roots, upper):
        code, out, err = run_cli(capsys, "lemniscate", "--roots=" + roots, "--bounds")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["bounds"]["disc"] is None
        assert doc["bounds"]["lower"] is None
        if upper is None:
            assert doc["bounds"]["upper"] is None
        else:
            assert doc["bounds"]["upper"] == pytest.approx(upper, rel=1e-12)
            assert doc["radius"] <= doc["bounds"]["upper"]

    def test_bounds_of_a_repeated_root(self, capsys):
        # disc 0: no bound applies
        code, out, err = run_cli(capsys, "lemniscate", "--bounds", "--roots=1,1")
        assert (code, err) == (0, "")
        assert out == (
            '{"center_x":1,"radius":1,"boundary_point":{"re":1,"im":1},'
            '"has_interior":true,"bounds":{"disc":0,"upper":null,"lower":null}}\n'
        )

    def test_single_root_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lemniscate", "--roots", "1")
        assert code == 2
        assert "two" in err

    def test_garbage_roots_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lemniscate", "--roots", "1,spam")
        assert code == 2

    @pytest.mark.parametrize("bounds", [(), ("--bounds",)])
    @pytest.mark.parametrize(
        "roots",
        [
            "-1e308,1e308",
            "-1e308,0,1e308",
            "-1e307,1e307",
            "-1e200,1e200",
            "-6e153,0,6e153",
        ],
    )
    def test_unrepresentable_disk_rejected(self, capsys, roots, bounds):
        # squared center-root differences overflow, or the squared radius
        # underflows; a radius of 0 around a root would be wrong
        code, out, err = run_cli(capsys, "lemniscate", "--roots=" + roots, *bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("bounds", [(), ("--bounds",)])
    def test_far_roots_answer_without_warning(self, capsys, bounds):
        # x^2 - 1e200 has |f(1e100 + iy)| ~ 2e100 y, so radius 5e-101
        code, out, _ = run_cli(capsys, "lemniscate", "--roots=-1e100,1e100", *bounds)
        assert code == 0
        doc = json.loads(out)
        assert doc["has_interior"] is True
        assert doc["radius"] == pytest.approx(5e-101, rel=1e-12)


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
        assert err == (
            "error: potential v = -300.0: largest root a*d/p is past float range "
            "(log p = -898.61370563888011 is below log(a d) - 709.78)\n"
        )

    @pytest.mark.parametrize("v", ["-1e-3", "-.5e-1", "-1E+2", "-0.5"])
    def test_negative_value_as_its_own_token(self, capsys, v):
        # argparse alone reads "-1e-3" as an option name; the glued and the
        # "=" form must give the same bytes
        code, out, err = run_cli(capsys, "energy", "--a", "1", "--d", "2", "--v", v)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, "energy", "--a", "1", "--d", "2", "--v=" + v)
        assert json.loads(out)["potential_v"] == pytest.approx(float(v), rel=1e-12)

    def test_a_flag_takes_no_negative_value(self, capsys):
        # only an option that takes a value has a negative value glued on
        with pytest.raises(SystemExit) as exc:
            main(["lemniscate", "--roots=-1,1", "--bounds", "-2e-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -2e-1" in capsys.readouterr().err


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

    @pytest.mark.parametrize("roots", ["nan,1,inf", "1,1e400"])
    def test_cdf_nonfinite_roots_rejected(self, capsys, roots):
        code, out, err = run_cli(
            capsys, "emit-plot", "--what", "cdf", "--roots=" + roots, "--a", "1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: roots must be finite\n"

    @pytest.mark.parametrize("a", ["0", "-1", "nan", "inf"])
    def test_cdf_bad_height_exits_two(self, capsys, a):
        code, out, err = run_cli(
            capsys, "emit-plot", "--what", "cdf", "--roots=-1,1", "--a", a
        )
        assert (code, out) == (2, "")
        assert err == "error: height a must be positive and finite\n"

    @pytest.mark.parametrize("roots", ["-1e200,1e200", "-1e100,0,1e100"])
    def test_unrepresentable_halfwidth_rejected(self, capsys, roots):
        # squared center-root differences overflow, or the squared
        # halfwidth at a root underflows; a halfwidth of 0 there would be
        # wrong
        code, out, err = run_cli(
            capsys,
            "emit-plot", "--what", "lemniscate", "--roots=" + roots,
            "--samples", "3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_far_roots_plot_without_warning(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "emit-plot", "--what", "lemniscate", "--roots=-1e100,1e100",
            "--samples", "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx(
            [5e-101, 0.0, 5e-101], rel=1e-12
        )

    def test_bad_sample_count(self, capsys):
        for samples in ("1", "0"):
            code, out, err = run_cli(
                capsys,
                "emit-plot", "--what", "lemniscate", "--roots", "-1,1",
                "--samples", samples,
            )
            assert code == 2
            assert out == ""
            assert "--samples must be at least 2" in err


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "deep, name", [(False, "verify.txt"), (True, "verify_deep.txt")]
    )
    def test_report_matches_golden_file(self, deep, name):
        # the checked-in stdout of `verify` and `verify --deep`
        want = (DATA / name).read_text()
        assert format_report(run_suite(deep=deep)) + "\n" == want

    def test_fast_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # a witness whose edge value is off fails lemniscate-witness alone
        witness = lemniscate.inscribed_disk_poly
        monkeypatch.setattr(
            lemniscate, "inscribed_disk_poly",
            lambda d, disc: witness(d, disc)[:2] + (1.5,),
        )
        code, out, err = run_cli(capsys, "verify")
        assert (code, err) == (1, "")
        want = (DATA / "verify.txt").read_text().splitlines()
        want[15] = "FAIL lemniscate-witness: edge value 1.5 != 1 at d=2"
        want[-1] = "18/19 checks passed"
        assert out.splitlines() == want

    def test_no_tolerance_environment_variable(self, capsys, monkeypatch):
        # the suite's tolerances are fixed: no environment variable moves them
        monkeypatch.setenv("EXTREMAL_POLY_TOL", "-1")
        code, out, err = run_cli(capsys, "verify")
        assert (code, err) == (0, "")
        assert out == (DATA / "verify.txt").read_text()
