import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcone import (
    AtomicMeasure,
    MomentSequence,
    Polynomial,
    measure_to_dict,
    moments_from_dict,
    moments_of_measure,
    moments_to_dict,
    poly_to_dict,
)
from momentcone.cli import _table, build_parser, main, render_json

HUGE_INT = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    files = {
        "xsq": write("xsq.json", poly_to_dict(Polynomial.monomial((2,)))),
        "zero": write("zero.json", poly_to_dict(Polynomial.zero(1))),
        "one_two_x": write(
            "one_two_x.json", poly_to_dict(Polynomial(1, {(0,): 1.0, (1,): 2.0}))
        ),
        "one_minus_xsq": write(
            "one_minus_xsq.json", poly_to_dict(Polynomial(1, {(0,): 1.0, (2,): -1.0}))
        ),
        "x1": write("x1.json", poly_to_dict(Polynomial.variable(1, 0))),
        "delta_half": write(
            "delta_half.json",
            moments_to_dict(moments_of_measure(AtomicMeasure(((0.5,),), (1.0,)), 6)),
        ),
        "indefinite": write(
            "indefinite.json",
            moments_to_dict(MomentSequence(1, 2, [1.0, 0.0, -1.0])),
        ),
        "lebesgue": write(
            "lebesgue.json",
            moments_to_dict(
                MomentSequence(1, 10, [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(11)])
            ),
        ),
        "measure": write(
            "measure.json", measure_to_dict(AtomicMeasure(((0.5,),), (1.0,)))
        ),
        "broken": write("broken.json", {"unexpected": True}),
    }
    files["dir"] = tmp_path
    return files


class TestRenderJson:
    def test_floats_round_trip(self):
        payload = {"a": 0.1, "b": 1.0 / 3.0, "c": 16.0}
        parsed = json.loads(render_json(payload))
        assert parsed == payload

    def test_infinity_becomes_string(self):
        assert json.loads(render_json({"v": math.inf}))["v"] == "+inf"

    def test_deterministic(self):
        payload = {"xs": [1.5, 2.5], "flag": True, "name": "run"}
        assert render_json(payload) == render_json(payload)

    def test_scalar_and_nested_lists(self):
        payload = {
            "xs": [0.1, math.inf, -math.inf, math.nan, 2, True, None, "a"],
            "ys": [[1], {"k": []}, 3.0],
            "z": {},
        }
        assert render_json(payload) == (
            '{\n  "xs": [\n    0.10000000000000001,\n    "+inf",\n    "-inf",\n'
            '    "nan",\n    2,\n    true,\n    null,\n    "a"\n  ],\n'
            '  "ys": [\n    [\n      1\n    ],\n    {\n      "k": []\n    },\n    3\n  ],\n'
            '  "z": {}\n}\n'
        )

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot render"):
            render_json({"xs": [1.0, object()]})


class TestNormCommand:
    def test_single_term(self, workdir, capsys):
        assert main(["norm", "--f", workdir["xsq"], "--p", "1", "--r", "4"]) == 0
        assert capsys.readouterr().out.strip() == "16"

    def test_zero_polynomial(self, workdir, capsys):
        assert main(["norm", "--f", workdir["zero"], "--p", "2", "--r", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_twelve_significant_digits(self, workdir, capsys):
        assert main(["norm", "--f", workdir["one_two_x"], "--p", "2", "--r", "3"]) == 0
        assert capsys.readouterr().out.strip() == "3.60555127546"

    def test_parse_error_exit_one(self, workdir, capsys):
        assert main(["norm", "--f", workdir["broken"], "--p", "2", "--r", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_fractional_exponent_exit_one(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text('{"n": 1, "terms": [{"exp": [1.5], "coef": 2.0}]}')
        assert main(["norm", "--f", str(path), "--p", "1", "--r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_coefficient_whose_square_overflows(self, tmp_path, capsys):
        # (1e160)^2 is too large for a float, but the norm is 1e160
        path = tmp_path / "big.json"
        path.write_text(json.dumps(poly_to_dict(Polynomial.monomial((1,), 1e160))))
        assert main(["norm", "--f", str(path), "--p", "2", "--r", "1"]) == 0
        assert capsys.readouterr().out == "1e+160\n"

    @pytest.mark.parametrize("literal", ["1.9", "true"])
    def test_non_integral_dimension_exit_one(self, literal, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text('{"n": %s, "terms": [{"exp": [2], "coef": 2.0}]}' % literal)
        assert main(["norm", "--f", str(path), "--p", "1", "--r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n ")

    @pytest.mark.parametrize("literal", ['"1.5"', "true", "null"], ids=["string", "true", "null"])
    def test_coefficient_not_a_number_exit_one(self, literal, tmp_path, capsys):
        # a string, a boolean or null is not read as a number
        path = tmp_path / "poly.json"
        path.write_text('{"n": 1, "terms": [{"exp": [2], "coef": %s}]}' % literal)
        assert main(["norm", "--f", str(path), "--p", "1", "--r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coef ")
        assert captured.err.rstrip().endswith("is not a number")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": None, "terms": []}, "n None is not an integer"),
            ({"n": 1, "terms": [{"exp": [None], "coef": 1.0}]}, "exponent None is not an integer"),
            ({"n": 1, "terms": [{"exp": [[1]], "coef": 1.0}]}, "exponent [1] is not an integer"),
            ({"n": "x", "terms": []}, "n 'x' is not an integer"),
        ],
        ids=["null-dimension", "null-exponent", "list-exponent", "string-dimension"],
    )
    def test_integer_field_not_a_number_exit_one(self, data, message, tmp_path, capsys):
        # the value is rejected before int() reads it, so the error names the field
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(data))
        assert main(["norm", "--f", str(path), "--p", "1", "--r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_terms_not_a_list_exit_one(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text('{"n": 1, "terms": {"exp": [2], "coef": 1.0}}')
        assert main(["norm", "--f", str(path), "--p", "1", "--r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: terms must be a list")

    @pytest.mark.parametrize(
        "terms",
        [[1], [{"exp": [2]}], [{"coef": 1.0}], [{"exp": 1, "coef": 1.0}]],
        ids=["entry-not-an-object", "no-coef", "no-exp", "exp-not-a-list"],
    )
    def test_term_of_the_wrong_shape_exit_one(self, terms, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"n": 1, "terms": terms}))
        assert main(["norm", "--f", str(path), "--p", "1", "--r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'error: terms must be a list of {"exp": [...], "coef": number}\n'


class TestEvalContCommand:
    def test_continuous_point(self, workdir, capsys):
        assert main(["eval-cont", "--x", "0.9", "--p", "2", "--r", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("continuous")
        assert "2.29415733871" in out

    def test_boundary_divergence(self, capsys):
        assert main(["eval-cont", "--x", "1", "--p", "2", "--r", "1"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("not continuous")
        assert "+inf" in out

    def test_weighted_closed_box(self, capsys):
        assert main(["eval-cont", "--x", "2", "--p", "1", "--r", "4"]) == 0

    def test_tiny_weight_whose_dual_power_overflows(self, capsys):
        # r^(-q/p) = 1e600 is too large for a float; the halfwidth r^(1/p) is 1e-200
        assert main(["eval-cont", "--x", "0", "--p", "1.5", "--r", "1e-300"]) == 0
        assert capsys.readouterr().out == "continuous, dual_norm=1\n"

    @pytest.mark.parametrize(
        "argv",
        [["--x", "1e200", "--p", "2", "--r", "1"], ["--x=-1e200,0.5", "--p", "3/2", "--r", "1,1"]],
    )
    def test_overflowing_power_is_a_verdict(self, argv, capsys):
        assert main(["eval-cont", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "not continuous, dual_norm=+inf\n"
        assert captured.err == ""


class TestPsdCheckCommand:
    def test_pass(self, workdir, capsys):
        assert main(["psd-check", "--moments", workdir["delta_half"], "--d", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    @pytest.mark.parametrize(
        "literal", ["NaN", "-Infinity", "1e999", pytest.param(HUGE_INT, id="400-digits")]
    )
    def test_non_finite_moment_exit_one(self, literal, tmp_path, capsys):
        path = tmp_path / "moments.json"
        path.write_text(
            '{"n": 1, "max_degree": 2, "values": [{"exp": [0], "s": 1.0}, '
            f'{{"exp": [1], "s": {literal}}}, {{"exp": [2], "s": 1.0}}]}}'
        )
        assert main(["psd-check", "--moments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert ("too large" if literal == HUGE_INT else literal) in captured.err

    @pytest.mark.parametrize(
        "exponents",
        [
            pytest.param([[0], [2]], id="hole"),
            pytest.param([[0], [1], [3]], id="above-max-degree"),
            pytest.param([[0], [1], [0, 2]], id="wrong-length"),
            pytest.param([[0], [1], [-1]], id="negative"),
            pytest.param([[0], [1.5], [2]], id="fractional"),
            pytest.param([[0], [True], [2]], id="boolean"),
            pytest.param([[0], [1], [1]], id="duplicate"),
        ],
    )
    def test_bad_moment_file_exit_one(self, exponents, tmp_path, capsys):
        data = {"n": 1, "max_degree": 2, "values": [{"exp": e, "s": 1.0} for e in exponents]}
        with pytest.raises(ValueError):
            moments_from_dict(data)
        path = tmp_path / "moments.json"
        path.write_text(json.dumps(data))
        assert main(["psd-check", "--moments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("literal", ['"2"', "false", "null"], ids=["string", "false", "null"])
    def test_moment_value_not_a_number_exit_one(self, literal, tmp_path, capsys):
        path = tmp_path / "moments.json"
        path.write_text(
            '{"n": 1, "max_degree": 2, "values": [{"exp": [0], "s": 1.0}, '
            f'{{"exp": [1], "s": 0.0}}, {{"exp": [2], "s": {literal}}}]}}'
        )
        assert main(["psd-check", "--moments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: moment value ")
        assert captured.err.rstrip().endswith("is not a number")

    @pytest.mark.parametrize(
        "values",
        [{"exp": [0], "s": 1.0}, [1, 2], 5, [{"exp": 0, "s": 1.0}], [{"exp": [0]}]],
        ids=["object", "entries-not-objects", "number", "exp-not-a-list", "no-s"],
    )
    def test_entry_of_the_wrong_shape_exit_one(self, values, tmp_path, capsys):
        # the shape is checked before any exponent or value is read
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"n": 1, "max_degree": 0, "values": values}))
        assert main(["psd-check", "--moments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'error: values must be a list of {"exp": [...], "s": number}\n'

    def test_fractional_max_degree_exit_one(self, tmp_path, capsys):
        path = tmp_path / "moments.json"
        path.write_text(
            '{"n": 1, "max_degree": 2.5, "values": [{"exp": [0], "s": 1.0}, '
            '{"exp": [1], "s": 0.0}, {"exp": [2], "s": 1.0}]}'
        )
        assert main(["psd-check", "--moments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: max_degree 2.5")

    def test_null_max_degree_exit_one(self, tmp_path, capsys):
        path = tmp_path / "moments.json"
        path.write_text('{"n": 1, "max_degree": null, "values": [{"exp": [0], "s": 1.0}]}')
        assert main(["psd-check", "--moments", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_degree None is not an integer\n"

    def test_one_eigensolve(self, workdir, capsys, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert main(["psd-check", "--moments", workdir["delta_half"], "--d", "3"]) == 0
        assert len(calls) == 1

    def test_fail_exit_two(self, workdir, capsys):
        assert main(["psd-check", "--moments", workdir["indefinite"], "--d", "1"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)


class TestQmCheckCommand:
    def test_box_generator_report(self, workdir, capsys):
        code = main(
            [
                "qm-check",
                "--moments",
                workdir["lebesgue"],
                "--g",
                workdir["one_minus_xsq"],
                "--N",
                "1",
                "--d",
                "1",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        eigs = [entry["min_eigenvalue"] for entry in report["generators"]]
        assert eigs == pytest.approx([2.0 / 3.0, 4.0 / 15.0, 4.0 / 15.0], rel=1e-12)
        assert report["pass"] is True

    def test_generators_do_not_leak_between_calls(self, workdir, capsys):
        # main reuses one parser, so the --g list must start empty on every call
        base = ["qm-check", "--moments", workdir["lebesgue"], "--N", "1", "--d", "1"]
        twice = ["--g", workdir["one_minus_xsq"], "--g", workdir["xsq"]]
        labels = []
        for extra in (twice, ["--g", workdir["xsq"]]):
            assert main(base + extra) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["pass"] is True
            labels.append([entry["label"] for entry in report["generators"]])
        # g0 is the unit, the last label the ball generator N - sum X_i^2
        assert labels == [["g0", "g1", "g2", "g3"], ["g0", "g1", "g2"]]


class TestSqrtApproxCommand:
    def test_error_table(self, workdir, capsys):
        assert main(["sqrt-approx", "--f", workdir["x1"], "--i", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"][-1]["max_coefficient_error"] == pytest.approx(0.1, abs=1e-12)
        assert len(report["h"]["terms"]) == 11

    def test_negative_constant_exit_two(self, workdir, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(poly_to_dict(Polynomial.constant(1, -1.0))))
        assert main(["sqrt-approx", "--f", str(path), "--i", "3"]) == 2

    def test_overflowing_coefficients_exit_one(self, workdir, capsys):
        # h_200 of 1/200 + X has coefficients beyond the float range
        assert main(["sqrt-approx", "--f", workdir["x1"], "--i", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "not finite" in captured.err

    def test_unallocatable_report_exits_one(self, tmp_path):
        # h_1000000 in three variables has about 1.7e17 coefficients (1.16 EiB),
        # which numpy refuses at once; the run must end with an error line, not
        # a traceback, and within the timeout: nothing may enumerate that
        # simplex before the allocation fails
        path = tmp_path / "f3.json"
        terms = {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (0, 1, 1): -0.25}
        path.write_text(json.dumps(poly_to_dict(Polynomial(3, terms))))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["-m", "momentcone.cli", "sqrt-approx", "--f", str(path), "--i", "1000000"]
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: Unable to allocate")
        assert done.stderr.count("\n") == 1  # one line, no traceback

    def test_unallocatable_report_fails_before_the_stack(self, tmp_path):
        # h_1000000 is refused before the 1000000 x 10 stack of the h_i below
        # it is tiled (about 90 MB), so the traced peak stays small.  numpy
        # counts the refused request in tracemalloc though nothing was
        # allocated, so its 8 bytes per coefficient come off the peak.
        path = tmp_path / "f3.json"
        terms = {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (0, 1, 1): -0.25}
        path.write_text(json.dumps(poly_to_dict(Polynomial(3, terms))))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import tracemalloc\n"
            "from momentcone.cli import main\n"
            "from momentcone.polyring import simplex_size\n"
            "tracemalloc.start()\n"
            f"code = main(['sqrt-approx', '--f', {str(path)!r}, '--i', '1000000'])\n"
            "print(code, tracemalloc.get_traced_memory()[1] - 8 * simplex_size(3, 10**6))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        exit_code, peak = done.stdout.split()
        assert exit_code == "1"
        assert done.stderr.startswith("error: Unable to allocate 1.16 EiB")
        assert int(peak) < 1e6


class TestSosApproxCommand:
    def test_certified_run(self, workdir, capsys):
        code = main(
            [
                "sos-approx",
                "--f",
                workdir["one_minus_xsq"],
                "--p",
                "1",
                "--r",
                "1",
                "--eps",
                "1",
                "--dmax",
                "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["D"] == 2
        assert report["distance"] == pytest.approx(2.5, abs=1e-9)
        assert report["gram_mineig"] >= -1e-8

    def test_eps_zero_inconclusive(self, workdir, capsys):
        code = main(
            [
                "sos-approx",
                "--f",
                workdir["one_minus_xsq"],
                "--p",
                "1",
                "--r",
                "1",
                "--eps",
                "0",
                "--dmax",
                "2",
                "--max-iters",
                "500",
            ]
        )
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["reason"] == "inconclusive"

    def test_empty_interior_square_certifies(self, tmp_path, capsys):
        # (X1^3 - X2)^2 has no Gram matrix in the interior of the PSD cone;
        # pruning leaves the basis {X2, X1^3}, where the search ends at once
        path = tmp_path / "square.json"
        f = Polynomial(2, {(6, 0): 1.0, (3, 1): -2.0, (0, 2): 1.0})
        path.write_text(json.dumps(poly_to_dict(f)))
        argv = ["sos-approx", "--f", str(path), "--p", "1", "--r", "1,1", "--eps", "0",
                "--dmax", "2", "--max-iters", "200"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["residual"] <= 1e-8

    def test_repeated_calls_byte_identical(self, workdir, capsys):
        argv = ["sos-approx", "--f", workdir["one_minus_xsq"], "--p", "2", "--r", "1",
                "--eps", "0.2", "--dmax", "3"]
        outputs = []
        for _ in range(3):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_overflowing_gram_search_exit_one(self, workdir, capsys):
        argv = ["sos-approx", "--f", workdir["xsq"], "--p", "1", "--r", "1", "--eps", "1e308",
                "--dmax", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficients too large for the Gram search\n"

    def test_overflowing_box_screen_exit_one(self, tmp_path, capsys):
        # on [-1e200, 1e200] x [-1, 1] the X1^2 coefficient scales to 1e400
        path = tmp_path / "bowl.json"
        path.write_text(json.dumps(poly_to_dict(Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0}))))
        argv = ["sos-approx", "--f", str(path), "--p", "1", "--r", "1e200,1", "--eps", "0.5",
                "--dmax", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficients too large for the box screen\n"

    def test_overflowing_interval_screen_exit_one(self, tmp_path, capsys):
        # the 1-D screen's derivative 2e308 X overflows on [-1, 1]: an error
        # line, and no numpy warning on the way
        path = tmp_path / "huge.json"
        terms = [{"exp": [0], "coef": 1e308}, {"exp": [2], "coef": 1e308}]
        path.write_text(json.dumps({"n": 1, "terms": terms}))
        argv = ["sos-approx", "--f", str(path), "--p", "2", "--r", "1", "--eps", "0.1",
                "--dmax", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficients too large for the box screen\n"

    def test_seed_flag_is_gone(self, workdir, capsys):
        argv = ["sos-approx", "--f", workdir["one_minus_xsq"], "--p", "1", "--r", "1",
                "--eps", "1", "--dmax", "2", "--seed", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_overflowing_rescale_exit_one(self, workdir, capsys):
        # the factors map back to a box of halfwidth 1e-300: (1e300)^2 overflows
        argv = ["sos-approx", "--f", workdir["one_minus_xsq"], "--p", "1", "--r", "1e-300",
                "--eps", "0.5", "--dmax", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficient -inf at (2,) is not finite\n"


class TestRecoverMeasureCommand:
    def test_success(self, workdir, capsys):
        code = main(
            [
                "recover-measure",
                "--moments",
                workdir["delta_half"],
                "--p",
                "2",
                "--r",
                "1",
                "--grid",
                "101",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["residual"] <= 1e-6
        assert report["box"] == {"lower": [-1.0], "upper": [1.0]}

    def test_failure_exit_two(self, workdir, capsys):
        code = main(
            [
                "recover-measure",
                "--moments",
                workdir["indefinite"],
                "--p",
                "1",
                "--r",
                "1",
                "--grid",
                "51",
            ]
        )
        assert code == 2


    def test_flat_moments_report_flat_method(self, workdir, capsys):
        argv = ["recover-measure", "--moments", workdir["delta_half"], "--p", "2", "--r", "1"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "flat"
        assert report["iterations"] == 0
        assert report["atoms"] == [[pytest.approx(0.5, abs=1e-15)]]

    def test_point_mass_outside_box_falls_through_to_grid(self, tmp_path, capsys):
        # flat moments of a point mass at 2, against the box [-1, 1] of r = 1
        s = moments_of_measure(AtomicMeasure(((2.0,),), (1.3,)), 6)
        path = tmp_path / "delta_two.json"
        path.write_text(json.dumps(moments_to_dict(s)))
        argv = ["recover-measure", "--moments", str(path), "--p", "1", "--r", "1", "--grid", "41"]
        assert main(argv) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is False
        assert report["method"] == "grid"
        assert all(abs(x) <= 1.0 for atom in report["atoms"] for x in atom)


class TestPipelineCommand:
    def test_full_chain_passes(self, workdir, capsys):
        code = main(
            ["pipeline", "--moments", workdir["delta_half"], "--p", "2", "--r", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"]["pass"] is True
        assert report["psd"]["pass"] is True
        assert report["recovery"]["pass"] is True
        assert report["pass"] is True

    def test_indefinite_fails_psd_and_recovery(self, workdir, capsys):
        code = main(
            ["pipeline", "--moments", workdir["indefinite"], "--p", "2", "--r", "1"]
        )
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["psd"]["pass"] is False
        assert report["recovery"]["pass"] is False

    def test_unbounded_hypothesis_flagged(self, workdir, capsys, tmp_path):
        s = moments_of_measure(AtomicMeasure(((2.0,),), (1.0,)), 6)
        path = tmp_path / "delta_two.json"
        path.write_text(json.dumps(moments_to_dict(s)))
        code = main(["pipeline", "--moments", str(path), "--p", "1", "--r", "1"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"]["growing"] is True
        assert report["hypothesis"]["pass"] is False
        assert report["recovery"]["pass"] is False
        assert report["recovery"]["method"] == "grid"


    def test_blocks_match_psd_check_and_recover_measure(self, workdir, capsys):
        weight = ["--p", "2", "--r", "1", "--grid", "41", "--tol", "1e-7"]
        assert main(["pipeline", "--moments", workdir["delta_half"], *weight]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["psd-check", "--moments", workdir["delta_half"]]) == 0
        psd = json.loads(capsys.readouterr().out)
        assert main(["recover-measure", "--moments", workdir["delta_half"], *weight]) == 0
        recovery = json.loads(capsys.readouterr().out)
        assert report["psd"] == {k: psd[k] for k in ("d", "min_eigenvalue", "pass")}
        assert report["recovery"] == {
            **{k: recovery[k] for k in ("method", "atoms", "weights", "residual", "box")},
            "pass": recovery["success"],
        }

    def test_underflowing_dual_norm_term_is_finite(self, tmp_path, capsys):
        s = MomentSequence(1, 2, [1.0, 0.0, 1e-170])
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(moments_to_dict(s)))
        main(["pipeline", "--moments", str(path), "--p", "2", "--r", "1e-160"])
        hypothesis = json.loads(capsys.readouterr().out)["hypothesis"]
        assert hypothesis["dual_norm"] == 1.0
        assert hypothesis["by_degree"] == [1.0, 1.0, 1.0]


class TestMomentsCommand:
    def test_moments_of_point_mass(self, workdir, capsys):
        assert main(["moments", "--measure", workdir["measure"], "--degree", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        values = {tuple(e["exp"]): e["s"] for e in report["values"]}
        assert values[(0,)] == 1.0
        assert values[(3,)] == pytest.approx(0.125)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"atoms": [[0.5]], "weights": [True]}, "error: weight True is not a number"),
            ({"atoms": [["0.5"]], "weights": [1.0]},
             "error: atom coordinate '0.5' is not a number"),
            ({"atoms": [[None]], "weights": [1.0]}, "error: atom coordinate None is not a number"),
            ({"atoms": [0.5], "weights": [1.0]}, "error: each atom must be a list of coordinates"),
            ({"atoms": [[0.5]], "weights": 1.0}, "error: atoms and weights must be lists"),
        ],
        ids=["boolean-weight", "string-coordinate", "null-coordinate", "bare-atom", "bare-weight"],
    )
    def test_bad_measure_file_exit_one(self, data, message, tmp_path, capsys):
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(data))
        assert main(["moments", "--measure", str(path), "--degree", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["psd-check"],
            ["psd-check", "--moments", "m.json", "--d", "x"],
            ["norm", "--f", "f.json", "--p", "1", "--r", "1", "--bogus", "3"],
        ],
        ids=["missing-moments", "bad-int", "unknown-flag"],
    )
    def test_usage_error_exit_one(self, argv, capsys):
        # exit code 2 means that a check failed, so a usage error must not use it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["psd-check", "--help"]])
    def test_version_and_help_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestDeterminism:
    def test_byte_identical_reports(self, workdir, capsys):
        args = ["pipeline", "--moments", workdir["delta_half"], "--p", "2", "--r", "1"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_output_file(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "psd-check",
                "--moments",
                workdir["delta_half"],
                "--d",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["psd-check", "--moments", "delta_half", "--tol", "nan"],
        ["psd-check", "--moments", "delta_half", "--tol", "inf"],
        ["qm-check", "--moments", "delta_half", "--N", "2", "--d", "1", "--tol", "nan"],
        ["sos-approx", "--f", "xsq", "--p", "1", "--r", "1", "--eps", "0.1", "--dmax", "2",
         "--tol", "nan"],
        ["sos-approx", "--f", "xsq", "--p", "1", "--r", "1", "--eps", "0.1", "--dmax", "2",
         "--max-iters", "-5"],
        ["recover-measure", "--moments", "delta_half", "--p", "2", "--r", "1", "--tol", "nan"],
        ["recover-measure", "--moments", "delta_half", "--p", "2", "--r", "1", "--tol", "inf"],
        ["eval-cont", "--p", "2", "--r", "1", "--x", "nan"],
        ["recover-measure", "--moments", "delta_half", "--p", "2", "--r", "1", "--tol", "0"],
        ["recover-measure", "--moments", "delta_half", "--p", "2", "--r", "1", "--tol", "-1"],
        ["recover-measure", "--moments", "delta_half", "--p", "2", "--r", "1", "--grid", "1"],
        ["pipeline", "--moments", "delta_half", "--p", "2", "--r", "1", "--tol", "nan"],
        ["pipeline", "--moments", "delta_half", "--p", "2", "--r", "1", "--tol", "0"],
        ["pipeline", "--moments", "delta_half", "--p", "2", "--r", "1", "--tol", "-1"],
        ["pipeline", "--moments", "delta_half", "--p", "2", "--r", "1", "--grid", "1"],
        ["sos-approx", "--f", "one_minus_xsq", "--p", "1", "--r", "2", "--dmax", "2",
         "--eps", "nan"],
        ["sos-approx", "--f", "one_minus_xsq", "--p", "1", "--r", "2", "--dmax", "2",
         "--eps", "inf"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_bad_numeric_flag_exit_one(argv, workdir, capsys):
    argv = [workdir.get(a, a) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["norm", "--f", "xsq", "--p", "abc", "--r", "1"],
         "--p must be a number or inf, got 'abc'"),
        (["norm", "--f", "xsq", "--p", "nan", "--r", "1"],
         "--p must be a number or inf, got 'nan'"),
        (["norm", "--f", "xsq", "--p", "1", "--r", "1,,2"],
         "--r must be comma-separated numbers, got '1,,2'"),
        (["eval-cont", "--p", "2", "--r", "1", "--x="],
         "--x must be comma-separated numbers, got ''"),
        (["eval-cont", "--p", "2", "--r", "1", "--x", "nan"], "--x must be finite, got 'nan'"),
        (["qm-check", "--moments", "delta_half", "--N", "nan", "--d", "1"],
         "--N must be finite, got nan"),
        (["qm-check", "--moments", "delta_half", "--N", "inf", "--d", "1"],
         "--N must be finite, got inf"),
    ],
    ids=["p-abc", "p-nan", "r-empty-part", "x-empty", "x-nan", "N-nan", "N-inf"],
)
def test_bad_numeric_flag_names_it(argv, message, workdir, capsys):
    argv = [workdir.get(a, a) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _render_json_oracle(obj) -> str:
    """The recursive renderer render_json replaced: every dict and list joins
    its own string.  Kept as the reference for the one-list renderer."""

    def scalar(value) -> str:
        if isinstance(value, float):
            text = format(value, ".17g")
            return {"inf": '"+inf"', "-inf": '"-inf"', "nan": '"nan"'}.get(text, text)
        if isinstance(value, bool) or value is None:
            return json.dumps(value)
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return json.dumps(value)
        raise TypeError(f"cannot render {type(value)!r}")

    def emit(value, indent: int) -> str:
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = "  " * (indent + 1)
            body = ",\n".join(
                f"{inner}{json.dumps(str(k))}: {emit(v, indent + 1)}" for k, v in value.items()
            )
            return "{\n" + body + "\n" + "  " * indent + "}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = "  " * (indent + 1)
            try:
                items = [scalar(v) for v in value]
            except TypeError:
                items = [emit(v, indent + 1) for v in value]
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + "  " * indent + "]"
        return scalar(value)

    return emit(obj, 0) + "\n"


def _rendered(render, payload):
    try:
        return render(payload)
    except TypeError as exc:
        return f"TypeError: {exc}"


_JSON_LEAVES = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals among them
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII included
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),  # not renderable: both must raise
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAYLOADS)
def test_render_json_matches_recursive_oracle(payload):
    assert _rendered(render_json, payload) == _rendered(_render_json_oracle, payload)


_INTS = st.integers(-(2**200), 2**200)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals among them
_SPECIALS = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324])


def _cell_lists(cells, width: int):
    return st.lists(cells, min_size=width, max_size=width)


# one strategy per column kind, given the list width: the kinds a table takes,
# then kinds that send the whole list item by item
_COLUMNS = [
    lambda w: _INTS,
    lambda w: _FINITE,
    lambda w: _cell_lists(_INTS, w),  # width 0: an empty list
    lambda w: _cell_lists(_FINITE, w),
    lambda w: _FINITE | _SPECIALS,  # inf and nan render as strings
    lambda w: _cell_lists(_INTS | st.booleans(), w),  # a bool among the ints
    lambda w: _cell_lists(_INTS, w) | _cell_lists(_INTS, w + 1),  # ragged
    lambda w: _INTS | _FINITE,  # ints and floats in one column
    lambda w: st.floats().map(np.float64),  # renders as a float
    lambda w: st.integers(-(2**63), 2**63 - 1).map(np.int64),  # both renderers raise
    lambda w: st.booleans(),
    lambda w: st.text(),
    lambda w: st.none(),
    lambda w: st.dictionaries(st.text(max_size=2), _INTS, max_size=2),  # nested
]


@st.composite
def _dict_lists(draw):
    """A list of dicts with one set of keys and one kind per column, which
    render_json writes from one row text, or one broken by a column kind, a
    missing key or a reordered row, nested a few levels deep."""
    n_rows = draw(st.integers(1, 5))
    width = draw(st.integers(0, 3))
    keys = draw(st.lists(st.text(max_size=3), max_size=4, unique=True))  # "%" and non-ASCII
    kind = st.integers(0, 3) | st.integers(0, len(_COLUMNS) - 1)  # half of them table kinds
    kinds = draw(st.lists(kind, min_size=len(keys), max_size=len(keys)))
    columns = [
        draw(st.lists(_COLUMNS[kind](width), min_size=n_rows, max_size=n_rows))
        for kind in kinds
    ]
    rows = [dict(zip(keys, cells)) for cells in zip(*columns)] or [{} for _ in range(n_rows)]
    broken = draw(st.sampled_from([None, None, "missing", "reordered"]))
    if broken and keys:
        row = draw(st.integers(0, n_rows - 1))
        if broken == "missing":
            del rows[row][draw(st.sampled_from(keys))]
        else:
            rows[row] = dict(reversed(rows[row].items()))
    payload = rows
    for wrap in draw(st.lists(st.sampled_from(["dict", "list", "tuple"]), max_size=2)):
        payload = {"k": payload} if wrap == "dict" else [payload] if wrap == "list" else (payload,)
    return payload


@settings(max_examples=300, deadline=None)
@given(_dict_lists())
def test_render_json_tables_match_recursive_oracle(payload):
    assert _rendered(render_json, payload) == _rendered(_render_json_oracle, payload)


@pytest.mark.parametrize(
    "rows, table",
    [
        (moments_to_dict(moments_of_measure(AtomicMeasure(((0.5, -0.25),), (1.0,)), 3))["values"],
         True),
        (poly_to_dict(Polynomial(2, {(0, 0): 1.0, (2, 1): -0.5}))["terms"], True),
        ([{"i": 1, "max_coefficient_error": 0.5}, {"i": 2, "max_coefficient_error": 1e-300}],
         True),
        ([{"exp": [1], "s": 2**70}, {"exp": [2], "s": -3}], True),
        ([{"%d": 1, "\u00e9%s": [0.5]}, {"%d": -2, "\u00e9%s": [-0.0]}], True),  # % in keys
        ([{"s": 1.0}, {"s": math.inf}], False),
        ([{"s": 1.0}, {"s": 1}], False),
        ([{"s": 1}, {"s": True}], False),
        ([{"s": 1.0}, {"s": np.float64(2.0)}], False),
        ([{"exp": [1]}, {"exp": [1, 2]}], False),
        ([{"exp": []}, {"exp": []}], False),
        ([{"a": 1, "b": 2}, {"b": 2, "a": 1}], False),
        ([{"a": 1, "b": 2}, {"a": 1}], False),
        ([{"label": "g1", "pass": True}], False),
        ([{}], False),
    ],
)
def test_table_path_taken_only_by_like_rows(rows, table):
    # the lists the CLI prints take the one-template path; anything else is
    # rendered item by item, and both give the oracle's bytes
    assert (_table(rows, "  ") is not None) == table
    assert render_json({"rows": rows}) == _render_json_oracle({"rows": rows})


# argvs that build_parser().parse_args must see: no subcommand first, an
# argument the subcommand leaves unconsumed, or one the top level rejects
_TREE_ARGVS = [
    [],
    [""],
    ["bogus"],
    ["nor"],
    ["NORM"],
    ["--version"],
    ["--version", "norm"],
    ["--help"],
    ["-h", "norm"],
    ["norm", "--f", "f.json", "--p", "1", "--r", "1", "--", "x"],
    ["norm", "--f", "f.json", "--p", "1", "--r", "1", "--bogus", "3"],
    ["norm", "--f", "f.json", "--p", "1", "--r", "1", "extra"],
    ["norm", "--f", "f.json", "--p", "1", "--r", "1", "--version"],
    ["norm", "--=x"],
]
# argvs whose subcommand parser exits on its own: help or a usage error
_SUBCOMMAND_EXITS = [
    ["norm"],
    ["norm", "--", "x"],
    ["norm", "--help"],
    ["norm", "--f"],
    ["norm", "--f", "f.json", "--p", "1", "--r", "1", "--out"],
    ["psd-check", "--moments", "m.json", "--d", "x"],
    ["eval-cont", "--x", "-0.5"],
    ["qm-check", "--moments", "m.json", "--N", "1", "--d", "1", "--g"],
    ["sos-approx", "--f", "f.json", "--p", "1", "--r", "1", "--eps", "0.1", "--dmax", "2",
     "--max-iters", "x"],
]
# one valid argv per subcommand, with abbreviations, "=" forms and a negative number
_VALID_ARGVS = [
    ["norm", "--f=f.json", "--p", "1", "--r", "1,2"],
    ["eval-cont", "--x", "-0.5", "--p", "2", "--r", "1"],
    ["psd-check", "--moments", "m.json", "--d", "2", "--tol", "1e-9"],
    ["qm-check", "--moments", "m.json", "--g", "a.json", "--g", "b.json", "--N", "1", "--d", "1"],
    ["sqrt-approx", "--f", "f.json", "--i", "3", "--out", "o.txt"],
    ["sos-approx", "--f", "f.json", "--p", "1", "--r", "1", "--eps", "0.1", "--dmax", "2",
     "--max-it", "3"],
    ["recover-measure", "--moments", "m.json", "--p", "inf", "--r", "1", "--grid=11"],
    ["pipeline", "--moments", "m.json", "--p", "2", "--r", "1", "--d", "1"],
    ["moments", "--measure", "mu.json", "--degree", "4", "--o", "o.txt"],
]


def _outcome(call, capsys):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, through_tree",
    [(argv, True) for argv in _TREE_ARGVS] + [(argv, False) for argv in _SUBCOMMAND_EXITS],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_usage_output_matches_the_whole_tree(argv, through_tree, capsys, monkeypatch):
    parser = build_parser()
    expected = _outcome(lambda: parser.parse_args(argv), capsys)
    seen = []

    def spy(args):
        seen.append(list(args))
        return type(parser).parse_args(parser, args)

    monkeypatch.setattr(parser, "parse_args", spy)
    assert _outcome(lambda: main(argv), capsys) == expected
    assert expected[0] in (0, 1)
    assert seen == ([argv] if through_tree else [])


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=lambda argv: argv[0])
def test_subcommand_receives_the_whole_tree_namespace(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    command = parser.commands[argv[0]]
    received = []

    def run(args):
        received.append(vars(args))
        return "", True

    original = command.get_default("func")
    command.set_defaults(func=run)
    try:
        expected = vars(parser.parse_args(argv))
        monkeypatch.setattr(parser, "parse_args", None)  # main must not need the top level
        assert main(argv) == 0
    finally:
        command.set_defaults(func=original)
    assert received[0].pop("command") == expected.pop("command") == argv[0]
    assert received == [expected]


def test_cli_import_leaves_scipy_optimize_unloaded(workdir):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # scipy is a test-only dependency: with every scipy import failing, the CLI
    # still recovers a measure (the NNLS solve), certifies after a box screen
    # and refutes a polynomial that is negative on the box
    code = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(name + ' is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "import momentcone.cli\n"
        "print('scipy' in sys.modules)\n"
        "poly, moments = sys.argv[1:]\n"
        "jobs = [\n"
        "    ['recover-measure', '--moments', moments, '--p', '1', '--r', '1'],\n"
        "    ['sos-approx', '--f', poly, '--p', '1', '--r', '1', '--eps', '1', '--dmax', '2'],\n"
        "    ['sos-approx', '--f', poly, '--p', '1', '--r', '2', '--eps', '1', '--dmax', '2'],\n"
        "]\n"
        "print(*[momentcone.cli.main(argv) for argv in jobs])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, workdir["one_minus_xsq"], workdir["delta_half"]],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 0 2"
