from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from capheat.cli import run


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_hemisphere_volume_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "coeffs",
                "--dim",
                "3",
                "--theta0",
                "1.5707963",
                "--base",
                "sphere",
                "--max-n",
                "1",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"][0]["cal_A"] == pytest.approx(
            0.221557, abs=5e-7
        )
        assert payload["config"]["D"] == 3
        assert payload["log_coefficient"] is None

    def test_n_max_validation_exit_code(self, capsys):
        code, out, err = invoke(
            capsys,
            ["coeffs", "--dim", "3", "--theta0", "0.8", "--max-n", "5"],
        )
        assert code == 2
        assert "n < D" in err

    def test_csv_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", "4", "--theta0", "0.9", "--max-n", "2",
             "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_over_2,script_A,cal_A"
        assert len(lines) == 4

    def test_theta0_deg(self, capsys):
        code_rad, out_rad, _ = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", str(math.pi / 4),
                     "--max-n", "0"]
        )
        code_deg, out_deg, _ = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0-deg", "45", "--max-n", "0"]
        )
        assert code_rad == code_deg == 0
        a = json.loads(out_rad)["coefficients"][0]["cal_A"]
        b = json.loads(out_deg)["coefficients"][0]["cal_A"]
        assert a == pytest.approx(b, rel=1e-12)

    def test_missing_angle(self, capsys):
        code, _, err = invoke(capsys, ["coeffs", "--dim", "3", "--max-n", "1"])
        assert code == 2
        assert "theta0" in err

    def test_angle_out_of_range(self, capsys):
        code, _, err = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", "3.5", "--max-n", "1"]
        )
        assert code == 2
        assert "theta0" in err

    def test_env_var_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("CAPHEAT_TOL", "1e-10")
        code, out, _ = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", "0.8", "--max-n", "1"]
        )
        assert code == 0
        monkeypatch.setenv("CAPHEAT_TOL", "0.5")  # outside (0, 1e-6]
        code, _, err = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", "0.8", "--max-n", "1"]
        )
        assert code == 2

    def test_user_base_file(self, capsys, tmp_path):
        base = {
            "d": 2,
            "coefficients": {"0": 1.0, "1": 0.0, "2": 0.0833333333333333},
            "residue_at_minus_half": 0.25,
        }
        path = tmp_path / "base.json"
        path.write_text(json.dumps(base), encoding="utf-8")
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", "3", "--theta0", "0.8", "--max-n", "2",
             "--base-file", str(path)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["base"]["type"] == "user"
        assert payload["log_coefficient"] == pytest.approx(0.125)

    def test_determinism(self, capsys):
        argv = ["coeffs", "--dim", "4", "--theta0", "1.1", "--max-n", "3"]
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second

    def test_json_round_trip(self, capsys):
        argv = ["coeffs", "--dim", "3", "--theta0", "0.7", "--max-n", "2"]
        _, out, _ = invoke(capsys, argv)
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_overflow_error_object(self, capsys):
        # Gamma(172) overflows a double in c1's connection formula at D=342:
        # exit 3 with the JSON error object, not a traceback.
        code, out, _ = invoke(
            capsys, ["coeffs", "--dim", "342", "--theta0", "1.2", "--max-n", "0"]
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "OverflowError"


class TestOmega:
    def test_json_contains_reference_constant(self, capsys):
        code, out, _ = invoke(capsys, ["omega", "--order", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        order_two = payload["functions"][1]
        assert order_two["i"] == 2
        j2 = next(p for p in order_two["parts"] if p["j"] == 2)
        assert j2["coefficients"]["0"] == "-1/8"

    def test_rationals_survive_round_trip(self, capsys):
        _, out, _ = invoke(capsys, ["omega", "--order", "3", "--format", "json"])
        payload = json.loads(out)
        for fn in payload["functions"]:
            for part in fn["parts"]:
                for coeff in part["coefficients"].values():
                    assert Fraction(coeff) == Fraction(str(Fraction(coeff)))

    def test_tex_format(self, capsys):
        code, out, _ = invoke(capsys, ["omega", "--order", "1", "--format", "tex"])
        assert code == 0
        assert out.startswith(r"\Omega_{1}(\nu) =")
        assert r"\frac{-5}{24} \nu^{3}" in out

    def test_order_validation(self, capsys):
        code, _, err = invoke(capsys, ["omega", "--order", "0"])
        assert code == 2


class TestRoots:
    def test_hemisphere_channel(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["roots", "--mu", "0.5", "--theta0", str(math.pi / 2),
             "--omega-max", "8.5"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["roots"] == pytest.approx([2.0, 4.0, 6.0, 8.0], abs=1e-8)

    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["roots", "--mu", "1.5", "--theta0", str(math.pi / 2),
             "--omega-max", "5.5", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega"
        assert len(lines) == 3

    def test_angle_guard_exit_code(self, capsys):
        code, _, err = invoke(
            capsys, ["roots", "--mu", "0.5", "--theta0", "2.5", "--omega-max", "5"]
        )
        assert code == 2


class TestVerify:
    def test_hemisphere_report(self, capsys, tmp_path):
        trace_csv = tmp_path / "trace.csv"
        code, out, _ = invoke(
            capsys,
            [
                "verify",
                "--dim", "3",
                "--theta0", str(math.pi / 2),
                "--max-n", "1",
                "--t-min", "0.05",
                "--t-max", "0.5",
                "--points", "16",
                "--tolerance", "1e-5",
                "--omega-max", "24",
                "--trace-csv", str(trace_csv),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        comparison = payload["comparison"]
        assert comparison[0]["n_over_2"] == 0.0
        assert comparison[0]["predicted"] == pytest.approx(
            math.sqrt(math.pi) / 8.0, rel=1e-10
        )
        assert comparison[0]["rel_error"] < 0.02
        lines = trace_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,trace,tail_bound"
        assert len(lines) == 17

    def test_numerical_error_object(self, capsys):
        # cutoff far too small for the requested times: exit 3, JSON error
        code, out, _ = invoke(
            capsys,
            [
                "verify",
                "--dim", "3",
                "--theta0", "1.0",
                "--max-n", "1",
                "--t-min", "1e-5",
                "--t-max", "1e-4",
                "--points", "12",
                "--omega-max", "10",
            ],
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["error"]["type"] == "TailTooLarge"

    def test_validation_exit(self, capsys):
        code, _, err = invoke(
            capsys,
            ["verify", "--dim", "3", "--theta0", "1.0", "--max-n", "4",
             "--t-min", "0.01", "--t-max", "0.1"],
        )
        assert code == 2
        assert "n < D" in err
