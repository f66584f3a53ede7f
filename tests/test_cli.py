from __future__ import annotations

import ast
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import capheat
from capheat import cli, heat_coeffs, legendre_asymptotics, spectral_oracle
from capheat.cli import run
from capheat.errors import StructureViolation

ROOT = Path(__file__).resolve().parents[1]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_algebra(n):
    raise AssertionError(f"cumulant order {n} computed")


def no_evaluation(*args):
    # fails fast, where a missing cutoff check would run for days
    raise AssertionError("Ferrers series evaluated")


# coeffs, omega (json and tex) and roots, then ferrers_p, heat_trace and the
# verify command, each followed by a snapshot of which of numpy and mpmath
# is loaded
IMPORT_PROBE = """
import contextlib, io, math, sys
from capheat import AngleParams, SphereBase, SuspensionConfig
from capheat.cli import run
from capheat.spectral_oracle import ferrers_p, heat_trace

def loaded():
    print(" ".join(m for m in ("numpy", "mpmath") if m in sys.modules))

with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["coeffs", "--dim", "4", "--theta0", "1.0", "--max-n", "3"],
        ["omega", "--order", "3", "--format", "json"],
        ["omega", "--order", "3", "--format", "tex"],
        ["roots", "--mu", "0.5", "--theta0", "1.0", "--omega-max", "10"],
    ):
        assert run(argv) == 0, argv
loaded()
ferrers_p(0.5, 1.0, 0.3)
loaded()
cfg = SuspensionConfig(D=3, angle=AngleParams.from_theta0(math.pi / 2),
                       base=SphereBase(2), n_max=1)
heat_trace(cfg, [0.3], omega_max=15.0)
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["verify", "--dim", "3", "--theta0", str(math.pi / 2),
                "--max-n", "1", "--t-min", "0.05", "--t-max", "0.5",
                "--points", "16", "--tolerance", "1e-5",
                "--omega-max", "24"]) == 0
loaded()
"""


# the modules a fresh process holds after one command, or after a bare
# ``import capheat`` when no command is given
MODULES_PROBE = """
import contextlib, io, sys
if sys.argv[1:]:
    from capheat.cli import run
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(sys.argv[1:]) == 0, sys.argv
else:
    import capheat
print(" ".join(sys.modules))
"""


def fresh_python(code, *args) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this checkout."""
    src = str(Path(capheat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def import_snapshots():
    return fresh_python(IMPORT_PROBE).split("\n")[:4]


def modules_after(*argv) -> set[str]:
    return set(fresh_python(MODULES_PROBE, *argv).split())


class TestImports:
    def test_commands_load_neither_numpy_nor_mpmath(self, import_snapshots):
        assert import_snapshots[0] == ""

    def test_ferrers_p_loads_neither(self, import_snapshots):
        assert import_snapshots[1] == ""

    def test_heat_trace_and_verify_load_numpy_only(self, import_snapshots):
        # the probe sees an import when one happens; no entry point of
        # capheat loads mpmath
        assert import_snapshots[2:] == ["numpy", "numpy"]

    def test_omega_loads_the_cumulant_algebra_alone(self):
        loaded = modules_after("omega", "--order", "3", "--format", "tex")
        assert "capheat.legendre_asymptotics" in loaded
        assert not loaded & {
            "dataclasses",
            "capheat.heat_coeffs",
            "capheat.special_eval",
            "capheat.spectral_oracle",
        }

    def test_coeffs_loads_no_oracle(self):
        loaded = modules_after("coeffs", "--dim", "4", "--theta0", "1.0",
                               "--max-n", "3")
        assert "capheat.heat_coeffs" in loaded
        assert "capheat.spectral_oracle" not in loaded

    def test_roots_loads_no_assembly(self):
        assembly = {
            "capheat.heat_coeffs",
            "capheat.special_eval",
            "capheat.legendre_asymptotics",
        }
        loaded = modules_after("roots", "--mu", "0.5", "--theta0", "1.0",
                               "--omega-max", "10")
        assert "capheat.spectral_oracle" in loaded
        assert not loaded & assembly
        bare = fresh_python("import sys, capheat.spectral_oracle; "
                            "print(' '.join(sys.modules))").split()
        assert {m for m in bare if m.startswith("capheat.")} == {
            "capheat.errors", "capheat.spectral_oracle",
        }

    def test_bare_import_loads_no_submodule(self):
        assert {m for m in modules_after() if m.startswith("capheat.")} == set()

    def test_dir_lists_the_api_and_loads_no_submodule(self):
        names, loaded = fresh_python(
            "import sys, capheat\n"
            "print(' '.join(dir(capheat)))\n"
            "print(' '.join(m for m in sys.modules if m.startswith('capheat.')))"
        ).split("\n")[:2]
        assert set(capheat.__all__) <= set(names.split())
        assert loaded == ""


# the public API: what the README documents, and every name bench/ imports
PUBLIC_NAMES = {
    "AngleParams", "SphereBase", "UserBase", "SuspensionConfig",
    "CoefficientTable", "compute_table", "table_to_dict", "log_coefficient",
    "omega", "c1", "gauss_2f1",
    "ferrers_p", "dirichlet_roots", "spectrum", "heat_trace", "fit_asymptotics",
    "EigenvalueChannel",
}


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


class TestNamespace:
    def test_public_names(self):
        assert sorted(capheat.__all__) == sorted(PUBLIC_NAMES)

    def test_readme_documents_every_name(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for name in capheat.__all__:
            assert f"`{name}" in readme, name

    def test_bench_imports_are_public(self):
        # read, not imported: importing bench/ would run its set-up
        for path in sorted((ROOT / "bench").glob("*.py")):
            for node in ast.walk(parsed(path)):
                if isinstance(node, ast.ImportFrom) and node.module == "capheat":
                    for alias in node.names:
                        assert alias.name in capheat.__all__, (path.name, alias.name)

    def test_only_the_package_declares_all(self):
        # the name table in __init__ is the one declaration of the API
        for path in sorted((ROOT / "src" / "capheat").glob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(parsed(path)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                for target in targets:
                    assert getattr(target, "id", None) != "__all__", path.name

    def test_names_are_their_modules_objects(self):
        for name in capheat.__all__:
            module = importlib.import_module(f"capheat.{capheat._EXPORTS[name]}")
            assert getattr(capheat, name) is getattr(module, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from capheat import *", namespace)
        for name in capheat.__all__:
            assert namespace[name] is getattr(capheat, name), name

    def test_dir_lists_the_api(self):
        # in process, beside the fresh interpreter of TestImports
        assert dir(capheat) == sorted({*vars(capheat), *capheat.__all__})

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            capheat.no_such_name

    def test_version(self):
        assert capheat.__version__ == "0.1.0"


class TestCoeffs:
    @pytest.mark.parametrize("argv,code", [
        (["coeffs", "--dim", "3", "--theta0", "1", "--max-n", "0"], 0),
        (["coeffs", "--dim", "3", "--theta0", "0", "--max-n", "0"], 2),
    ])
    def test_main_exits_with_the_run_code(self, capsys, monkeypatch, argv, code):
        # the console script: main exits with what run returns
        monkeypatch.setattr(sys, "argv", ["capheat", *argv])
        with pytest.raises(SystemExit) as caught:
            cli.main()
        assert caught.value.code == code
        capsys.readouterr()

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

    def test_conflicting_angle_flags(self, capsys):
        code, out, err = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", "1.0", "--theta0-deg",
                     "30", "--max-n", "0"]
        )
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    @pytest.mark.parametrize("base,message", [
        ("sphere", "not allowed with"),
        ("torus", "invalid choice"),
    ])
    def test_base_and_base_file_exclusive(self, capsys, tmp_path, base, message):
        # --base-file used to win silently over any --base
        path = tmp_path / "base.json"
        path.write_text('{"coefficients": {"0": 1, "1": 0, "2": 0.1}}',
                        encoding="utf-8")
        code, out, err = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", "1", "--max-n", "2",
                     "--base", base, "--base-file", str(path)]
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_angle_out_of_range(self, capsys):
        code, _, err = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", "3.5", "--max-n", "1"]
        )
        assert code == 2
        assert "theta0" in err

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

    @pytest.mark.parametrize("payload,message", [
        ('{"coefficients": [1, 2]}', '"coefficients" must be an object'),
        ("[1]", "must hold a JSON object"),
        ('{"coefficients": {"0": null}}', "coefficient 0 must be a number"),
        ('{"coefficients": {"0": 1, "1": 0, "2": 0.1}, '
         '"residue_at_minus_half": "abc"}', "residue_at_minus_half must be a number"),
        ('{"d": 2.5, "coefficients": {"0": 1, "1": 0, "2": 0.1}}',
         "d must be an integer"),
        ('{"coefficients": {"0": NaN, "1": 0, "2": 0.1}}', "must be a finite double"),
        ('{"coefficients": {"0": 1%s, "1": 0, "2": 0.1}}' % ("0" * 400),
         "lies outside the range of a double"),
        # each of these overwrote or added an index and exited 0
        ('{"coefficients": {"0": 1, "1": 0, "01": 5, "2": 0.1}}',
         "coefficient key '01' must be a nonnegative integer"),
        ('{"coefficients": {"0": 1, "1": 0, "1": 5, "2": 0.1}}', "key '1' repeated"),
        ('{"coefficients": {"0": 1, "1": 0, "2": 0.1, "-1": 5}}',
         "coefficient key '-1' must be a nonnegative integer"),
        ('{"coefficients": {"0": 1, "1": 0, "2": 0.1, " 3": 5}}',
         "coefficient key ' 3' must be a nonnegative integer"),
        ('{"d": 2, "d": 3, "coefficients": {"0": 1, "1": 0, "2": 0.1}}',
         "key 'd' repeated"),
    ])
    def test_malformed_base_file(self, capsys, tmp_path, payload, message):
        path = tmp_path / "base.json"
        path.write_text(payload, encoding="utf-8")
        code, out, err = invoke(
            capsys,
            ["coeffs", "--dim", "3", "--theta0", "1", "--max-n", "2",
             "--base-file", str(path)],
        )
        assert code == 2
        assert out == ""
        assert message in err

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

    def test_overflow_error_object(self, capsys, monkeypatch):
        # Gamma(172) overflows a double in c1's connection formula at D=342,
        # which the dimension limit now refuses; with the limit lifted the
        # overflow still exits 3 with the JSON error object, not a traceback.
        monkeypatch.setattr(heat_coeffs, "_MAX_D", 400)
        code, out, _ = invoke(
            capsys, ["coeffs", "--dim", "342", "--theta0", "1.2", "--max-n", "0"]
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "OverflowError"


    @pytest.mark.parametrize("mass", ["nan", "inf"])
    def test_non_finite_mass(self, capsys, mass):
        code, out, err = invoke(
            capsys,
            ["coeffs", "--dim", "5", "--theta0", "1", "--max-n", "4",
             "--mass", mass],
        )
        assert code == 2
        assert out == ""
        assert "mass" in err

    def test_mass_overflow_error_object(self, capsys):
        # m * m overflows to inf; no Infinity or NaN may be printed
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", "5", "--theta0", "1", "--max-n", "4",
             "--mass", "1e200"],
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "OverflowError"

    def test_underflowed_angle_error_object(self, capsys):
        # sin(1e-300)^2 underflows to 0, so sin^(n-D) overflows in f_total
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", "12", "--theta0", "1e-300", "--max-n", "11"],
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "OverflowError"

    def test_overflowed_sine_power_error_object(self, capsys):
        # sin(1e-150)^2 = 1e-300 is still a double, but sin^(D-n) at index 0
        # is 1e-1800 (and sin^(n-D) at index 2 would be 1e1500); the error
        # names the power instead of the errno text
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", "12", "--theta0", "1e-150", "--max-n", "2"],
        )
        assert code == 3
        assert json.loads(out)["error"] == {
            "type": "OverflowError",
            "message": "sin(theta0)^(D-n) underflows at theta0=1e-150, D-n=12",
        }

    def test_overflowed_weight_gamma_error_object(self, capsys, tmp_path):
        # a user base reaches weights at D - n = 287, order 12, whose
        # Gamma(A + b + j) overflows: exit 3 with a message that names them
        # (at theta0 = 1.4, where c1 is accurate and refuses nothing first)
        base = {"d": 299, "coefficients": {str(n): 0.5**n for n in range(19)}}
        path = tmp_path / "base.json"
        path.write_text(json.dumps(base), encoding="utf-8")
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", "300", "--theta0", "1.4", "--max-n", "17",
             "--base-file", str(path)],
        )
        assert code == 3
        assert json.loads(out)["error"] == {
            "type": "OverflowError",
            "message": "Gamma factors of the angular weights overflow at "
                       "D-n=287, order 12",
        }

    @pytest.mark.parametrize("dim,theta0,max_n,shown", [
        pytest.param("12", "1e-160", "1", "theta0=1e-160, D-n=12", id="dim12"),
        pytest.param("200", "1e-5", "1", "theta0=1e-05, D-n=200", id="dim200"),
        pytest.param("340", "1e-3", "17", "theta0=0.001, D-n=340", id="dim340"),
    ])
    def test_underflowed_sine_power_error_object(self, capsys, dim, theta0, max_n, shown):
        # sin(theta0)^(D-n) below the smallest normal double used to print
        # every entry as 0.0 with exit 0: no index reached f_total's checks
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", dim, "--theta0", theta0, "--max-n", max_n],
        )
        assert code == 3
        assert json.loads(out)["error"] == {
            "type": "OverflowError",
            "message": f"sin(theta0)^(D-n) underflows at {shown}",
        }

    @pytest.mark.parametrize("dim,message", [
        pytest.param("269", "a term of index n=0 underflows at theta0=1.4, "
                     "D=269", id="dim269"),
        pytest.param("340", "sphere heat coefficient of index n=0 underflows "
                     "at d=339", id="dim340"),
    ])
    def test_underflowed_entry_error_object(self, capsys, dim, message):
        # index 0 used to print as -1.5e-323 at D = 269, theta0 = 1, and
        # every entry as 0.0 at D = 340, with exit 0; the angle is 1.4,
        # where c1 is accurate (at 1.0 it refuses first, from D = 150)
        code, out, _ = invoke(
            capsys,
            ["coeffs", "--dim", dim, "--theta0", "1.4", "--max-n", "3"],
        )
        assert code == 3
        assert json.loads(out)["error"] == {
            "type": "OverflowError",
            "message": message,
        }

    def test_cancelled_c1_error_object(self, capsys):
        # index 0, a positive volume term, used to print as -3.6e-303
        code, out, _ = invoke(
            capsys, ["coeffs", "--dim", "254", "--theta0", "1.0", "--max-n", "3"]
        )
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "NumericalError"
        assert error["message"].endswith("at theta0=1.0, D-n=254: the "
                                         "connection formula cancelled")

    def test_order_limit(self, capsys, monkeypatch):
        # D = 19 with n_max = 18 needs cumulant order 17
        monkeypatch.setattr(legendre_asymptotics, "_omega", no_algebra)
        code, out, err = invoke(
            capsys,
            ["coeffs", "--dim", "19", "--theta0", "1", "--max-n", "18"],
        )
        assert code == 2
        assert out == ""
        assert "above the limit 16" in err

    def test_dimension_limit(self, capsys):
        # used to pass validation and exit 3 with a bare OverflowError
        code, out, err = invoke(
            capsys, ["coeffs", "--dim", "400", "--theta0", "1.0", "--max-n", "3"]
        )
        assert code == 2
        assert out == ""
        assert "above the limit 340" in err

    @pytest.mark.parametrize("error", [StructureViolation])
    def test_package_errors_map_to_error_object(self, capsys, monkeypatch, error):
        def fail(*args):
            raise error("injected")

        # the command imports compute_table when it runs
        monkeypatch.setattr(heat_coeffs, "compute_table", fail)
        code, out, _ = invoke(
            capsys, ["coeffs", "--dim", "3", "--theta0", "1", "--max-n", "1"]
        )
        assert code == 3
        assert json.loads(out) == {
            "error": {"type": error.__name__, "message": "injected"}
        }


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

    def test_order_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(legendre_asymptotics, "_omega", no_algebra)
        code, out, err = invoke(capsys, ["omega", "--order", "17"])
        assert code == 2
        assert out == ""
        assert "above the limit 16" in err


class TestRoots:
    def test_no_angle_flag(self, capsys):
        code, out, err = invoke(capsys, ["roots", "--mu", "0.5", "--omega-max", "5"])
        assert code == 2
        assert out == ""
        assert "--theta0 --theta0-deg is required" in err

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

    def test_csv_bytes(self, capsys):
        # one repr per line, the same doubles the JSON listing carries
        argv = ["roots", "--mu", "1.5", "--theta0", "2", "--omega-max", "12"]
        code, out, _ = invoke(capsys, [*argv, "--format", "csv"])
        assert code == 0
        assert out == (
            "omega\n"
            "2.4485820875808972\n"
            "3.9841746101674733\n"
            "5.539005764245985\n"
            "7.1007648922967075\n"
            "8.665761367173062\n"
            "10.232524117130438\n"
            "11.800354423847228\n"
        )
        _, listing, _ = invoke(capsys, argv)
        assert out == "omega\n" + "".join(
            f"{root!r}\n" for root in json.loads(listing)["roots"])

    def test_angle_guard_exit_code(self, capsys):
        code, _, err = invoke(
            capsys, ["roots", "--mu", "0.5", "--theta0", "2.5", "--omega-max", "5"]
        )
        assert code == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--mu", "nan", "mu must be finite"),
        ("--omega-max", "nan", "omega_max must be finite and positive"),
        ("--omega-max", "1e12", "above the limit 1000"),
        ("--mu", "-1", "mu must be finite and positive"),
        ("--mu", "0", "mu must be finite and positive"),
        ("--mu", "-0.5", "mu must be finite and positive"),
        ("--omega-max", "70000", "above the limit 1000"),
    ])
    def test_refused_inputs(self, capsys, monkeypatch, flag, value, message):
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor", no_evaluation)
        argv = {"--mu": "0.5", "--theta0": "1.0", "--omega-max": "5"}
        argv[flag] = value
        code, out, err = invoke(capsys, ["roots", *sum(argv.items(), ())])
        assert code == 2
        assert out == ""
        assert message in err


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

    def test_large_t_min_reaches_the_tail_bound(self, capsys):
        # the default cutoff took the square root of a negative number here
        # and exited 2 with "math domain error"
        code, out, _ = invoke(
            capsys,
            ["verify", "--dim", "12", "--theta0", "1", "--max-n", "2",
             "--t-min", "100", "--t-max", "1000"],
        )
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "TailTooLarge"
        assert "relative tail inf" in error["message"]

    def test_validation_exit(self, capsys):
        code, _, err = invoke(
            capsys,
            ["verify", "--dim", "3", "--theta0", "1.0", "--max-n", "4",
             "--t-min", "0.01", "--t-max", "0.1"],
        )
        assert code == 2
        assert "n < D" in err

    @pytest.mark.parametrize("extra,message", [
        (["--tolerance", "nan"], "tolerance must be finite and positive"),
        (["--tolerance", "nan", "--omega-max", "20"], "tolerance must be"),
        (["--tolerance", "0"], "tolerance must be finite and positive"),
        (["--t-max", "inf"], "--t-max must be finite and positive"),
        (["--t-min", "nan"], "--t-min must be finite and positive"),
        (["--t-min", "0.5", "--t-max", "0.05"], "--t-min must be below --t-max"),
        (["--points", "100000000"], "--points must lie in 1..10000"),
        # the default cutoff for t = 1e-7 is about 22,000
        (["--t-min", "1e-7", "--t-max", "1e-6"], "above the limit 1000"),
        (["--omega-max", "0"], "omega_max must be finite and positive"),
    ], ids=["tolerance-nan", "tolerance-nan-cutoff", "tolerance-0",
            "t-max-inf", "t-min-nan", "t-min-above-t-max", "points",
            "default-cutoff", "zero-cutoff"])
    def test_refused_inputs(self, capsys, monkeypatch, extra, message):
        real_geomspace = np.geomspace

        def small_geomspace(start, stop, num):
            assert num <= 1000, "time grid allocated"
            return real_geomspace(start, stop, num)

        monkeypatch.setattr(np, "geomspace", small_geomspace)
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor", no_evaluation)
        code, out, err = invoke(
            capsys,
            ["verify", "--dim", "3", "--theta0", "1", "--max-n", "1",
             "--t-min", "0.05", "--t-max", "0.5", *extra],
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_spectrum_size_refused(self, capsys, monkeypatch):
        # each channel is within the cutoff limit, but the whole spectrum
        # (about 144,000 estimated roots) would run for tens of minutes
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor", no_evaluation)
        code, out, err = invoke(
            capsys,
            ["verify", "--dim", "3", "--theta0", "1.0471975511965976",
             "--max-n", "1", "--t-min", "0.05", "--t-max", "0.5",
             "--omega-max", "1000"],
        )
        assert code == 2
        assert out == ""
        assert "above the limit 10,000" in err

    def test_max_n_above_the_fit_refused(self, capsys, monkeypatch):
        # the fit stops at index 4; --max-n 5 once built the whole spectrum
        # and then crashed reading a fifth fitted index
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor", no_evaluation)
        code, out, err = invoke(
            capsys,
            ["verify", "--dim", "8", "--theta0", "1.0", "--max-n", "5",
             "--t-min", "0.05", "--t-max", "0.6", "--omega-max", "60"],
        )
        assert code == 2
        assert out == ""
        assert "--max-n 5 is above the limit 4 of the fit" in err

    @pytest.mark.parametrize("extra,message", [
        (["--t-max", "5e-2", "--points", "5"],
         "need at least 12 samples to fit 5 coefficients, got 5"),
        (["--t-max", "1.4e-2"], "samples must span at least a decade in t"),
    ], ids=["points", "sub-decade"])
    def test_fit_request_refused_before_the_spectrum(
        self, capsys, monkeypatch, extra, message
    ):
        # the README example with a request the fit refuses: the refusal
        # once came only after the whole spectrum had been built
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor", no_evaluation)
        code, out, err = invoke(
            capsys,
            ["verify", "--dim", "3", "--theta0", "1.0471975511965976",
             "--max-n", "2", "--t-min", "1.5e-3", "--omega-max", "120", *extra],
        )
        assert code == 2
        assert out == ""
        assert message in err


# sha256 of the stdout of each CLI example in the README, in its order, and
# of the trace.csv its verify example writes
README_STDOUT_DIGESTS = (
    "dd80f7f1e50f6f56c5414666cf146244b840982e0817557ddbbddfb34308e3dc",
    "f6e480407fb75e583b291657a8ba2ff11a12094e2a0272760c359e877bd9e06e",
    "85146c676dc43bf434ecf14730a030eebbfea9f0a27b5ca651a1053d7cb656be",
    "61e71871bbb4176694bfca4e4dc7ebf47ecf72528bb9ef329d44e79eda30c327",
    "427579bb45f372df246ed1cedf2f34f37680f318dfb2be9a26653a2f027da1c1",
    "1e1b4c32872c28e63670429e6e71c18e4db0dd5ebc0a4535323f5f35f7c5f4d8",
)
README_TRACE_CSV_DIGEST = (
    "365ddefc2f66d82f23135b6515278f216bf934ffcb0009ce35718835c2d7fcd9"
)
# sha256 of its t and trace columns alone: the tail_bound column is a
# heuristic estimate whose last bits move with the tail's evaluation, the
# trace must not move at all
README_TRACE_COLUMNS_DIGEST = (
    "8d80a87cf451eace9d52933810ce45f579f2a9372481ef902f349b3d15cf7b5d"
)


def readme_cli_examples() -> list[list[str]]:
    """The argument lists of the README's CLI block, comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split("#", 1)[0].split()[1:] for line in lines if line.strip()]


def test_readme_examples_are_byte_identical(capsys, tmp_path, monkeypatch):
    # the README promises these outputs; verify writes its trace.csv into
    # the working directory, as the example says (about 1 s)
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_examples()
    assert [argv[0] for argv in examples] == [
        "coeffs", "coeffs", "omega", "omega", "roots", "verify"
    ]
    for argv, digest in zip(examples, README_STDOUT_DIGESTS):
        code, out, _ = invoke(capsys, argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    trace_csv = (tmp_path / "trace.csv").read_bytes()
    columns = b"".join(
        b",".join(line.split(b",")[:2]) + b"\n" for line in trace_csv.splitlines()
    )
    assert hashlib.sha256(columns).hexdigest() == README_TRACE_COLUMNS_DIGEST
    assert hashlib.sha256(trace_csv).hexdigest() == README_TRACE_CSV_DIGEST


@pytest.mark.parametrize("argv", [
    ["coeffs", "--dim", "3", "--max-n", "2", "--base-file", "missing.json"],
    ["verify", "--dim", "2", "--max-n", "1", "--t-min", "1e-3", "--t-max", "1e-1"],
], ids=["coeffs-missing-base-file", "verify-sphere-d1"])
def test_angle_is_named_before_the_base(capsys, tmp_path, monkeypatch, argv):
    # both the angle and the base are wrong: the angle is checked first
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, [*argv, "--theta0", "0"])
    assert (code, out) == (2, "")
    assert err == "error: theta0 must lie strictly inside (0, pi)\n"
