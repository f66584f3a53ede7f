"""Independent references for the benchmark's correctness gates.

The assembly reference re-evaluates, in 60-digit mpmath, the formulas that
the docstrings of ``c1``..``c4`` and ``assemble_script_A`` state, from the
exact rational cumulant structures (``omega_structures``) and the public
base coefficients.  No double-precision evaluation code of the package is
shared with it.

Run as a script from the repository root to (re)record every reference file
under ``bench/data``:

    python3 bench/reference.py

That records, besides the assembly reference, the verify-cap roots and the
sha256 of each cli-readme command's stdout as the current program produces
them, so it must be run on the commit the gates are meant to pin.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from mpmath import mp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
ASSEMBLY_FILE = DATA / "assembly_reference.json"
ROOTS_FILE = DATA / "verify_roots.json"
CLI_FILE = DATA / "cli_sha256.json"

DIGITS = 60
# Relative tolerance of the assembly gate: the accuracy ROADMAP item 2 sets
# for certified weights, and far below the 1e-6 perturbation it must catch.
ENTRY_RTOL = 1e-10

DIMS = range(3, 13)
THETAS = {"1e-3": 1e-3, "1e-2": 1e-2, "0.1": 0.1, "1": 1.0, "2": 2.0, "3": 3.0, "3.1": 3.1}
MASSES = (0.0, 0.5)
BASES = ("sphere", "user")
USER_RESIDUE = 0.375


def user_coefficients(d: int) -> dict[int, float]:
    """Fixed base data for the user-base half of the grid (exact doubles)."""
    return {n: (-1) ** n * (n + 1) / 2.0 ** (n + 1) for n in range(d + 2)}


def grid() -> list[dict]:
    """The 280 assembly-sweep configurations, in a fixed canonical order."""
    out = []
    for dim in DIMS:
        for label, theta0 in THETAS.items():
            for base in BASES:
                for mass in MASSES:
                    out.append(
                        {
                            "name": f"D{dim}-theta{label}-{base}-m{mass:g}",
                            "D": dim,
                            "theta0": theta0,
                            "base": base,
                            "mass": mass,
                        }
                    )
    return out


def make_config(point: dict):
    """The package's SuspensionConfig for one grid point (n_max = D - 1)."""
    from capheat import AngleParams, SphereBase, SuspensionConfig, UserBase

    d = point["D"] - 1
    if point["base"] == "sphere":
        base = SphereBase(d)
    else:
        base = UserBase(d, user_coefficients(d), residue_at_minus_half=USER_RESIDUE)
    return SuspensionConfig(
        D=point["D"],
        angle=AngleParams.from_theta0(point["theta0"]),
        base=base,
        n_max=point["D"] - 1,
        mass=point["mass"],
    )


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _chi(i: int) -> int:
    return (1 + (-1) ** i) // 2 - i // 2


def _ratio_gamma(top, bottom_a, bottom_b):
    """Gamma(top) / (Gamma(a) Gamma(b)), with 1/Gamma zero at its poles."""
    return mp.gamma(top) * mp.rgamma(bottom_a) * mp.rgamma(bottom_b)


def ref_c1(sin2, two_s):
    s = mp.mpf(two_s) / 2
    return mp.hyp2f1(mp.mpf(1) / 2, s, s + 1, sin2)


def ref_f_total(i, structure, sin_t, cos_t, dmn):
    """c2 + c3 + c4 as their docstrings define them."""
    half_i = mp.mpf(i) / 2
    s = mp.mpf(dmn) / 2
    big_a = s + half_i
    c2 = mp.fsum(
        _mpf(structure.x_coeffs[b]) * cos_t ** (i + 2 * b)
        * _ratio_gamma(big_a + b, big_a, b + half_i)
        for b in range(0, i + 1)
    )
    c3 = mp.fsum(
        _mpf(structure.z0_coeffs[j]) * _ratio_gamma(s + j, big_a, j)
        for j in range(1, i + 1)
    )
    c4 = mp.fsum(
        _mpf(structure.z_coeffs[(b, j)]) * cos_t ** (i + 2 * b)
        * _ratio_gamma(big_a + b + j, big_a, b + j + half_i)
        * mp.hyp2f1(-s, b + half_i, b + j + half_i, cos_t**2)
        for j in range(1, i + 1)
        for b in range(_chi(i), i + 1)
        if structure.z_coeffs[(b, j)] != 0
    )
    return c2 + sin_t ** (-dmn) * (c3 + c4)


def _convolve(values: list, step) -> list:
    return [
        mp.fsum(step**k / math.factorial(k) * values[n - 2 * k] for k in range(n // 2 + 1))
        for n in range(len(values))
    ]


def reference_table(point: dict, digits: int = DIGITS) -> dict:
    """script_A and cal_A for n = 0..D-1 plus the log coefficient, as mpf."""
    from capheat.heat_coeffs import base_coefficient
    from capheat.legendre_asymptotics import omega_structures

    cfg = make_config(point)
    dim = cfg.D
    structures = omega_structures(max(1, dim - 2))
    with mp.workdps(digits):
        theta0 = mp.mpf(cfg.angle.theta0)
        sin_t, cos_t = mp.sin(theta0), mp.cos(theta0)
        base = [mp.mpf(base_coefficient(cfg.base, n)) for n in range(dim)]
        script = []
        for n in range(dim):
            dmn = dim - n
            total = ref_c1(sin_t**2, dmn) / (2 * mp.sqrt(mp.pi) * dmn) * base[n]
            if n >= 1:
                total -= base[n - 1] / 4
            for i in range(1, n):
                total -= base[n - i - 1] * ref_f_total(
                    i, structures[i - 1], sin_t, cos_t, dmn
                )
            script.append(sin_t**dmn * total)
        cal = _convolve(script, (mp.mpf(cfg.d) / 2) ** 2)
        if cfg.mass:
            cal = _convolve(cal, -mp.mpf(cfg.mass) ** 2)
        log_coeff = None if point["base"] == "sphere" else mp.mpf(USER_RESIDUE) / 2
        return {"script_A": script, "cal_A": cal, "log_coefficient": log_coeff}


def _record_assembly() -> dict:
    import workloads
    from capheat import compute_table

    tables = {}
    for point in grid() + [workloads.VERIFY_POINT]:
        ref = reference_table(point)
        check = reference_table(point, DIGITS + 20)
        for key in ("script_A", "cal_A"):
            for a, b in zip(ref[key], check[key]):
                if abs(a - b) > mp.mpf(10) ** (-20) * abs(b):
                    raise SystemExit(f"{point['name']}: reference not settled at {DIGITS} digits")
        lc = ref["log_coefficient"]
        tables[point["name"]] = {
            "script_A": [mp.nstr(v, 25) for v in ref["script_A"]],
            "cal_A": [mp.nstr(v, 25) for v in ref["cal_A"]],
            "log_coefficient": None if lc is None else mp.nstr(lc, 25),
        }
    # Tables the recorded program gets wrong: they count as failed
    # operations on every run, and a failure outside this list makes the
    # run incorrect.
    floats = workloads.parse_tables(tables)
    known = {}
    for point in grid():
        ok, checked, worst = workloads.check_table(compute_table(make_config(point)), floats[point["name"]])
        if ok < checked:
            known[point["name"]] = f"{worst:.3g}"
    return {"digits": DIGITS, "entry_rtol": ENTRY_RTOL, "known_defects": known, "tables": tables}


def _record_roots() -> dict:
    import tracing
    import workloads

    channels = workloads.verify_pipeline(tracing.NullTracer()).channels
    return {
        "omega_max": workloads.VERIFY_OMEGA_MAX,
        "channels": [{"mu": ch.mu, "roots": [repr(r) for r in ch.roots]} for ch in channels],
    }


def _record_cli() -> dict:
    import workloads

    out = {}
    for name, argv in workloads.CLI_COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "capheat.cli", *argv],
            capture_output=True,
            env=workloads.child_env(),
            cwd=ROOT,
            check=True,
        )
        out[name] = hashlib.sha256(proc.stdout).hexdigest()
    return out


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    DATA.mkdir(exist_ok=True)
    for path, make in ((CLI_FILE, _record_cli), (ROOTS_FILE, _record_roots), (ASSEMBLY_FILE, _record_assembly)):
        path.write_text(json.dumps(make(), indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
