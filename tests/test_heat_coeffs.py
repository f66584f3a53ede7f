from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from capheat.errors import (
    InsufficientBaseData,
    NumericalError,
    ValidationError,
)
from capheat.heat_coeffs import (
    CoefficientTable,
    SphereBase,
    SuspensionConfig,
    UserBase,
    _exp_shift,
    assemble_script_A,
    base_coefficient,
    compute_table,
    log_coefficient,
    sphere_heat_coefficient,
    table_to_dict,
)
from capheat import special_eval
from capheat.special_eval import AngleParams
from capheat.spectral_oracle import spectrum

from sphere_reference import residue_to_coefficient, sphere_surface_area

SQRT_PI = math.sqrt(math.pi)


def sphere_config(d: int, theta0: float, n_max: int, **kw) -> SuspensionConfig:
    return SuspensionConfig(
        D=d + 1,
        angle=AngleParams.from_theta0(theta0),
        base=SphereBase(d),
        n_max=n_max,
        **kw,
    )


class TestResidueDictionary:
    def test_zero_residue(self):
        assert residue_to_coefficient(1.5, 0.0) == 0.0

    def test_half_gives_sqrt_pi(self):
        assert residue_to_coefficient(0.5, 2.0) == pytest.approx(
            2.0 * SQRT_PI, rel=1e-15
        )


class TestAssembly:
    def test_leading_coefficient_formula(self):
        # n = 0 has only the first term.
        from capheat.special_eval import c1

        cfg = sphere_config(3, 0.9, 0)
        expected = (
            math.sin(0.9) ** 4
            / (2.0 * SQRT_PI * 4.0)
            * c1(cfg.angle, 4.0)
            * sphere_heat_coefficient(0, 3)
        )
        assert assemble_script_A(cfg, 0) == pytest.approx(expected, rel=1e-14)

    def test_hemisphere_volume(self):
        cfg = sphere_config(2, math.pi / 2, 0)
        assert assemble_script_A(cfg, 0) == pytest.approx(SQRT_PI / 8.0, abs=1e-12)

    def test_hemisphere_first_curvature_entry_vanishes(self):
        # Total-geodesic boundary and flat shifted potential: index-1 entry zero.
        cfg = sphere_config(2, math.pi / 2, 2)
        assert abs(assemble_script_A(cfg, 2)) < 1e-14

    @pytest.mark.parametrize("theta0", [0.5, 0.9, 1.3])
    def test_scaled_half_coefficient(self, theta0):
        d = 2
        cfg = sphere_config(d, theta0, 1)
        value = assemble_script_A(cfg, 1)
        scaled = (
            value
            * (4.0 * math.pi) ** (0.5 * d)
            / (math.sin(theta0) ** d * sphere_surface_area(d))
        )
        assert scaled == pytest.approx(-0.25, rel=1e-12)

    def test_no_gamma_pole_at_top_index(self):
        # n = D - 1 must route through base coefficients, never Gamma(0).
        cfg = sphere_config(2, 0.8, 2)
        assert math.isfinite(assemble_script_A(cfg, 2))

    def test_user_base_reproduces_sphere(self):
        d, theta0, n_max = 3, 0.7, 3
        sphere_cfg = sphere_config(d, theta0, n_max)
        user = UserBase(
            d=d,
            coefficients={n: sphere_heat_coefficient(n, d) for n in range(n_max + 1)},
        )
        user_cfg = SuspensionConfig(
            D=d + 1,
            angle=AngleParams.from_theta0(theta0),
            base=user,
            n_max=n_max,
        )
        for n in range(n_max + 1):
            assert assemble_script_A(user_cfg, n) == pytest.approx(
                assemble_script_A(sphere_cfg, n), rel=1e-14, abs=1e-18
            )

    def test_user_base_missing_entry(self):
        user = UserBase(d=2, coefficients={0: 1.0})
        cfg = SuspensionConfig(
            D=3, angle=AngleParams.from_theta0(0.8), base=user, n_max=2
        )
        with pytest.raises(InsufficientBaseData):
            assemble_script_A(cfg, 2)

    def test_negative_base_index_is_zero(self):
        assert base_coefficient(SphereBase(2), -1) == 0.0


class TestConeLimit:
    def test_theta_squared_scaling(self):
        # Rescaled coefficients approach the small-angle limit at rate
        # theta0^2: halving the angle divides the deviation by 4 (+/- 12%).
        d, n = 3, 2
        cfg0 = None
        values = {}
        for theta0 in (0.1, 0.05, 0.025, 0.0125):
            cfg = sphere_config(d, theta0, n)
            values[theta0] = assemble_script_A(cfg, n) / math.sin(theta0) ** (
                cfg.D - n
            )
        # limit from the cone-side closed form: C1 -> 1, weights -> their
        # gamma-free values at unit cosine
        from capheat.legendre_asymptotics import omega_structures
        from test_special_eval import bessel_limit_weight

        dmn = float(d + 1 - n)
        s1 = omega_structures(1)[0]
        limit = (
            1.0 / (2.0 * SQRT_PI * dmn) * sphere_heat_coefficient(n, d)
            - 0.25 * sphere_heat_coefficient(n - 1, d)
            - sphere_heat_coefficient(0, d) * bessel_limit_weight(1, s1, dmn)
        )
        devs = [values[t] - limit for t in (0.1, 0.05, 0.025, 0.0125)]
        for a, b in zip(devs, devs[1:]):
            assert 3.52 <= a / b <= 4.48


class TestShifts:
    # the pure Laplacian shifts by (d/2)^2, which is 1 at d = 2; a mass m by -m^2
    def test_shift_identity_at_zero(self):
        assert _exp_shift({0: 2.5}, 1.0) == {0: 2.5}

    def test_shift_n2_d2(self):
        script = {0: 1.0, 1: 0.5, 2: 0.25}
        cal = _exp_shift(script, 1.0)
        assert cal[2] == pytest.approx(script[2] + script[0], rel=1e-15)

    def test_shift_n4_d2(self):
        script = {n: 1.0 / (n + 1) for n in range(5)}
        cal = _exp_shift(script, 1.0)
        assert cal[4] == pytest.approx(
            script[4] + script[2] + 0.5 * script[0], rel=1e-15
        )

    def test_mass_zero_identity(self):
        cal = {0: 1.0, 1: -0.25, 2: 0.1}
        assert _exp_shift(cal, -0.0) == cal

    def test_mass_first_orders(self):
        cal = {0: 1.0, 1: 0.0, 2: 0.5, 3: 0.0, 4: 0.125}
        m = 0.7
        shifted = _exp_shift(cal, -(m * m))
        assert shifted[2] == pytest.approx(cal[2] - m**2 * cal[0], rel=1e-15)
        assert shifted[4] == pytest.approx(
            cal[4] - m**2 * cal[2] + 0.5 * m**4 * cal[0], rel=1e-15
        )

    def test_shift_then_mass_at_half_d_is_identity(self):
        # The two convolutions are exact inverses when m = d/2, which is the
        # heat-trace factor identity order by order.
        d = 3
        script = {n: math.sin(n + 1.0) for n in range(6)}
        back = _exp_shift(_exp_shift(script, (0.5 * d) ** 2), -(0.5 * d) ** 2)
        for n, v in script.items():
            assert back[n] == pytest.approx(v, rel=1e-13, abs=1e-13)


class TestLogCoefficient:
    def test_zero_residue(self):
        assert log_coefficient(UserBase(2, {0: 1.0}, residue_at_minus_half=0.0)) == 0.0

    def test_half_relation(self):
        base = UserBase(2, {0: 1.0}, residue_at_minus_half=0.3)
        assert log_coefficient(base) == pytest.approx(0.15, rel=1e-15)

    def test_sphere_absent(self):
        assert log_coefficient(SphereBase(2)) is None

    def test_missing_residue(self):
        base = UserBase(2, {0: 1.0, 1: 0.0})
        assert log_coefficient(base) is None
        cfg = SuspensionConfig(
            D=3, angle=AngleParams.from_theta0(0.8), base=base, n_max=1
        )
        assert compute_table(cfg).log_coefficient is None


class TestConfigValidation:
    def test_n_max_below_dimension(self):
        with pytest.raises(ValidationError):
            sphere_config(2, 0.8, 3)

    def test_base_dimension_consistency(self):
        with pytest.raises(ValidationError):
            SuspensionConfig(
                D=4, angle=AngleParams.from_theta0(0.8), base=SphereBase(2), n_max=1
            )

    def test_negative_mass(self):
        with pytest.raises(ValidationError):
            sphere_config(2, 0.8, 1, mass=-1.0)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass(self, mass):
        with pytest.raises(ValidationError):
            sphere_config(2, 0.8, 1, mass=mass)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: SphereBase(2.5), id="sphere-d"),
        pytest.param(lambda: SphereBase(2.0), id="sphere-d-float"),
        pytest.param(lambda: UserBase("2", {0: 1.0}), id="user-d"),
        pytest.param(lambda: SuspensionConfig(
            D=3.5, angle=AngleParams(1.0), base=UserBase(2, {0: 1.0}), n_max=1
        ), id="D"),
        pytest.param(lambda: sphere_config(2, 1.0, 2.0), id="n_max"),
        pytest.param(lambda: spectrum(2.5, 1.0, 10.0), id="spectrum-d"),
    ])
    def test_non_integral_dimensions_refused(self, make):
        # operator.index decides: 2.0 is refused like 2.5
        with pytest.raises(ValidationError, match="must be an integer"):
            make()

    def test_numpy_integer_dimensions_accepted(self):
        cfg = SuspensionConfig(D=np.int64(3), angle=AngleParams(1.0),
                               base=SphereBase(np.int64(2)), n_max=np.int64(2))
        assert compute_table(cfg).entries[2].n == 2

    @pytest.mark.parametrize("big_d,theta0,error,message", [
        pytest.param(340, 1e-3, OverflowError, "sin(theta0)^(D-n) underflows at "
                     "theta0=0.001, D-n=340", id="0.001"),
        pytest.param(340, 1.0, OverflowError, "sphere heat coefficient of index n=0 "
                     "underflows at d=339", id="1.0"),
        pytest.param(340, 3.1, OverflowError, "sin(theta0)^(D-n) underflows at "
                     "theta0=3.1, D-n=340", id="3.1"),
        pytest.param(254, 1.0, NumericalError, "c1 = -3407872.0 lies outside "
                     "its range [1, 1/|cos(theta0)|] at theta0=1.0, D-n=254",
                     id="D254"),
        pytest.param(215, 0.5, None, None, id="D215"),
        pytest.param(255, 0.5, OverflowError, "a term of index n=0 underflows at "
                     "theta0=0.5, D=255", id="D255"),
    ])
    def test_dimension_limit_computes(self, big_d, theta0, error, message):
        # Below the smallest normal double an entry has lost digits or is 0:
        # the table is refused instead of printing it.  sin(theta0)^340 is
        # that small at 1e-3 and 3.1, the d = 339 sphere's base coefficient
        # of index 0 at theta0 = 1, and from D = 216 at theta0 = 0.5 the
        # entry of index 0.  At theta0 = 1 c1 cancels to a value outside
        # its range first, from D = 150: D = 254 used to print a negative
        # volume term
        config = sphere_config(big_d - 1, theta0, 3)
        if error:
            with pytest.raises(error, match=re.escape(message)):
                compute_table(config)
            return
        table = compute_table(config)
        assert all(
            math.isfinite(e.script_A) and math.isfinite(e.cal_A)
            for e in table.entries
        )

    @pytest.mark.parametrize("big_d,shown", [
        (300, "D-n=287, order 12"), (337, "D-n=334, order 2"),
        (340, "D-n=337, order 2"),
    ])
    def test_weight_gamma_overflow_named(self, big_d, shown):
        # the angular weights' Gamma(A + b + j), A = (D - n + i)/2, passes
        # the double range at 171.6: the error names D - n and the order
        # instead of the errno text.  At theta0 = 1.4 c1 is accurate at
        # these D, so no other refusal comes first
        config = SuspensionConfig(D=big_d, angle=AngleParams.from_theta0(1.4),
                                  base=user_base(big_d - 1), n_max=17)
        with pytest.raises(OverflowError, match=re.escape(
                f"Gamma factors of the angular weights overflow at {shown}")):
            compute_table(config)

    @pytest.mark.parametrize("big_d", [341, 400])
    def test_dimension_above_limit_refused(self, big_d):
        # c1's Gamma factors overflow from D = 341 at theta0 = 1
        with pytest.raises(ValidationError, match="above the limit 340"):
            sphere_config(big_d - 1, 1.0, 3)

    def test_cumulant_order_limit(self):
        sphere_config(18, 0.8, 17)  # order 16, the limit
        with pytest.raises(ValidationError, match="above the limit"):
            sphere_config(18, 0.8, 18)


class TestTable:
    def test_entries_and_schema(self):
        cfg = sphere_config(3, 0.9, 3)
        table = compute_table(cfg)
        assert isinstance(table, CoefficientTable)
        assert [e.n_over_2 for e in table.entries] == [0.0, 0.5, 1.0, 1.5]
        payload = table_to_dict(table)
        assert set(payload) == {"config", "coefficients", "log_coefficient"}
        assert set(payload["config"]) == {"D", "theta0", "base", "N", "mass"}
        assert set(payload["coefficients"][0]) == {"n_over_2", "script_A", "cal_A"}
        assert payload["log_coefficient"] is None

    def test_cal_satisfies_shift_convolution(self):
        cfg = sphere_config(3, 1.1, 3)
        table = compute_table(cfg)
        script = {e.n: e.script_A for e in table.entries}
        cal = _exp_shift(script, (0.5 * cfg.d) ** 2)
        for e in table.entries:
            assert e.cal_A == pytest.approx(cal[e.n], rel=1e-14, abs=1e-18)

    def test_mass_folds_into_cal(self):
        cfg = sphere_config(3, 1.1, 3, mass=0.5)
        massless = compute_table(sphere_config(3, 1.1, 3))
        table = compute_table(cfg)
        cal0 = {e.n: e.cal_A for e in massless.entries}
        expected = _exp_shift(cal0, -(0.5 * 0.5))
        for e in table.entries:
            assert e.cal_A == pytest.approx(expected[e.n], rel=1e-14, abs=1e-18)
        # the shifted-operator column is mass independent
        for e, e0 in zip(table.entries, massless.entries):
            assert e.script_A == e0.script_A

    def test_mass_overflow_raises(self):
        # m * m is inf at m = 1e200 and raises nothing itself; the table
        # must not come back with inf or nan entries
        with pytest.raises(OverflowError, match="non-finite"):
            compute_table(sphere_config(4, 1.0, 4, mass=1e200))

    def test_user_base_log_coefficient_in_table(self):
        base = UserBase(2, {0: 1.0, 1: 0.0, 2: 0.1}, residue_at_minus_half=0.4)
        cfg = SuspensionConfig(
            D=3, angle=AngleParams.from_theta0(0.8), base=base, n_max=2
        )
        table = compute_table(cfg)
        assert table.log_coefficient == pytest.approx(0.2, rel=1e-15)
        payload = table_to_dict(table)
        assert payload["config"]["base"]["type"] == "user"
        assert payload["log_coefficient"] == pytest.approx(0.2, rel=1e-15)


def user_base(d: int) -> UserBase:
    """A fixed user base with exact-double coefficients through index d + 1."""
    coefficients = {n: (-1) ** n * (n + 1) / 2.0 ** (n + 1) for n in range(d + 2)}
    return UserBase(d, coefficients, residue_at_minus_half=0.375)


PIN_THETAS = (1e-3, 1e-2, 0.1, 1.0, math.pi / 3, math.pi / 2, 2.0, 3.0, 3.1)
# the assembly sweep's angles
SWEEP_THETAS = (1e-3, 1e-2, 0.1, 1.0, 2.0, 3.0, 3.1)
# sha256 of the float.hex of every script_A and cal_A of the 360 pinned tables
ASSEMBLY_DIGEST = "1bccee231d2a57d907b76e5945ebf14d6982c20ec71dd4f83e61038e4dfd715f"
# the same over D 13..18: 216 tables, cumulant orders up to 16
HIGH_ORDER_DIGEST = "042852e7d77230b90abe0a66179d4da082e89fe892c9b2f8642bfb10ff36bd98"


def table_tuples(big_d, theta0):
    """(script_A, cal_A) of the tables of dimension big_d at theta0, for
    both bases and masses 0 and 0.5, in that order."""
    return [
        [(e.script_A, e.cal_A) for e in compute_table(SuspensionConfig(
            D=big_d,
            angle=AngleParams.from_theta0(theta0),
            base=base,
            n_max=big_d - 1,
            mass=mass,
        )).entries]
        for base in (SphereBase(big_d - 1), user_base(big_d - 1))
        for mass in (0.0, 0.5)
    ]


def table_digest(dims, thetas) -> str:
    """sha256 of the float.hex of every entry of the tables over dims x thetas."""
    digest = hashlib.sha256()
    for big_d in dims:
        for theta0 in thetas:
            for table in table_tuples(big_d, theta0):
                for script, cal in table:
                    digest.update(f"{script.hex()} {cal.hex()}\n".encode())
    return digest.hexdigest()


# test_threads_share_plans_safely runs this in a fresh interpreter; it prints
# each thread's digest and the parameters of every wrong ratio prefix.
THREAD_PROBE = """
import gc, json, sys, threading
from capheat import special_eval
from test_heat_coeffs import SWEEP_THETAS, table_digest

barrier = threading.Barrier(4)
digests = {}


def run(k):
    barrier.wait()
    digests[k] = table_digest(range(3, 13), SWEEP_THETAS)


threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(4)]
sys.setswitchinterval(1e-6)
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
cached = [o for o in gc.get_objects() if type(o) is special_eval._Series]
wrong = [
    (series.a, series.b, series.c) for series in cached
    if list(series.ratios) != [
        (series.a + m) * (series.b + m) / ((series.c + m) * (1.0 + m))
        for m in map(float, range(len(series.ratios)))
    ]
]
print(json.dumps({
    "alive": sum(thread.is_alive() for thread in threads),
    "digests": [digests.get(k) for k in range(4)],
    "prefixed": sum(len(series.ratios) > 0 for series in cached),
    "wrong_prefixes": wrong,
}))
"""


class TestAssemblyBits:
    """The assembly's output, pinned bit for bit.

    Speed work on the assembly must leave every value unchanged; this digest
    catches a single moved bit in any table.  A change that moves values on
    purpose (more accurate angular weights, say) re-pins the digest and
    says so in CHANGES.md.
    """

    def test_tables_are_bit_identical(self):
        assert table_digest(range(3, 13), PIN_THETAS) == ASSEMBLY_DIGEST

    def test_high_order_tables_are_bit_identical(self):
        # D 13..18 reach the cumulant orders 11..16, which ASSEMBLY_DIGEST
        # does not; recorded before the angular weights were split into
        # angle-independent plans and a per-table evaluation
        assert table_digest(range(13, 19), PIN_THETAS) == HIGH_ORDER_DIGEST

    def test_tables_do_not_depend_on_earlier_angles(self):
        # the plans behind the angular weights hold nothing set by the
        # angle, only term ratios that every argument shares: tables after
        # other angles are those of a fresh start, both at 2.0 after shorter
        # and longer series, and at 1e-3 and 3.1 from the prefixes the long
        # series at 1.0 and 2.0 left
        def at(thetas, after):
            special_eval._weight_plan.cache_clear()
            special_eval._hyp2f1_plan.cache_clear()
            for theta0 in after:
                for big_d in (5, 12, 18):
                    table_tuples(big_d, theta0)
            return [
                [[(script.hex(), cal.hex()) for script, cal in table]
                 for table in table_tuples(big_d, theta0)]
                for theta0 in thetas for big_d in (5, 12, 18)
            ]

        assert at((2.0,), (1e-3, 0.1, 1.0, 3.0)) == at((2.0,), ())
        assert at((1e-3, 3.1), (1.0, 2.0)) == at((1e-3, 3.1), ())

    def test_threads_share_plans_safely(self):
        # four threads, more than the cores, build the same cumulant
        # functions and plans at the same time in a fresh interpreter, where
        # both start cold, with a short switch interval: each reproduces the
        # serial tables, and every cached ratio prefix is the one a single
        # thread computes
        tests = Path(__file__).resolve().parent
        src = Path(special_eval.__file__).resolve().parent.parent
        path = os.pathsep.join(
            filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["alive"] == 0
        serial = table_digest(range(3, 13), SWEEP_THETAS)
        assert result["digests"] == [serial] * 4, proc.stderr
        assert result["prefixed"] > 1000
        assert result["wrong_prefixes"] == []

    @pytest.mark.parametrize("base,limit", [
        pytest.param(SphereBase(11), 602, id="sphere"),
        pytest.param(user_base(11), 1042, id="user"),
    ])
    def test_each_2f1_is_evaluated_once(self, monkeypatch, base, limit):
        # the orders of one index share their z-family 2F1 values, so every
        # distinct argument tuple is evaluated once (per-order evaluation
        # took 1082 and 1832 calls here).  The count is taken where c1 and
        # the z family evaluate each 2F1 from its plan; a wrapper on a
        # function they no longer call would count nothing and pass.
        real = special_eval._hyp2f1_eval
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(special_eval, "_hyp2f1_eval", counted)
        cfg = SuspensionConfig(
            D=12, angle=AngleParams.from_theta0(1.0), base=base, n_max=11
        )
        compute_table(cfg)
        assert len(calls) == len(set(calls))
        # more than c1's one call per index: the z family's are counted too
        assert cfg.n_max + 1 < len(calls) <= limit
