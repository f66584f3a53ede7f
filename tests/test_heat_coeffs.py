from __future__ import annotations

import math

import pytest

from capheat.errors import (
    GammaPole,
    IndexOutOfRange,
    InsufficientBaseData,
    ValidationError,
)
from capheat.heat_coeffs import (
    CoefficientTable,
    SphereBase,
    SuspensionConfig,
    UserBase,
    assemble_script_A,
    base_coefficient,
    compute_table,
    log_coefficient,
    mass_shift,
    residue_to_coefficient,
    shift_to_pure_laplacian,
    table_to_dict,
)
from capheat.special_eval import AngleParams
from capheat.sphere_base import sphere_heat_coefficient, sphere_surface_area

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

    def test_pole_raises(self):
        with pytest.raises(GammaPole):
            residue_to_coefficient(0.0, 1.0)
        with pytest.raises(GammaPole):
            residue_to_coefficient(-2.0, 1.0)


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

    def test_index_validation(self):
        cfg = sphere_config(2, 0.8, 1)
        with pytest.raises(IndexOutOfRange):
            assemble_script_A(cfg, 2)
        with pytest.raises(IndexOutOfRange):
            assemble_script_A(cfg, -1)

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
    def test_shift_identity_at_zero(self):
        assert shift_to_pure_laplacian({0: 2.5}, 2) == {0: 2.5}

    def test_shift_n2_d2(self):
        script = {0: 1.0, 1: 0.5, 2: 0.25}
        cal = shift_to_pure_laplacian(script, 2)
        assert cal[2] == pytest.approx(script[2] + script[0], rel=1e-15)

    def test_shift_n4_d2(self):
        script = {n: 1.0 / (n + 1) for n in range(5)}
        cal = shift_to_pure_laplacian(script, 2)
        assert cal[4] == pytest.approx(
            script[4] + script[2] + 0.5 * script[0], rel=1e-15
        )

    def test_mass_zero_identity(self):
        cal = {0: 1.0, 1: -0.25, 2: 0.1}
        assert mass_shift(cal, 0.0) == cal

    def test_mass_first_orders(self):
        cal = {0: 1.0, 1: 0.0, 2: 0.5, 3: 0.0, 4: 0.125}
        m = 0.7
        shifted = mass_shift(cal, m)
        assert shifted[2] == pytest.approx(cal[2] - m**2 * cal[0], rel=1e-15)
        assert shifted[4] == pytest.approx(
            cal[4] - m**2 * cal[2] + 0.5 * m**4 * cal[0], rel=1e-15
        )

    def test_shift_then_mass_at_half_d_is_identity(self):
        # The two convolutions are exact inverses when m = d/2, which is the
        # heat-trace factor identity order by order.
        d = 3
        script = {n: math.sin(n + 1.0) for n in range(6)}
        back = mass_shift(shift_to_pure_laplacian(script, d), 0.5 * d)
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
        cal = shift_to_pure_laplacian(script, cfg.d)
        for e in table.entries:
            assert e.cal_A == pytest.approx(cal[e.n], rel=1e-14, abs=1e-18)

    def test_mass_folds_into_cal(self):
        cfg = sphere_config(3, 1.1, 3, mass=0.5)
        massless = compute_table(sphere_config(3, 1.1, 3))
        table = compute_table(cfg)
        cal0 = {e.n: e.cal_A for e in massless.entries}
        expected = mass_shift(cal0, 0.5)
        for e in table.entries:
            assert e.cal_A == pytest.approx(expected[e.n], rel=1e-14, abs=1e-18)
        # the shifted-operator column is mass independent
        for e, e0 in zip(table.entries, massless.entries):
            assert e.script_A == e0.script_A

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
