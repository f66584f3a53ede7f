from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

import pytest

from capheat.errors import ValidationError
from capheat.heat_coeffs import sphere_heat_coefficient
from capheat.special_eval import AngleParams
from capheat.spectral_oracle import degeneracy, sphere_mu

from sphere_reference import (
    explicit_table_check,
    residue_to_coefficient,
    sphere_residue,
    sphere_surface_area,
    suspension_coefficient_direct,
)

SQRT_PI = math.sqrt(math.pi)


def barnes_zeta_direct(sigma: float, a: float, d: int, k_max: int) -> float:
    """Equal-parameter Barnes zeta by direct summation:
    sum_k C(k+d-1, d-1) (a+k)^(-sigma)."""
    return sum(comb(k + d - 1, d - 1) * (a + k) ** (-sigma) for k in range(k_max + 1))


class TestSpectrum:
    def test_degeneracy_k0(self):
        for d in (2, 3, 4, 7):
            assert degeneracy(0, d) == 1

    def test_degeneracy_d2(self):
        assert [degeneracy(k, 2) for k in range(6)] == [1, 3, 5, 7, 9, 11]

    def test_degeneracy_d3_squares(self):
        for k in range(51):
            assert degeneracy(k, 3) == (k + 1) ** 2

    def test_degeneracy_matches_the_factorial_formula(self):
        for d in range(2, 13):
            for k in range(601):
                assert degeneracy(k, d) == (2 * k + d - 1) * factorial(
                    k + d - 2
                ) // (factorial(k) * factorial(d - 1))

    def test_mu_increasing(self):
        mus = [sphere_mu(k, 3) for k in range(11)]
        assert all(a < b for a, b in zip(mus, mus[1:]))
        assert mus[0] == 1.0
        assert sphere_mu(2, 2) == 2.5


class TestResidues:
    def test_m_equals_d(self):
        for d in (2, 3, 5):
            assert sphere_residue(d, d) == Fraction(1, factorial(d - 1))

    def test_d2_m2(self):
        assert sphere_residue(2, 2) == 1

    def test_odd_offset_vanishes(self):
        assert sphere_residue(2, 3) == 0
        assert sphere_residue(3, 4) == 0

    def test_domain_enforced(self):
        with pytest.raises(ValidationError):
            sphere_residue(1, 3)
        with pytest.raises(ValidationError):
            sphere_residue(4, 3)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_dictionary_consistency(self, d):
        # Gamma((d-n)/2) * residue at (d-n)/2 equals the heat coefficient,
        # inside the residue formula's validity window.
        for n in range(0, d - 1):
            m = d - n
            via_residue = residue_to_coefficient(0.5 * m, float(sphere_residue(m, d)))
            assert via_residue == pytest.approx(
                sphere_heat_coefficient(n, d), rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_zeta_against_barnes_decomposition(self, d):
        s = 0.5 * d + 2.0
        sigma = 2.0 * s
        k_max = 4000
        spectral = sum(
            degeneracy(k, d) * sphere_mu(k, d) ** (-sigma) for k in range(k_max + 1)
        )
        barnes = barnes_zeta_direct(sigma, 0.5 * (d + 1), d, k_max) + barnes_zeta_direct(
            sigma, 0.5 * (d - 1), d, k_max
        )
        assert spectral == pytest.approx(barnes, abs=1e-8)


class TestHeatCoefficients:
    def test_d2_values(self):
        assert sphere_heat_coefficient(0, 2) == pytest.approx(1.0, abs=1e-12)
        assert sphere_heat_coefficient(1, 2) == 0.0
        assert sphere_heat_coefficient(2, 2) == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_d2_n4_curvature_value(self):
        # Independent value from the curvature invariants of the round
        # 2-sphere with potential 1/4: (1/15) - (1/12) + (1/32) = 7/480.
        assert sphere_heat_coefficient(4, 2) == pytest.approx(7.0 / 480.0, rel=1e-12)

    def test_odd_vanish(self):
        for d in (2, 3, 4):
            for n in (1, 3, 5):
                assert sphere_heat_coefficient(n, d) == 0.0

    def test_volume_normalization(self):
        for d in (2, 3, 4, 5):
            expected = sphere_surface_area(d) / (4.0 * math.pi) ** (0.5 * d)
            assert sphere_heat_coefficient(0, d) == pytest.approx(expected, rel=1e-12)

    def test_memo_keeps_the_bits(self):
        # the first call fills the memo and the second reads it; both give
        # the bits of an uncached computation
        uncached = sphere_heat_coefficient.__wrapped__
        for d in range(2, 41):
            for n in range(d + 1):
                expected = uncached(n, d).hex()
                for _ in range(2):
                    assert sphere_heat_coefficient(n, d).hex() == expected, (n, d)
        assert sphere_heat_coefficient.cache_info().maxsize is not None

    @pytest.mark.parametrize("n,d,error", [(0, 269, OverflowError)])
    def test_refusals_are_not_memoized(self, n, d, error):
        for _ in range(2):
            with pytest.raises(error):
                sphere_heat_coefficient(n, d)

    def test_surface_areas(self):
        assert sphere_surface_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert sphere_surface_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


class TestTwoPathEquality:
    def test_leading_entry_formula(self):
        # index 0: sin^D / (d+1) * C1(theta0, D) * |S_d| / (4 pi)^(D/2)
        from capheat.special_eval import c1

        d, theta0 = 3, 0.7
        angle = AngleParams.from_theta0(theta0)
        expected = (
            math.sin(theta0) ** (d + 1)
            / (d + 1)
            * c1(angle, float(d + 1))
            * sphere_surface_area(d)
            / (4.0 * math.pi) ** (0.5 * (d + 1))
        )
        assert suspension_coefficient_direct(0, d, angle) == pytest.approx(
            expected, rel=1e-13
        )

    def test_scaled_half_coefficient(self):
        # index 1/2, scaled by (4 pi)^(d/2) / (sin^d |S_d|), equals -1/4.
        for d in (2, 3, 4):
            for theta0 in (0.5, 0.9, 1.4):
                angle = AngleParams.from_theta0(theta0)
                value = suspension_coefficient_direct(1, d, angle)
                scaled = (
                    value
                    * (4.0 * math.pi) ** (0.5 * d)
                    / (math.sin(theta0) ** d * sphere_surface_area(d))
                )
                assert scaled == pytest.approx(-0.25, rel=1e-12)

    def test_range_validation(self):
        angle = AngleParams.from_theta0(0.8)
        with pytest.raises(ValidationError):
            suspension_coefficient_direct(3, 2, angle)
        with pytest.raises(ValidationError):
            explicit_table_check(7, 6, angle)
