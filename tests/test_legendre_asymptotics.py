from __future__ import annotations

from fractions import Fraction

import pytest

from capheat.errors import StructureViolation
from capheat.exact_series import NuPolynomial, bernoulli, bessel_d_polynomial
from capheat.legendre_asymptotics import (
    GammaStructuredFunction,
    chi,
    extract_structure,
    omega,
    omega_structures,
    phi,
)

from omega_reference import REFERENCE

F = Fraction

N_MAX = 10


def poly(*coeffs) -> NuPolynomial:
    return NuPolynomial.from_coeffs(coeffs)


def gsf_from_table(i: int, table: dict[int, dict[int, F]]) -> GammaStructuredFunction:
    terms = {}
    for j, mono in table.items():
        n = max(mono) if mono else 0
        coeffs = [mono.get(e, F(0)) for e in range(n + 1)]
        terms[j] = NuPolynomial.from_coeffs(coeffs)
    return GammaStructuredFunction.from_terms(i, terms)


class TestChi:
    @pytest.mark.parametrize("i,expected", [(1, 0), (2, 0), (3, -1), (4, -1), (5, -2), (6, -2)])
    def test_values(self, i, expected):
        assert chi(i) == expected


class TestPhi:
    def test_seed(self):
        assert phi(0) == GammaStructuredFunction.constant(0, 1)

    def test_order_one(self):
        expected = GammaStructuredFunction.from_terms(
            1,
            {
                0: poly(F(1, 12), F(1, 8), 0, F(-5, 24)),
                1: poly(F(1, 24), F(-1, 4), 0, F(5, 24)),
            },
        )
        assert phi(1) == expected

    def test_bessel_limit_of_order_one(self):
        # Dropping the j >= 1 parts must leave the Bessel cumulant D_1 plus
        # the soon-to-cancel constant 1/12.
        gamma_free = phi(1).part(0)
        assert gamma_free == bessel_d_polynomial(1) + poly(F(1, 12))


class TestOmegaTables:
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_matches_reference(self, i):
        generated = omega(5)[i - 1]
        assert generated == gsf_from_table(i, REFERENCE[i])

    def test_omega5_top_coefficient(self):
        assert omega(5)[4].part(0).coefficient(15) == F(-82825, 3072)


class TestStructure:
    def test_order_two_constants(self):
        s = extract_structure(omega(2)[1])
        assert s.z0_coeffs[1] == F(1, 16)
        assert s.z0_coeffs[2] == F(-1, 8)

    def test_order_three_j1(self):
        s = extract_structure(omega(3)[2])
        assert s.z0_coeffs[1] == 0
        exponents = {e for e, c in omega(3)[2].part(1).monomials()}
        assert exponents == {1, 3, 5, 7, 9}
        assert set(b for (b, j) in s.z_coeffs if j == 1) == set(range(-1, 4))

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_sum_rule(self, i):
        s = omega_structures(N_MAX)[i - 1]
        for j in range(1, i + 1):
            total = s.z0_coeffs[j] + sum(
                s.z_coeffs[(b, j)] for b in range(chi(i), i + 1)
            )
            assert total == 0

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_value_at_one_matches_bessel(self, i):
        om = omega(N_MAX)[i - 1]
        gamma_free_sum = sum((c for _, c in om.part(0).monomials()), F(0))
        assert gamma_free_sum == bessel_d_polynomial(i)(F(1))

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_gamma_free_part_is_bessel_cumulant(self, i):
        assert omega(N_MAX)[i - 1].part(0) == bessel_d_polynomial(i)

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_round_trip(self, i):
        om = omega(N_MAX)[i - 1]
        assert extract_structure(om).reconstruct() == om

    def test_lower_orders_share_the_cache(self):
        high = omega_structures(N_MAX)
        low = omega_structures(6)
        assert len(low) == 6
        for i in range(6):
            assert low[i] is high[i]

    def test_violation_detected(self):
        bad = GammaStructuredFunction.from_terms(
            2, {0: poly(0, 0, F(1, 16), F(1))}  # stray v^3 in an even family
        )
        with pytest.raises(StructureViolation):
            extract_structure(bad)


class TestPsi:
    def test_exponential_relation(self):
        # The amplitude functions Psi_m = [x^m] exp(sum_n Omega_n x^n) must
        # equal the raw phi series times the Bernoulli prefactor
        # exp(-sum_l B_{2l}/(2l(2l-1)) x^{2l-1}), in every j-part.
        n = 6
        oms = [GammaStructuredFunction.constant(0, 0)] + omega(n)
        psis = [GammaStructuredFunction.constant(0, 1)]
        for m in range(1, n + 1):
            acc = GammaStructuredFunction.constant(0, 0)
            for k in range(1, m + 1):
                acc = acc + (oms[k] * psis[m - k]).scale(F(k, m))
            psis.append(acc)
        phis = [phi(k) for k in range(n + 1)]
        # exp(-sum B_{2l}/(2l(2l-1)) x^{2l-1}) as a plain rational series
        expo = [F(0)] * (n + 1)
        for l in range(1, n // 2 + 2):
            if 2 * l - 1 <= n:
                expo[2 * l - 1] = -bernoulli(2 * l) / (2 * l * (2 * l - 1))
        pref = [F(0)] * (n + 1)
        pref[0] = F(1)
        for m in range(1, n + 1):
            pref[m] = (
                sum((F(k) * expo[k] * pref[m - k] for k in range(1, m + 1)), F(0)) / m
            )
        for m in range(n + 1):
            expected = GammaStructuredFunction.constant(0, 0)
            for k in range(m + 1):
                expected = expected + phis[m - k].scale(pref[k])
            assert psis[m] == expected
