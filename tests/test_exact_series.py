from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from capheat.legendre_asymptotics import bernoulli, sinh_ratio_coefficients

from omega_reference import bessel_d_polynomial, polyadd, polymul, trim, u_polynomial

F = Fraction


def bernoulli_oracle(n: int) -> list[Fraction]:
    """Independent Bernoulli oracle: Akiyama-Tanigawa triangle (B_1 = +1/2)."""
    row = [F(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def poly(*coeffs) -> tuple[Fraction, ...]:
    return trim(coeffs)


class TestBernoulli:
    def test_odd_vanish(self):
        assert bernoulli(3) == 0
        assert bernoulli(7) == 0

    def test_b1(self):
        assert bernoulli(1) == F(-1, 2)

    def test_b2(self):
        assert bernoulli(2) == F(1, 6)

    def test_b12(self):
        assert bernoulli(12) == F(-691, 2730)

    def test_against_independent_oracle(self):
        oracle = bernoulli_oracle(30)
        for two_l in range(0, 31, 2):
            assert bernoulli(two_l) == oracle[two_l]


class TestUPolynomials:
    def test_base_case(self):
        assert u_polynomial(0) == poly(1)

    def test_u1(self):
        # one hand application of the recursion
        assert u_polynomial(1) == poly(0, F(3, 24), 0, F(-5, 24))

    def test_u2(self):
        assert u_polynomial(2) == poly(
            0, 0, F(81, 1152), 0, F(-462, 1152), 0, F(385, 1152)
        )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_degree_and_parity(self, k):
        u = u_polynomial(k)
        assert len(u) - 1 == 3 * k
        for e, c in enumerate(u):
            if c:
                assert e % 2 == k % 2
                assert k <= e <= 3 * k


class TestBesselD:
    def test_d1(self):
        assert bessel_d_polynomial(1) == poly(0, F(1, 8), 0, F(-5, 24))

    def test_d2(self):
        assert bessel_d_polynomial(2) == poly(
            0, 0, F(1, 16), 0, F(-3, 8), 0, F(5, 16)
        )

    def test_d3_top_coefficient(self):
        assert bessel_d_polynomial(3)[9] == F(-1105, 1152)

    def test_d1_at_one(self):
        assert sum(bessel_d_polynomial(1)) == F(-1, 12)

    @pytest.mark.parametrize("i", range(1, 9))
    def test_structure(self, i):
        d = bessel_d_polynomial(i)
        exponents = {e for e, c in enumerate(d) if c}
        assert exponents <= {i + 2 * b for b in range(i + 1)}

    def test_exponential_recomposes_u(self):
        # exp(sum D_n / v^n) must reproduce 1 + sum u_k / v^k term by term.
        n = 8
        d = [poly()] + [bessel_d_polynomial(i) for i in range(1, n + 1)]
        e = [poly(1)] + [poly()] * n
        for m in range(1, n + 1):
            acc = poly()
            for k in range(1, m + 1):
                acc = polyadd(acc, polymul((F(k, m),), polymul(d[k], e[m - k])))
            e[m] = acc
        for k in range(0, n + 1):
            assert e[k] == u_polynomial(k)


class TestSinhRatio:
    def test_leading_one(self):
        assert sinh_ratio_coefficients(1, 0)[0] == 1

    def test_power_one_order_two(self):
        assert sinh_ratio_coefficients(1, 2)[2] == F(-1, 3)

    def test_power_two_order_two(self):
        assert sinh_ratio_coefficients(2, 2)[2] == F(-2, 3)

    def test_odd_entries_vanish(self):
        for p in (1, 2, 3, 5):
            coeffs = sinh_ratio_coefficients(p, 11)
            assert all(coeffs[v] == 0 for v in range(1, 12, 2))

    @pytest.mark.parametrize("order", [8, 12])
    def test_power_one_against_bernoulli_closed_form(self, order):
        # y/sinh y = 1 + sum_{n>=1} [-2 (2^{2n-1} - 1) B_{2n}] y^{2n} / (2n)!
        # bernoulli() is read off these coefficients, so the check takes
        # its Bernoulli numbers from the independent oracle
        coeffs = sinh_ratio_coefficients(1, order)
        oracle = bernoulli_oracle(order)
        assert coeffs[0] == 1
        for n in range(1, order // 2 + 1):
            expected = -2 * (2 ** (2 * n - 1) - 1) * oracle[2 * n]
            assert coeffs[2 * n] == expected

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3)])
    def test_cauchy_product(self, p, q):
        order = 10
        a = sinh_ratio_coefficients(p, order)
        b = sinh_ratio_coefficients(q, order)
        c = sinh_ratio_coefficients(p + q, order)
        for v in range(order + 1):
            conv = sum(comb(v, r) * a[r] * b[v - r] for r in range(v + 1))
            assert c[v] == conv
