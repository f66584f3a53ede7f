"""Closed-form heat coefficients of spherical caps, sharing no code with the
package they check.

The cap of opening angle theta0 over the unit (D-1)-sphere is a geodesic ball
in the unit D-sphere: constant curvature, umbilic boundary.  Two references
follow, each returning the pure-Laplacian coefficient of index n/2 (the entry
``cal_A`` of a coefficient table, normalized so that index 0 is
(4 pi)^(-D/2) times the volume) together with the sum of the absolute values
of the terms it adds up.  That sum is the scale an error is measured against:
the coefficients of indices 1, 3/2 and 2 change sign on (pi/2, pi).

``branson_gilkey``: the general Dirichlet heat invariants for indices 0..4,
in the sign convention of Vassilevich, Phys. Rep. 388 (2003) 279, eqs.
(4.26)-(4.29), for every D and every theta0.  The volume comes from a
hypergeometric series of positive terms, which keeps its relative accuracy
however small sin^(D-1) is; quadrature at 40 digits did not.

``hemisphere``: theta0 = pi/2, every index n < D, exact.  The Dirichlet
spectrum is l (l + D - 1), l >= 1, with multiplicity C(l + D - 2, D - 1).
With nu = l + c, c = (D - 1)/2, the eigenvalue is nu^2 - c^2 and the
multiplicity a polynomial sum_j q_j nu^j, so the trace is e^(c^2 t) times
sum_j q_j sum_nu nu^j e^(-t nu^2).  Each inner sum is
Gamma((j+1)/2) / (2 t^((j+1)/2)) plus integer powers of t; the integer
powers reach index D and beyond, so below it only the Gaussian terms count.

``fold_mass`` folds a mass into either reference: the factor e^(-m^2 t)
mixes index n with n - 2k by (-m^2)^k / k!.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import mp

DIGITS = 40


def fold_mass(coefficients: list, scales: list, mass_squared) -> tuple[list, list]:
    """Coefficients and scales of the operator plus mass_squared."""
    values, bounds = [], []
    for n in range(len(coefficients)):
        weights = [(-mass_squared) ** k / factorial(k) for k in range(n // 2 + 1)]
        values.append(sum(w * coefficients[n - 2 * k] for k, w in enumerate(weights)))
        bounds.append(sum(abs(w) * scales[n - 2 * k] for k, w in enumerate(weights)))
    return values, bounds


def _sine_power_integral(m: int, theta):
    """The integral of sin^m over [0, theta], 0 < theta <= pi/2: with s =
    sin theta, s^(m+1) / (m+1) 2F1(1/2, (m+1)/2; (m+3)/2; s^2), whose terms
    are positive (DLMF 15.2.1 after x = arcsin(s u))."""
    s = mp.sin(theta)
    return s ** (m + 1) / (m + 1) * mp.hyp2f1(0.5, mp.mpf(m + 1) / 2,
                                               mp.mpf(m + 3) / 2, s * s)


@lru_cache(maxsize=None)
def _cap_measures(big_d: int, theta0: float):
    """Volume V and boundary area A of the cap, at DIGITS digits.  Above
    pi/2 the volume is the sphere's less the complementary cap's, which is
    at most half of it, so at most one bit cancels."""
    m = big_d - 1
    theta = mp.mpf(theta0)  # the double, exactly
    sphere_area = 2 * mp.pi ** (mp.mpf(big_d) / 2) / mp.gamma(mp.mpf(big_d) / 2)
    if 2 * theta <= mp.pi:
        integral = _sine_power_integral(m, theta)
    else:
        whole = mp.beta(0.5, mp.mpf(m + 1) / 2)  # over [0, pi]
        integral = whole - _sine_power_integral(m, mp.pi - theta)
    return sphere_area * integral, sphere_area * mp.sin(theta) ** m


@lru_cache(maxsize=None)
def branson_gilkey(
    big_d: int, theta0: float, mass: float = 0.0
) -> tuple[tuple[float, float], ...]:
    """(cal_A, scale) for indices 0..min(4, D-1) of the cap of opening theta0
    in the unit D-sphere.

    m = D - 1 boundary directions, second fundamental form L_ab = k delta_ab
    with k = cot theta0 and trace K = m k.  In Vassilevich's convention
    R_anan = -m, R_anbn = -delta_ab and R_abcb = -(D - 2) delta_ac, while
    R = D (D - 1), |Ric|^2 = D (D - 1)^2 and |Riem|^2 = 2 D (D - 1).
    """
    with mp.workdps(DIGITS):
        volume, area = _cap_measures(big_d, theta0)
        m = big_d - 1
        k = mp.cot(mp.mpf(theta0))
        trace_l = m * k
        r = big_d * (big_d - 1)
        ric2 = big_d * (big_d - 1) ** 2
        riem2 = 2 * big_d * (big_d - 1)
        r_anan = -m
        r_anbn_lab = -trace_l  # R_anbn L_ab
        r_abcb_lac = -(big_d - 2) * trace_l  # R_abcb L_ac
        bulk = (4 * mp.pi) ** (-mp.mpf(big_d) / 2)
        edge = (4 * mp.pi) ** (-mp.mpf(m) / 2)
        terms = [
            [bulk * volume],
            [-edge * area / 4],
            [bulk * r * volume / 6, bulk * 2 * trace_l * area / 6],
            [
                -edge * area * t / 384
                for t in (16 * r, 8 * r_anan, 7 * trace_l**2, -10 * m * k**2)
            ],
            [bulk * t * volume / 360 for t in (5 * r**2, -2 * ric2, 2 * riem2)]
            + [
                bulk * area * t / 360
                for t in (
                    20 * r * trace_l,
                    4 * r_anan * trace_l,
                    -12 * r_anbn_lab,
                    4 * r_abcb_lac,
                    mp.mpf(40) / 21 * trace_l**3,  # L_aa L_bb L_cc
                    -mp.mpf(88) / 7 * m * k**2 * trace_l,  # L_ab L_ab L_cc
                    mp.mpf(320) / 21 * m * k**3,  # L_ab L_bc L_ac
                )
            ],
        ][: min(5, big_d)]
        values, scales = fold_mass(
            [mp.fsum(t) for t in terms],
            [mp.fsum(abs(x) for x in t) for t in terms],
            mp.mpf(mass) ** 2,
        )
        return tuple((float(v), float(s)) for v, s in zip(values, scales))


def _multiplicity_in_nu(big_d: int) -> list[Fraction]:
    """q_j with C(l + D - 2, D - 1) = sum_j q_j nu^j, nu = l + (D - 1)/2."""
    c = Fraction(big_d - 1, 2)
    q = [Fraction(1)]
    for i in range(big_d - 1):  # times (nu - c + i), i.e. (l + i)
        shift = i - c
        q = [
            (q[j - 1] if j else 0) + (shift * q[j] if j < len(q) else 0)
            for j in range(len(q) + 1)
        ]
    return [x / factorial(big_d - 1) for x in q]


def _half_gamma(j: int) -> Fraction:
    """Gamma((j+1)/2) / 2, with the factor sqrt(pi) of even j left out."""
    p = j // 2
    if j % 2:
        return Fraction(factorial(p), 2)
    return Fraction(factorial(2 * p), 2 * 4**p * factorial(p))


@lru_cache(maxsize=None)
def hemisphere(big_d: int, mass: float = 0.0) -> tuple[tuple[float, float], ...]:
    """(cal_A, scale) for every index n < D of the hemisphere of the unit
    D-sphere, exact up to the final rounding.

    cal_A_n = sum q_j Gamma((j+1)/2)/2 * c^(2k)/k! over n = D - 1 - j + 2k;
    all its terms share the parity of j, so each index is a rational, or a
    rational times sqrt(pi) when D - 1 - n is even.
    """
    c2 = Fraction(big_d - 1, 2) ** 2
    q = _multiplicity_in_nu(big_d)
    values = [Fraction(0)] * big_d
    scales = [Fraction(0)] * big_d
    for j, qj in enumerate(q):
        for k in range((j + 1) // 2 + 1):
            n = big_d - 1 - j + 2 * k
            if n >= big_d:
                break
            term = qj * _half_gamma(j) * c2**k / factorial(k)
            values[n] += term
            scales[n] += abs(term)
    values, scales = fold_mass(values, scales, Fraction(mass) ** 2)
    with mp.workdps(DIGITS):
        root_pi = mp.sqrt(mp.pi)
        out = []
        for n, (v, s) in enumerate(zip(values, scales)):
            factor = root_pi if (big_d - 1 - n) % 2 == 0 else 1
            out.append(
                (
                    float(factor * mp.mpf(v.numerator) / v.denominator),
                    float(factor * mp.mpf(s.numerator) / s.denominator),
                )
            )
        return tuple(out)
