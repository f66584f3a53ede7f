"""Closed-form base data for the unit d-sphere: spectrum, zeta residues,
heat coefficients, and the direct coefficient formula for a spherical
suspension over a sphere (used as a second, independent assembly route).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

from .errors import DomainError
from .exact_series import sinh_ratio_coefficients
from .legendre_asymptotics import omega_structures
from .special_eval import (
    DEFAULT_PRECISION,
    SQRT_PI,
    AngleParams,
    EvalPrecision,
    c1,
    f_total,
    recip_gamma,
)

__all__ = [
    "degeneracy",
    "sphere_mu",
    "sphere_residue",
    "sphere_heat_coefficient",
    "sphere_surface_area",
    "suspension_coefficient_direct",
    "explicit_table_check",
]


def degeneracy(k: int, d: int) -> int:
    """Multiplicity of the k-th hyperspherical harmonic level on S^d."""
    if d < 2:
        raise DomainError("sphere base requires d >= 2")
    if k < 0:
        raise ValueError("level index must be nonnegative")
    return (2 * k + d - 1) * factorial(k + d - 2) // (factorial(k) * factorial(d - 1))


def sphere_mu(k: int, d: int) -> float:
    """Shifted frequency of level k: k + (d-1)/2."""
    return k + 0.5 * (d - 1)


def sphere_residue(m: int, d: int) -> Fraction:
    """Residue of the base zeta function at m/2, valid for 2 <= m <= d.

    2^(m-d) * S_(d-m) / ((d-1) (m-2)! (d-m)!) with S_v the v-th scaled
    coefficient of (y/sinh y)^(d-1); zero for odd d-m.
    """
    if d < 2:
        raise DomainError("sphere base requires d >= 2")
    if not 2 <= m <= d:
        raise DomainError(f"residue formula valid for 2 <= m <= d, got m={m}, d={d}")
    coeff = sinh_ratio_coefficients(d - 1, d - m)[d - m]
    return (
        Fraction(2) ** (m - d)
        * coeff
        / ((d - 1) * factorial(m - 2) * factorial(d - m))
    )


def sphere_heat_coefficient(n: int, d: int) -> float:
    """Heat coefficient of index n/2 for the shifted Laplacian on the unit S^d,
    normalized so the index-0 entry equals (4 pi)^(-d/2) vol(S^d).

    2 sqrt(pi) (d-n-1) S_n / (2^d n! (d-1) Gamma((d-n+1)/2)); the reciprocal
    Gamma supplies an exact zero at its poles.
    """
    if d < 2:
        raise DomainError("sphere base requires d >= 2")
    if n < 0:
        raise ValueError("index must be nonnegative")
    coeff = sinh_ratio_coefficients(d - 1, n)[n]
    if coeff == 0:
        return 0.0
    return (
        2.0
        * SQRT_PI
        * (d - n - 1)
        * float(coeff)
        / (2**d * factorial(n) * (d - 1))
        * recip_gamma(0.5 * (d - n + 1))
    )


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit d-sphere."""
    return (4.0 * math.pi) ** (0.5 * d) * math.gamma(0.5 * d) / factorial(d - 1)


def _pochhammer_half(x: float, half_steps: int) -> float:
    """(x)_{half_steps/2} = Gamma(x + half_steps/2) / Gamma(x)."""
    return math.gamma(x + 0.5 * half_steps) / math.gamma(x)


def suspension_coefficient_direct(
    n: int,
    d: int,
    angle: AngleParams,
    precision: EvalPrecision = DEFAULT_PRECISION,
) -> float:
    """Coefficient of index n/2 on the suspension over S^d (shifted operator),
    via the direct sphere formula rather than the generic base assembly.
    """
    if d < 2:
        raise DomainError("sphere base requires d >= 2")
    big_d = d + 1
    if n >= big_d:
        raise DomainError("direct formula valid for n < d + 1")
    sin_pow = angle.sin_theta ** (big_d - n)
    scoeffs = sinh_ratio_coefficients(d - 1, max(n, 0))

    total = (
        sin_pow
        * (d - n - 1)
        / (factorial(n) * (d - 1) * (d - n + 1))
        * _pochhammer_half(0.5 * (d - n + 1), n)
        * float(scoeffs[n])
        * c1(angle, float(big_d - n), precision)
    )
    if n >= 1:
        total -= (
            SQRT_PI
            * sin_pow
            * (d - n)
            / (2.0 * (d - 1) * factorial(n - 1))
            * _pochhammer_half(0.5 * (d - n + 2), n - 1)
            * float(scoeffs[n - 1])
        )
    if n >= 2:
        structures = omega_structures(n - 1)
        acc = 0.0
        for i in range(1, n):
            coeff = scoeffs[n - i - 1]
            if coeff == 0:
                continue
            acc += (
                (d - n + i)
                / factorial(n - 1 - i)
                * _pochhammer_half(0.5 * (d - n + i + 2), n - i - 1)
                * float(coeff)
                * f_total(i, structures[i - 1], angle, float(big_d - n), precision)
            )
        total -= 2.0 * SQRT_PI / (d - 1) * sin_pow * acc
    return total * sphere_surface_area(d) / (4.0 * math.pi) ** (0.5 * big_d)


def explicit_table_check(
    n: int,
    d: int,
    angle: AngleParams,
    precision: EvalPrecision = DEFAULT_PRECISION,
) -> float:
    """Pure-Laplacian coefficient of index n/2 over a sphere base, evaluated
    from the curated low-order closed forms (n <= 6).  Cross-checks the
    generic pipeline term by term.
    """
    if d < 2:
        raise DomainError("sphere base requires d >= 2")
    big_d = d + 1
    if n > 6:
        raise DomainError("explicit table covers n <= 6 only")
    if n >= big_d:
        raise DomainError("coefficients defined for n < d + 1")
    th = angle
    s2 = th.sin2
    dd = float(d)

    def F(i: int, two_s: float) -> float:
        return f_total(i, omega_structures(i)[i - 1], th, two_s, precision)

    def C(two_s: float) -> float:
        return c1(th, two_s, precision)

    if n == 0:
        scaled = C(float(big_d)) / (dd + 1.0)
    elif n == 1:
        scaled = -0.25
    elif n == 2:
        scaled = (
            -(dd - 3.0) / 12.0 * C(float(big_d - 2))
            - 2.0 * SQRT_PI * F(1, float(big_d - 2))
            + dd**2 / (4.0 * (dd + 1.0)) * s2 * C(float(big_d))
        )
    elif n == 3:
        scaled = (
            (dd - 3.0) * (dd - 1.0) / 48.0
            - F(2, float(big_d - 3))
            - dd**2 / 16.0 * s2
        )
    elif n == 4:
        scaled = (
            (dd - 5.0) * (dd - 1.0) * (5.0 * dd - 3.0) / 1440.0 * C(float(big_d - 4))
            + SQRT_PI * (dd - 3.0) * (dd - 1.0) / 6.0 * F(1, float(big_d - 4))
            - 2.0 * SQRT_PI * F(3, float(big_d - 4))
            - dd**2 * (dd - 3.0) / 48.0 * s2 * C(float(big_d - 2))
            - dd**2 / 2.0 * SQRT_PI * s2 * F(1, float(big_d - 2))
            + dd**4 / (32.0 * (dd + 1.0)) * s2**2 * C(float(big_d))
        )
    elif n == 5:
        scaled = (
            -(dd - 5.0) * (dd - 3.0) * (dd - 1.0) * (5.0 * dd - 3.0) / 5760.0
            + (dd - 3.0) * (dd - 1.0) / 12.0 * F(2, float(big_d - 5))
            - F(4, float(big_d - 5))
            + dd**2 * (dd - 3.0) * (dd - 1.0) / 192.0 * s2
            - dd**2 / 4.0 * s2 * F(2, float(big_d - 3))
            - dd**4 / 128.0 * s2**2
        )
    else:
        scaled = (
            -(dd - 7.0)
            * (dd - 3.0)
            * (dd - 1.0)
            * (35.0 * dd**2 - 28.0 * dd + 9.0)
            / 362880.0
            * C(float(big_d - 6))
            - SQRT_PI
            * (dd - 5.0)
            * (dd - 3.0)
            * (dd - 1.0)
            * (5.0 * dd - 3.0)
            / 720.0
            * F(1, float(big_d - 6))
            + SQRT_PI * (dd - 3.0) * (dd - 1.0) / 6.0 * F(3, float(big_d - 6))
            - 2.0 * SQRT_PI * F(5, float(big_d - 6))
            + dd**2 * (dd - 5.0) * (dd - 1.0) * (5.0 * dd - 3.0) / 5760.0
            * s2
            * C(float(big_d - 4))
            + dd**2 * (dd - 3.0) * (dd - 1.0) / 24.0
            * SQRT_PI
            * s2
            * F(1, float(big_d - 4))
            - dd**2 / 2.0 * SQRT_PI * s2 * F(3, float(big_d - 4))
            - dd**4 * (dd - 3.0) / 384.0 * s2**2 * C(float(big_d - 2))
            - dd**4 / 16.0 * SQRT_PI * s2**2 * F(1, float(big_d - 2))
            + dd**6 / (384.0 * (dd + 1.0)) * s2**3 * C(float(big_d))
        )

    # Undo the tabulated normalization: even n carries (4 pi)^(D/2), odd n
    # carries (4 pi)^(d/2); the sine power is always D - n.
    four_pi_power = 0.5 * big_d if n % 2 == 0 else 0.5 * d
    return (
        scaled
        * angle.sin_theta ** (big_d - n)
        * sphere_surface_area(d)
        / (4.0 * math.pi) ** four_pi_power
    )
