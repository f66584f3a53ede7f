"""Second routes to the package's sphere-base numbers, used only by the tests.

``suspension_coefficient_direct`` assembles a suspension coefficient over the
unit d-sphere with the base data written in closed form, and
``explicit_table_check`` is the paper's printed table for n <= 6; both reuse
the package's angular weights ``c1`` and ``f_total``, so they check the
assembly's bookkeeping, not those weights (``closed_forms`` does that).
``sphere_residue`` and ``residue_to_coefficient`` give the base zeta residues
and the dictionary from residues to heat coefficients.  ``phi`` builds the
expansion functions from their defining recurrence (``phi_step``), which the
package never runs: it computes the cumulant functions straight from a
Riccati recurrence for their logarithm.  ``reconstruct`` reads a structure's
polynomial back out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from capheat.errors import ValidationError
from capheat.exact_series import sinh_ratio_coefficients
from capheat.legendre_asymptotics import NuGPolynomial, StructuredOmega, omega_structures
from capheat.special_eval import SQRT_PI, AngleParams, c1, f_total


def sphere_residue(m: int, d: int) -> Fraction:
    """Residue of the base zeta function at m/2, valid for 2 <= m <= d.

    2^(m-d) * S_(d-m) / ((d-1) (m-2)! (d-m)!) with S_v the v-th scaled
    coefficient of (y/sinh y)^(d-1); zero for odd d-m.
    """
    if d < 2:
        raise ValidationError("sphere base requires d >= 2")
    if not 2 <= m <= d:
        raise ValidationError(
            f"residue formula valid for 2 <= m <= d, got m={m}, d={d}"
        )
    coeff = sinh_ratio_coefficients(d - 1, d - m)[d - m]
    return (
        Fraction(2) ** (m - d)
        * coeff
        / ((d - 1) * factorial(m - 2) * factorial(d - m))
    )


def residue_to_coefficient(s: float, residue: float) -> float:
    """Gamma(s) times the zeta residue at s: the dictionary between residues
    and heat coefficients."""
    return math.gamma(s) * residue


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit d-sphere."""
    return (4.0 * math.pi) ** (0.5 * d) * math.gamma(0.5 * d) / factorial(d - 1)


def _pochhammer_half(x: float, half_steps: int) -> float:
    """(x)_{half_steps/2} = Gamma(x + half_steps/2) / Gamma(x)."""
    return math.gamma(x + 0.5 * half_steps) / math.gamma(x)


def suspension_coefficient_direct(n: int, d: int, angle: AngleParams) -> float:
    """Coefficient of index n/2 on the suspension over S^d (shifted operator),
    via the direct sphere formula rather than the generic base assembly.
    """
    if d < 2:
        raise ValidationError("sphere base requires d >= 2")
    big_d = d + 1
    if n >= big_d:
        raise ValidationError("direct formula valid for n < d + 1")
    sin_pow = angle.sin_theta ** (big_d - n)
    scoeffs = sinh_ratio_coefficients(d - 1, max(n, 0))

    total = (
        sin_pow
        * (d - n - 1)
        / (factorial(n) * (d - 1) * (d - n + 1))
        * _pochhammer_half(0.5 * (d - n + 1), n)
        * float(scoeffs[n])
        * c1(angle, float(big_d - n))
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
        shared_2f1: dict = {}
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
                * f_total(
                    structures[i - 1], angle, float(big_d - n), shared_2f1=shared_2f1
                )
            )
        total -= 2.0 * SQRT_PI / (d - 1) * sin_pow * acc
    return total * sphere_surface_area(d) / (4.0 * math.pi) ** (0.5 * big_d)


def explicit_table_check(n: int, d: int, angle: AngleParams) -> float:
    """Pure-Laplacian coefficient of index n/2 over a sphere base, evaluated
    from the curated low-order closed forms (n <= 6).  Cross-checks the
    generic pipeline term by term.
    """
    if d < 2:
        raise ValidationError("sphere base requires d >= 2")
    big_d = d + 1
    if n > 6:
        raise ValidationError("explicit table covers n <= 6 only")
    if n >= big_d:
        raise ValidationError("coefficients defined for n < d + 1")
    th = angle
    s2 = th.sin2
    dd = float(d)

    def F(i: int, two_s: float) -> float:
        return f_total(omega_structures(i)[i - 1], th, two_s)

    def C(two_s: float) -> float:
        return c1(th, two_s)

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


def phi_step(f: NuGPolynomial) -> NuGPolynomial:
    """One step of the Phi recurrence, a linear map on monomials.

    Derivative part: (1 - v^2)(1 + gamma^2 v^2) / (2 (1 + gamma^2)) * df/dv,
    where (1 + gamma^2 v^2)/(1 + gamma^2) = v^2 + (1 - v^2) g.  Integral part:
    -(g/8) int_1^v [gamma^2 q(t) + 1] f(t) dt with the quadratic weight
    q = 5 t^2 - 1, where g (gamma^2 q + 1) = q + (1 - q) g.  So c g^j v^e maps to

        (c e / 2) (v^(e+1) - v^(e+3)) g^j
        + (c e / 2) (v^(e-1) - 2 v^(e+1) + v^(e+3)) g^(j+1)
        - (c / 8) [5 (v^(e+3) - 1)/(e+3) - (v^(e+1) - 1)/(e+1)] g^j
        - (c / 8) [2 (v^(e+1) - 1)/(e+1) - 5 (v^(e+3) - 1)/(e+3)] g^(j+1).
    """
    # every numerator below is an integer over the common denominator den * m
    m = 8 * lcm(*(e + k for _, e in f.num for k in (1, 3)))
    out: dict[tuple[int, int], int] = {}

    def put(j: int, e: int, c: int) -> None:
        out[j, e] = out.get((j, e), 0) + c

    for (j, e), c in f.num.items():
        if e:
            h = c * e * m // 2
            put(j, e + 1, h)
            put(j, e + 3, -h)
            put(j + 1, e - 1, h)
            put(j + 1, e + 1, -2 * h)
            put(j + 1, e + 3, h)
        a = c * m // (8 * (e + 1))
        b = 5 * c * m // (8 * (e + 3))
        put(j, e + 1, a)
        put(j, e + 3, -b)
        put(j, 0, b - a)
        put(j + 1, e + 1, -2 * a)
        put(j + 1, e + 3, b)
        put(j + 1, 0, 2 * a - b)
    return NuGPolynomial(out, f.den * m)


@lru_cache(maxsize=None)
def phi(n: int) -> NuGPolynomial:
    """n-th expansion function of the Legendre amplitude: Phi_0 = 1 and
    Phi_n = phi_step(Phi_(n-1))."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return NuGPolynomial({(0, 0): 1}) if n == 0 else phi_step(phi(n - 1))


def reconstruct(structure: StructuredOmega) -> NuGPolynomial:
    """The polynomial whose coefficient families ``structure`` holds."""
    i = structure.order
    coeffs = {(0, i + 2 * b): c for b, c in structure.x_coeffs.items()}
    coeffs.update(((j, 0), c) for j, c in structure.z0_coeffs.items())
    coeffs.update(((j, i + 2 * b), c) for (b, j), c in structure.z_coeffs.items())
    return NuGPolynomial.from_monomials(coeffs)
