"""Exact rational arithmetic: Bernoulli numbers and the polynomial side of
the uniform Bessel expansion (Olver's u_k, their cumulants D_i, and the even
coefficients of (y/sinh y)^p).

All coefficients are ``fractions.Fraction``; nothing in this module touches
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable

__all__ = [
    "NuPolynomial",
    "bernoulli",
    "u_polynomial",
    "bessel_d_polynomial",
    "sinh_ratio_coefficients",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def _bernoulli_upto(n: int) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    for m in range(n + 1):
        if m == 0:
            out.append(_ONE)
            continue
        s = sum(Fraction(comb(m + 1, k)) * out[k] for k in range(m))
        out.append(-s / (m + 1))
    return tuple(out)


def bernoulli(index: int) -> Fraction:
    """B_index in the convention with B_1 = -1/2, so B_2 = 1/6.

    Odd indices above 1 return zero.
    """
    if index < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if index > 1 and index % 2 == 1:
        return _ZERO
    return _bernoulli_upto(index)[index]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class NuPolynomial:
    """Polynomial in one formal variable with exact rational coefficients.

    ``coeffs[e]`` multiplies the e-th power; trailing zeros are trimmed.
    """

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "NuPolynomial":
        tup = tuple(_as_fraction(c) for c in coeffs)
        while tup and tup[-1] == 0:
            tup = tup[:-1]
        return cls(tup)

    @classmethod
    def zero(cls) -> "NuPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "NuPolynomial":
        return cls((_ONE,))

    @classmethod
    def monomial(cls, coefficient, exponent: int) -> "NuPolynomial":
        c = _as_fraction(coefficient)
        if c == 0:
            return cls(())
        return cls((_ZERO,) * exponent + (c,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return _ZERO

    def monomials(self):
        """Yield (exponent, coefficient) pairs for nonzero coefficients."""
        for e, c in enumerate(self.coeffs):
            if c != 0:
                yield e, c

    def __add__(self, other: "NuPolynomial") -> "NuPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return NuPolynomial.from_coeffs(
            self.coefficient(e) + other.coefficient(e) for e in range(n)
        )

    def __sub__(self, other: "NuPolynomial") -> "NuPolynomial":
        return self + (-other)

    def __neg__(self) -> "NuPolynomial":
        return NuPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, NuPolynomial):
            if self.is_zero() or other.is_zero():
                return NuPolynomial(())
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b != 0:
                        out[i + j] += a * b
            return NuPolynomial.from_coeffs(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "NuPolynomial":
        f = _as_fraction(factor)
        if f == 0:
            return NuPolynomial(())
        return NuPolynomial(tuple(f * c for c in self.coeffs))

    def derivative(self) -> "NuPolynomial":
        return NuPolynomial.from_coeffs(
            e * c for e, c in enumerate(self.coeffs) if e >= 1
        )

    def antiderivative(self) -> "NuPolynomial":
        """Antiderivative with zero constant term."""
        return NuPolynomial.from_coeffs(
            [_ZERO] + [c / (e + 1) for e, c in enumerate(self.coeffs)]
        )

    def integral_from(self, lower) -> "NuPolynomial":
        """Definite integral from ``lower`` to the variable, as a polynomial."""
        anti = self.antiderivative()
        return anti + NuPolynomial.monomial(-anti(_as_fraction(lower)), 0)

    def __call__(self, value: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc


@lru_cache(maxsize=None)
def u_polynomial(k: int) -> NuPolynomial:
    """Olver's Bessel expansion polynomial u_k, degree 3k.

    u_0 = 1 and
    u_{k+1}(x) = x^2 (1 - x^2) u_k'(x) / 2 + (1/8) int_0^x (1 - 5 t^2) u_k(t) dt.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return NuPolynomial.one()
    u = u_polynomial(k - 1)
    x2_one_minus_x2 = NuPolynomial.from_coeffs([0, 0, 1, 0, -1])
    term1 = (x2_one_minus_x2 * u.derivative()).scale(Fraction(1, 2))
    weight = NuPolynomial.from_coeffs([1, 0, -5])
    term2 = (weight * u).integral_from(0).scale(Fraction(1, 8))
    return term1 + term2


@lru_cache(maxsize=None)
def bessel_d_polynomial(i: int) -> NuPolynomial:
    """Cumulant D_i of the u_k: log(1 + sum u_k / v^k) = sum D_i / v^i.

    D_i(x) = sum_{b=0}^{i} x_{i,b} x^{i+2b}.
    """
    if i < 1:
        raise ValueError("index must be positive")
    d: list[NuPolynomial] = [NuPolynomial.zero()]  # placeholder for index 0
    for m in range(1, i + 1):
        s = NuPolynomial.zero()
        for k in range(1, m):
            s = s + (d[k] * u_polynomial(m - k)).scale(Fraction(k, m))
        d.append(u_polynomial(m) - s)
    return d[i]


@lru_cache(maxsize=None)
def sinh_ratio_coefficients(power: int, order: int) -> tuple[Fraction, ...]:
    """Coefficients of (y / sinh y)^power, scaled so that

    (y / sinh y)^power = sum_v coeffs[v] y^v / v!.

    Odd entries vanish.
    """
    if power < 1:
        raise ValueError("power must be positive")
    if order < 0:
        raise ValueError("order must be nonnegative")
    # Miller's power rule for f = h^(-power), h = sinh(y)/y, whose nonzero
    # coefficients are h_k = 1/(k+1)! at even k:
    # f_m = (1/m) sum_{k=1}^{m} ((1 - power) k - m) h_k f_{m-k}.
    f = [_ONE]
    for m in range(1, order + 1):
        s = sum(
            (
                Fraction((1 - power) * k - m, factorial(k + 1)) * f[m - k]
                for k in range(2, m + 1, 2)
            ),
            _ZERO,
        )
        f.append(s / m)
    return tuple(f[v] * factorial(v) for v in range(order + 1))
