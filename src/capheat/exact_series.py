"""Exact rational arithmetic: the even coefficients of (y/sinh y)^p, and the
Bernoulli numbers, which are read off those of y/sinh y.

All coefficients are ``fractions.Fraction``; nothing in this module touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

_ZERO = Fraction(0)
_ONE = Fraction(1)


def bernoulli(index: int) -> Fraction:
    """B_index in the convention with B_1 = -1/2, so B_2 = 1/6.

    Odd indices above 1 return zero.  The even ones are read off
    y/sinh y = sum_k (2 - 2^(2k)) B_(2k) y^(2k)/(2k)!.
    """
    if index == 1:
        return Fraction(-1, 2)
    if index % 2 == 1:
        return _ZERO
    return sinh_ratio_coefficients(1, index)[index] / (2 - 2**index)


def sinh_ratio_coefficients(power: int, order: int) -> tuple[Fraction, ...]:
    """Coefficients of (y / sinh y)^power, scaled so that

    (y / sinh y)^power = sum_v coeffs[v] y^v / v!.

    Odd entries vanish.
    """
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
