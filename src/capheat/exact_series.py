"""Exact rational arithmetic: Bernoulli numbers and the even coefficients of
(y/sinh y)^p.

All coefficients are ``fractions.Fraction``; nothing in this module touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

__all__ = [
    "bernoulli",
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
