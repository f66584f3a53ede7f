"""Closed-form base data for the unit d-sphere: the multiplicities and
shifted frequencies of its spectrum, for the eigenvalue oracle, and its heat
coefficients, for the assembly.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from sys import float_info

from .errors import DomainError
from .exact_series import sinh_ratio_coefficients
from .special_eval import SQRT_PI, recip_gamma

__all__ = [
    "degeneracy",
    "sphere_mu",
    "sphere_heat_coefficient",
]


def degeneracy(k: int, d: int) -> int:
    """Multiplicity of the k-th hyperspherical harmonic level on S^d."""
    if d < 2:
        raise DomainError("sphere base requires d >= 2")
    if k < 0:
        raise ValueError("level index must be nonnegative")
    return (2 * k + d - 1) * comb(k + d - 2, d - 2) // (d - 1)


def sphere_mu(k: int, d: int) -> float:
    """Shifted frequency of level k: k + (d-1)/2."""
    return k + 0.5 * (d - 1)


# A bounded memo: the value does not depend on the angle, and a table of
# dimension D asks for the D indices of one d = D - 1.
@lru_cache(maxsize=1024)
def sphere_heat_coefficient(n: int, d: int) -> float:
    """Heat coefficient of index n/2 for the shifted Laplacian on the unit S^d,
    normalized so the index-0 entry equals (4 pi)^(-d/2) vol(S^d).

    2 sqrt(pi) (d-n-1) S_n / (2^d n! (d-1) Gamma((d-n+1)/2)); the reciprocal
    Gamma supplies an exact zero at its poles.  Raises OverflowError when a
    nonzero coefficient falls below the smallest normal double, where it has
    lost digits or underflowed to 0: index 0 does from d = 269.
    """
    if d < 2:
        raise DomainError("sphere base requires d >= 2")
    if n < 0:
        raise ValueError("index must be nonnegative")
    coeff = sinh_ratio_coefficients(d - 1, n)[n]
    if coeff == 0:
        return 0.0
    value = (
        2.0
        * SQRT_PI
        * (d - n - 1)
        * float(coeff)
        / (2**d * factorial(n) * (d - 1))
        * recip_gamma(0.5 * (d - n + 1))
    )
    # (d - n + 1)/2 is a pole of Gamma for even d - n + 1 <= 0
    exact_zero = n == d - 1 or (n > d and (n - d) % 2 == 1)
    if abs(value) < float_info.min and not exact_zero:
        raise OverflowError(
            f"sphere heat coefficient of index n={n} underflows at d={d}"
        )
    return value
