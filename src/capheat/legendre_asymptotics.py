"""Uniform-asymptotic-expansion functions of the Ferrers Legendre function.

The objects here live in the polynomial ring Q[v, g] where g stands for
(1 + gamma^2)^(-1): every expansion function is a finite sum

    sum_{j, e} c_{j,e} g^j v^e,

and so are the cumulant (logarithm) coefficients of the expansion, so all
algebra is exact.  ``omega`` produces those coefficients directly, each the
integral from 1 of a term of a Riccati recurrence for the v-derivative of
the logarithm, plus a Bernoulli counterterm at odd orders (``bernoulli``,
read off ``sinh_ratio_coefficients``); ``extract_structure`` reads off the
coefficient families used by the downstream residue formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterator, Mapping

from .errors import StructureViolation, ValidationError, _index

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Highest cumulant order served; a table with index n_max needs n_max - 1.
# The exact algebra takes about 0.09 s cold at order 16 (median of 9 fresh
# processes, 2-core Xeon VM, Python 3.11).  The cap stays there
# because the double-precision angular weights (f_total) lose accuracy at
# high order, not because of the algebra's cost.
_MAX_ORDER = 16


def _check_order(max_order: int) -> None:
    if max_order > _MAX_ORDER:
        raise ValidationError(
            f"cumulant order {max_order} above the limit {_MAX_ORDER}"
        )


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


def chi(i: int) -> int:
    """Lower limit of the shifted-power family: (1 + (-1)^i)/2 - floor(i/2)."""
    return (1 + (-1) ** i) // 2 - i // 2


class NuGPolynomial:
    """Element sum c_{j,e} g^j v^e of Q[v, g], g = (1 + gamma^2)^(-1).

    ``num[(j, e)]`` is the integer numerator of c_{j,e} over the one positive
    denominator ``den``; zero numerators are dropped and the fraction is in
    lowest terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[tuple[int, int], int], den: int = 1):
        num = {k: c for k, c in num.items() if c}
        g = gcd(den, *num.values())
        self.num = {k: c // g for k, c in num.items()} if g > 1 else num
        self.den = den // g

    @classmethod
    def from_monomials(cls, coeffs: Mapping[tuple[int, int], Fraction | int]):
        """The polynomial with coefficient ``coeffs[(j, e)]`` at g^j v^e."""
        den = lcm(*(Fraction(c).denominator for c in coeffs.values()))
        return cls({k: int(c * den) for k, c in coeffs.items()}, den)

    def __add__(self, other: "NuGPolynomial") -> "NuGPolynomial":
        g = gcd(self.den, other.den)
        mine, theirs = other.den // g, self.den // g
        out = {k: c * mine for k, c in self.num.items()}
        for k, c in other.num.items():
            out[k] = out.get(k, 0) + c * theirs
        return NuGPolynomial(out, self.den * mine)

    def __mul__(self, other: "NuGPolynomial") -> "NuGPolynomial":
        out: dict[tuple[int, int], int] = {}
        for (j1, e1), c1 in self.num.items():
            for (j2, e2), c2 in other.num.items():
                k = (j1 + j2, e1 + e2)
                out[k] = out.get(k, 0) + c1 * c2
        return NuGPolynomial(out, self.den * other.den)

    def derivative(self) -> "NuGPolynomial":
        """d/dv: c g^j v^e maps to c e g^j v^(e-1)."""
        return NuGPolynomial(
            {(j, e - 1): c * e for (j, e), c in self.num.items() if e}, self.den
        )

    def integral_from_one(self) -> "NuGPolynomial":
        """The antiderivative in v that vanishes at v = 1:
        c g^j v^e maps to c (v^(e+1) - 1) / (e + 1) g^j."""
        m = lcm(*(e + 1 for _, e in self.num))
        out: dict[tuple[int, int], int] = {}
        for (j, e), c in self.num.items():
            a = c * m // (e + 1)
            out[j, e + 1] = a
            out[j, 0] = out.get((j, 0), 0) - a
        return NuGPolynomial(out, self.den * m)

    def monomials(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """((j, e), c_{j,e}) for each nonzero coefficient, in ascending (j, e)."""
        for k in sorted(self.num):
            yield k, Fraction(self.num[k], self.den)


# The expansion functions obey Phi_0 = 1 and
#     Phi_(n+1) = A dPhi_n/dv - int_1^v h Phi_n dt
# with A = (1 - v^2)(1 + gamma^2 v^2) / (2 (1 + gamma^2))
#        = (1 - v^2)(v^2 + (1 - v^2) g) / 2
# and h = (gamma^2 q + 1) g / 8 = (q + (1 - q) g) / 8, q = 5 v^2 - 1.
# For U = sum_n Phi_n x^n = e^W, differentiating in v and dividing by U
# gives the Riccati equation Y = x ((A Y)' + A Y^2 - h) for Y = dW/dv, so
#     Y_1 = -h,   Y_(n+1) = (A Y_n)' + A sum_{p=1}^{n-1} Y_p Y_(n-p),
# and the n-th coefficient of W = log U is int_1^v Y_n: A(1) = 0 makes every
# Phi_n with n >= 1 vanish at v = 1.
_A = NuGPolynomial({(0, 2): 1, (0, 4): -1, (1, 0): 1, (1, 2): -2, (1, 4): 1}, 2)


# Each function of the order below is computed once per process and kept by
# an lru_cache keyed by the order, which _check_order bounds at _MAX_ORDER.
# Each is a pure function of its order, so threads that race on a first
# call may compute an entry twice but never get different values.
@lru_cache(maxsize=None)
def _y(n: int) -> NuGPolynomial:
    if n == 1:
        return NuGPolynomial({(0, 0): 1, (0, 2): -5, (1, 0): -2, (1, 2): 5}, 8)  # -h
    # sum_{p=1}^{m-1} Y_p Y_(m-p), m = n - 1: each pair p < m - p is formed
    # once and doubled, and an even m adds the middle square once
    m = n - 1
    pairs = NuGPolynomial({})
    for p in range(1, (m + 1) // 2):
        pairs = pairs + _y(p) * _y(m - p)
    square = pairs + pairs
    if m % 2 == 0:
        square = square + _y(m // 2) * _y(m // 2)
    return (_A * _y(m)).derivative() + _A * square


@lru_cache(maxsize=None)
def _omega(n: int) -> NuGPolynomial:
    om = _y(n).integral_from_one()
    if n % 2 == 1:
        # Bernoulli counterterm at odd inverse powers.
        om = om + NuGPolynomial.from_monomials(
            {(0, 0): -bernoulli(n + 1) / (n * (n + 1))}
        )
    return om


def omega(max_order: int) -> list[NuGPolynomial]:
    """Cumulant functions of orders 1..max_order.

    Defined by the formal identity (in the inverse expansion parameter)
    -sum_l B_{2l} / (2l (2l-1)) x^{2l-1} + log(1 + sum_j Phi_j x^j)
    = sum_n Omega_n x^n, computed exactly.
    """
    max_order = _index(max_order, "max_order")
    if max_order < 1:
        raise ValidationError("max_order must be positive")
    _check_order(max_order)
    return [_omega(n) for n in range(1, max_order + 1)]


class StructuredOmega:
    """Coefficient families of a cumulant function of order i.

    x_coeffs[b] multiplies v^(i+2b) in the gamma-free part (b in 0..i);
    z0_coeffs[j] is the constant of the (1+gamma^2)^(-j) part (j in 1..i);
    z_coeffs[(b, j)] multiplies v^(i+2b) there (b in chi(i)..i).

    Every coefficient is an exact ``Fraction``.  Instances compare and hash
    by identity, so a cache keyed by a structure follows that instance.
    """

    __slots__ = ("order", "x_coeffs", "z0_coeffs", "z_coeffs")

    def __init__(
        self,
        order: int,
        x_coeffs: Mapping[int, Fraction],
        z0_coeffs: Mapping[int, Fraction],
        z_coeffs: Mapping[tuple[int, int], Fraction],
    ):
        self.order = order
        self.x_coeffs = x_coeffs
        self.z0_coeffs = z0_coeffs
        self.z_coeffs = z_coeffs


def extract_structure(omega_i: NuGPolynomial, i: int) -> StructuredOmega:
    """Read off the x, z0 and z coefficient families of the cumulant
    function ``omega_i`` of order ``i``.

    Raises StructureViolation if any monomial falls outside the expected
    pattern (which would signal a recursion bug upstream).
    """
    lo = chi(i)
    x_coeffs = {b: _ZERO for b in range(0, i + 1)}
    z0_coeffs = {j: _ZERO for j in range(1, i + 1)}
    z_coeffs = {(b, j): _ZERO for j in range(1, i + 1) for b in range(lo, i + 1)}
    for (j, e), c in omega_i.monomials():
        if j > i:
            raise StructureViolation(f"inverse-gamma power outside 0..{i}")
        b, rem = divmod(e - i, 2)
        if j == 0:
            if rem != 0 or b < 0 or b > i:
                raise StructureViolation(
                    f"gamma-free monomial v^{e} outside the v^(i+2b) family"
                )
            x_coeffs[b] = c
        elif e == 0:
            z0_coeffs[j] = c
        elif rem != 0 or b < lo or b > i:
            raise StructureViolation(
                f"monomial v^{e} at inverse-gamma power {j} outside pattern"
            )
        else:
            z_coeffs[(b, j)] = c
    return StructuredOmega(i, x_coeffs, z0_coeffs, z_coeffs)


# one instance per order: special_eval._weight_plan is keyed by it
@lru_cache(maxsize=None)
def _structure(i: int) -> StructuredOmega:
    return extract_structure(_omega(i), i)


@lru_cache(maxsize=None)
def omega_structures(max_order: int) -> tuple[StructuredOmega, ...]:
    """Structured forms of the cumulant functions of orders 1..max_order."""
    _check_order(max_order)
    return tuple(map(_structure, range(1, max_order + 1)))
