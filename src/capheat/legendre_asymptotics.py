"""Uniform-asymptotic-expansion functions of the Ferrers Legendre function.

The objects here live in the polynomial ring Q[v, g] where g stands for
(1 + gamma^2)^(-1): every expansion function is a finite sum

    sum_j g^j * P_j(v),

and the generating recurrence provably preserves this form, so all algebra
is exact. ``omega`` produces the cumulant (logarithm) coefficients of the
expansion, ``extract_structure`` reads off the coefficient families used by
the downstream residue formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import StructureViolation, ValidationError
from .exact_series import NuPolynomial, bernoulli

__all__ = [
    "GammaStructuredFunction",
    "StructuredOmega",
    "chi",
    "phi",
    "omega",
    "extract_structure",
    "omega_structures",
]

_ZERO = Fraction(0)

# Highest cumulant order served.  The cold cost grows about 1.4x per order
# (order 16 takes about 5 s); a table with index n_max needs n_max - 1.
_MAX_ORDER = 16


def _check_order(max_order: int) -> None:
    if max_order > _MAX_ORDER:
        raise ValidationError(
            f"cumulant order {max_order} above the limit {_MAX_ORDER}"
        )


def chi(i: int) -> int:
    """Lower limit of the shifted-power family: (1 + (-1)^i)/2 - floor(i/2)."""
    if i < 1:
        raise ValueError("order must be positive")
    return (1 + (-1) ** i) // 2 - i // 2


@dataclass(frozen=True)
class GammaStructuredFunction:
    """Finite sum over j of (1 + gamma^2)^(-j) times a polynomial in v."""

    order: int
    terms: Mapping[int, NuPolynomial] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, order: int, terms: Mapping[int, NuPolynomial]):
        clean = {j: p for j, p in terms.items() if not p.is_zero()}
        return cls(order, clean)

    @classmethod
    def constant(cls, order: int, value) -> "GammaStructuredFunction":
        return cls.from_terms(order, {0: NuPolynomial.monomial(value, 0)})

    def part(self, j: int) -> NuPolynomial:
        return self.terms.get(j, NuPolynomial.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaStructuredFunction):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(self.part(j) == other.part(j) for j in keys)

    def __add__(self, other: "GammaStructuredFunction"):
        order = max(self.order, other.order)
        keys = set(self.terms) | set(other.terms)
        return GammaStructuredFunction.from_terms(
            order, {j: self.part(j) + other.part(j) for j in keys}
        )

    def __sub__(self, other: "GammaStructuredFunction"):
        return self + other.scale(Fraction(-1))

    def scale(self, factor) -> "GammaStructuredFunction":
        return GammaStructuredFunction.from_terms(
            self.order, {j: p.scale(factor) for j, p in self.terms.items()}
        )

    def mul_poly(self, poly: NuPolynomial) -> "GammaStructuredFunction":
        return GammaStructuredFunction.from_terms(
            self.order, {j: p * poly for j, p in self.terms.items()}
        )

    def shift_j(self, by: int = 1) -> "GammaStructuredFunction":
        """Multiply by (1 + gamma^2)^(-by)."""
        return GammaStructuredFunction.from_terms(
            self.order, {j + by: p for j, p in self.terms.items()}
        )

    def __mul__(self, other: "GammaStructuredFunction"):
        out: dict[int, NuPolynomial] = {}
        for j1, p1 in self.terms.items():
            for j2, p2 in other.terms.items():
                j = j1 + j2
                prod = p1 * p2
                out[j] = out.get(j, NuPolynomial.zero()) + prod
        return GammaStructuredFunction.from_terms(self.order + other.order, out)

    def derivative_nu(self) -> "GammaStructuredFunction":
        return GammaStructuredFunction.from_terms(
            self.order, {j: p.derivative() for j, p in self.terms.items()}
        )

    def integral_from_one(self) -> "GammaStructuredFunction":
        return GammaStructuredFunction.from_terms(
            self.order, {j: p.integral_from(1) for j, p in self.terms.items()}
        )


_ONE_MINUS_NU2 = NuPolynomial.from_coeffs([1, 0, -1])
_NU2 = NuPolynomial.from_coeffs([0, 0, 1])
_Q = NuPolynomial.from_coeffs([-1, 0, 5])  # quadratic weight 5 v^2 - 1
_ONE_MINUS_Q = NuPolynomial.one() - _Q


def _phi_step(f: GammaStructuredFunction) -> GammaStructuredFunction:
    # Derivative part: (1 - v^2)(1 + g^2 v^2) / (2 (1 + g^2)) * df/dv, with
    # (1 + g^2 v^2)/(1 + g^2) rewritten as v^2 + (1 - v^2) (1 + g^2)^(-1).
    g = f.derivative_nu().mul_poly(_ONE_MINUS_NU2).scale(Fraction(1, 2))
    deriv_part = g.mul_poly(_NU2) + g.mul_poly(_ONE_MINUS_NU2).shift_j()

    # Integral part: -(1/(8 (1 + g^2))) int_1^v [g^2 q(t) + 1] f(t) dt with the
    # quadratic weight q = 5 t^2 - 1; g^2 q + 1 = (1 + g^2) q + (1 - q).
    int_plain = f.mul_poly(_Q).integral_from_one().scale(Fraction(-1, 8))
    int_shift = (
        f.mul_poly(_ONE_MINUS_Q).integral_from_one().scale(Fraction(-1, 8)).shift_j()
    )
    result = deriv_part + int_plain + int_shift
    return GammaStructuredFunction.from_terms(f.order + 1, result.terms)


# Shared prefix caches, filled in ascending order: _PHIS[n] is Phi_n,
# _LOGS[n] the n-th logarithm coefficient, _OMEGAS[n - 1] and
# _STRUCTURES[n - 1] the cumulant function of order n and its structured
# form.  Asking for a lower order reuses the stored entries; asking for a
# higher one computes only the missing tail.
_PHIS: list[GammaStructuredFunction] = [GammaStructuredFunction.constant(0, 1)]
_LOGS: list[GammaStructuredFunction] = [GammaStructuredFunction.constant(0, 0)]
_OMEGAS: list[GammaStructuredFunction] = []
_STRUCTURES: list["StructuredOmega"] = []


def _extend(cache: list, length: int, entry) -> list:
    """Append entry(k) for k = len(cache), ... until cache has ``length`` items."""
    while len(cache) < length:
        cache.append(entry(len(cache)))
    return cache


def _phi_entry(n: int) -> GammaStructuredFunction:
    return _phi_step(_PHIS[n - 1])


def _log_entry(m: int) -> GammaStructuredFunction:
    # Cumulant log over the structured-function ring:
    # l_m = Phi_m - (1/m) sum_{k<m} k l_k Phi_{m-k}.
    phis = _extend(_PHIS, m + 1, _phi_entry)
    acc = GammaStructuredFunction.constant(0, 0)
    for k in range(1, m):
        acc = acc + (_LOGS[k] * phis[m - k]).scale(Fraction(k, m))
    return GammaStructuredFunction.from_terms(m, (phis[m] - acc).terms)


def _omega_entry(k: int) -> GammaStructuredFunction:
    n = k + 1
    om = _extend(_LOGS, n + 1, _log_entry)[n]
    if n % 2 == 1:
        # Bernoulli counterterm at odd inverse powers.
        om = om - GammaStructuredFunction.constant(0, bernoulli(n + 1) / (n * (n + 1)))
    return GammaStructuredFunction.from_terms(n, om.terms)


def phi(n: int) -> GammaStructuredFunction:
    """n-th expansion function of the Legendre amplitude.

    Seeded with 1, each step applies the derivative term
    (1 - v^2)(1 + g^2 v^2) / (2 (1 + g^2)) * d/dv and subtracts
    1/(8 (1 + g^2)) times the integral from 1 of (5 t^2 + 1/g^2 - 1) times the
    function.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _extend(_PHIS, n + 1, _phi_entry)[n]


def omega(max_order: int = 10) -> list[GammaStructuredFunction]:
    """Cumulant functions of orders 1..max_order.

    Defined by the formal identity (in the inverse expansion parameter)
    -sum_l B_{2l} / (2l (2l-1)) x^{2l-1} + log(1 + sum_j Phi_j x^j)
    = sum_n Omega_n x^n, computed exactly.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    _check_order(max_order)
    return _extend(_OMEGAS, max_order, _omega_entry)[:max_order]


@dataclass(frozen=True)
class StructuredOmega:
    """Coefficient families of a cumulant function of order i.

    x_coeffs[b] multiplies v^(i+2b) in the gamma-free part (b in 0..i);
    z0_coeffs[j] is the constant of the (1+gamma^2)^(-j) part (j in 1..i);
    z_coeffs[(b, j)] multiplies v^(i+2b) there (b in chi(i)..i).
    """

    order: int
    x_coeffs: Mapping[int, Fraction]
    z0_coeffs: Mapping[int, Fraction]
    z_coeffs: Mapping[tuple[int, int], Fraction]

    def reconstruct(self) -> GammaStructuredFunction:
        i = self.order
        terms: dict[int, NuPolynomial] = {
            0: sum(
                (
                    NuPolynomial.monomial(c, i + 2 * b)
                    for b, c in self.x_coeffs.items()
                ),
                NuPolynomial.zero(),
            )
        }
        for j in range(1, i + 1):
            p = NuPolynomial.monomial(self.z0_coeffs[j], 0)
            for b in range(chi(i), i + 1):
                p = p + NuPolynomial.monomial(self.z_coeffs[(b, j)], i + 2 * b)
            terms[j] = p
        return GammaStructuredFunction.from_terms(i, terms)


def extract_structure(omega_i: GammaStructuredFunction) -> StructuredOmega:
    """Read off the x, z0 and z coefficient families of a cumulant function.

    Raises StructureViolation if any monomial falls outside the expected
    pattern (which would signal a recursion bug upstream).
    """
    i = omega_i.order
    if i < 1:
        raise StructureViolation("structured form defined for order >= 1")
    lo = chi(i)
    if any(j < 0 or j > i for j in omega_i.terms):
        raise StructureViolation(f"inverse-gamma power outside 0..{i}")

    x_coeffs = {b: _ZERO for b in range(0, i + 1)}
    for e, c in omega_i.part(0).monomials():
        b, rem = divmod(e - i, 2)
        if rem != 0 or b < 0 or b > i:
            raise StructureViolation(
                f"gamma-free monomial v^{e} outside the v^(i+2b) family"
            )
        x_coeffs[b] = c

    z0_coeffs = {j: _ZERO for j in range(1, i + 1)}
    z_coeffs = {(b, j): _ZERO for j in range(1, i + 1) for b in range(lo, i + 1)}
    for j in range(1, i + 1):
        for e, c in omega_i.part(j).monomials():
            if e == 0:
                z0_coeffs[j] = c
                continue
            b, rem = divmod(e - i, 2)
            if rem != 0 or b < lo or b > i:
                raise StructureViolation(
                    f"monomial v^{e} at inverse-gamma power {j} outside pattern"
                )
            z_coeffs[(b, j)] = c
    return StructuredOmega(i, x_coeffs, z0_coeffs, z_coeffs)


def omega_structures(max_order: int) -> tuple[StructuredOmega, ...]:
    """Structured forms of the cumulant functions of orders 1..max_order."""
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    _check_order(max_order)
    omegas = _extend(_OMEGAS, max_order, _omega_entry)
    structures = _extend(_STRUCTURES, max_order, lambda k: extract_structure(omegas[k]))
    return tuple(structures[:max_order])
