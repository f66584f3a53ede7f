"""Assembly of suspension heat kernel coefficients from base-manifold data.

The shifted operator (Laplacian plus d^2/4) is assembled first; the pure
Laplacian follows by an exact convolution, and a mass term folds in the same
way.  Everything is expressed over base heat coefficients, so user-supplied
bases need only the numbers users actually know; the unit sphere's come
from a closed form.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isfinite
from sys import float_info
from typing import Union

from .errors import InsufficientBaseData, ValidationError, _finite, _index, _instance
from .legendre_asymptotics import (_MAX_ORDER, omega_structures,
                                   sinh_ratio_coefficients)
from .special_eval import SQRT_PI, AngleParams, c1, f_total, recip_gamma


@dataclass(frozen=True)
class SphereBase:
    """Unit d-sphere base; all data comes from closed forms."""

    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", _index(self.d, "sphere base dimension"))
        if self.d < 2:
            raise ValidationError("sphere base requires d >= 2")


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


@dataclass(frozen=True)
class UserBase:
    """Caller-supplied base: heat coefficients of the shifted base operator.

    ``coefficients[n]`` is the coefficient of index n/2 (half-odd entries
    vanish on closed bases but must be supplied for bases with boundary).
    ``residue_at_minus_half`` enables the log-term coefficient.  Keys must
    be nonnegative integers and values finite numbers, stored as floats.
    """

    d: int
    coefficients: Mapping[int, float]
    residue_at_minus_half: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", _index(self.d, "base dimension"))
        if self.d < 1:
            raise ValidationError("base dimension must be at least 1")
        _instance(self.coefficients, Mapping, "coefficients")
        object.__setattr__(self, "coefficients", {
            _index(n, "coefficient index"): _finite(value, f"coefficient {n}")
            for n, value in self.coefficients.items()
        })
        if min(self.coefficients, default=0) < 0:
            raise ValidationError("coefficient indices must be nonnegative")
        if self.residue_at_minus_half is not None:
            object.__setattr__(self, "residue_at_minus_half", _finite(
                self.residue_at_minus_half, "residue_at_minus_half"))


BaseDescriptor = Union[SphereBase, UserBase]


# Highest total dimension: from D = 341 the Gamma factors of c1's connection
# formula overflow a double (at theta0 = 1 for every n_max).
_MAX_D = 340


@dataclass(frozen=True)
class SuspensionConfig:
    """Evaluation context for one suspension.

    D is the total dimension (base dimension plus one), at most _MAX_D;
    n_max is the highest coefficient index n requested (coefficient n/2),
    restricted to n < D.  The mass is stored as a double.
    """

    D: int
    angle: AngleParams
    base: BaseDescriptor
    n_max: int
    mass: float = 0.0

    def __post_init__(self):
        # stored as ints, as SphereBase.d is: a numpy integer overflows in 2**d
        # and rounds sin(theta0)^(D - n) an ulp away
        object.__setattr__(self, "D", _index(self.D, "total dimension"))
        object.__setattr__(self, "n_max", _index(self.n_max, "n_max"))
        _instance(self.angle, AngleParams, "angle")
        _instance(self.base, (SphereBase, UserBase), "base")
        if self.D < 2:
            raise ValidationError("total dimension must be at least 2")
        if self.D > _MAX_D:
            raise ValidationError(
                f"total dimension D={self.D} is above the limit {_MAX_D}"
            )
        if self.base.d != self.D - 1:
            raise ValidationError(
                f"base dimension {self.base.d} inconsistent with D={self.D}"
            )
        if not 0 <= self.n_max < self.D:
            raise ValidationError(
                f"coefficients are defined only for 0 <= n < D; got "
                f"n_max={self.n_max}, D={self.D}"
            )
        if self.n_max - 1 > _MAX_ORDER:
            raise ValidationError(
                f"n_max={self.n_max} needs cumulant order {self.n_max - 1}, "
                f"above the limit {_MAX_ORDER}"
            )
        object.__setattr__(self, "mass", _finite(self.mass, "mass"))
        if self.mass < 0.0:
            raise ValidationError("mass must be nonnegative and finite")

    @property
    def d(self) -> int:
        return self.D - 1


@dataclass(frozen=True)
class CoefficientEntry:
    n: int
    script_A: float
    cal_A: float

    @property
    def n_over_2(self) -> float:
        return 0.5 * self.n


@dataclass(frozen=True)
class CoefficientTable:
    config: SuspensionConfig
    entries: tuple[CoefficientEntry, ...]
    log_coefficient: float | None = None


def base_coefficient(base: BaseDescriptor, n: int) -> float:
    """Base heat coefficient of index n/2; negative indices are zero."""
    if n < 0:
        return 0.0
    if isinstance(base, SphereBase):
        return sphere_heat_coefficient(n, base.d)
    try:
        return base.coefficients[n]
    except KeyError:
        raise InsufficientBaseData(
            f"user base missing coefficient for index {n}/2"
        ) from None


def assemble_script_A(cfg: SuspensionConfig, n: int) -> float:
    """Coefficient of index n/2 for the shifted operator on the suspension.

    sin^(D-n) [ C1/(2 sqrt(pi) (D-n)) * a_(n/2)
                - a_((n-1)/2) / 4
                - sum_{i=1}^{n-1} a_((n-i-1)/2) F_i ],
    with a_* the base coefficients; the middle term is absent for n = 0.
    Raises OverflowError when sin^(D-n) falls below the smallest normal
    double, where it has lost digits or underflowed to 0, and when one of
    the three products of nonzero factors does; C1 raises NumericalError
    where its value leaves the range of its 2F1.
    """
    angle = cfg.angle
    dmn = float(cfg.D - n)
    sin_pow = angle.sin_theta ** (cfg.D - n)
    if sin_pow < float_info.min:
        raise OverflowError(
            f"sin(theta0)^(D-n) underflows at theta0={angle.theta0}, D-n={cfg.D - n}"
        )

    def term(product: float, factor: float) -> float:
        # ``factor`` is the one factor of ``product`` that can be 0
        if factor and abs(product) < float_info.min:
            raise OverflowError(
                f"a term of index n={n} underflows at theta0={angle.theta0}, "
                f"D={cfg.D}"
            )
        return product

    a_base = base_coefficient(cfg.base, n)
    total = term(sin_pow / (2.0 * SQRT_PI * dmn) * c1(angle, dmn) * a_base, a_base)
    if n >= 1:
        a_base = base_coefficient(cfg.base, n - 1)
        total -= term(sin_pow / 4.0 * a_base, a_base)
    if n >= 2:
        structures = omega_structures(n - 1)
        shared_2f1: dict = {}  # the orders of this index share their 2F1 values
        for i in range(1, n):
            a_base = base_coefficient(cfg.base, n - i - 1)
            if a_base == 0.0:
                continue
            weight = f_total(structures[i - 1], angle, dmn, shared_2f1=shared_2f1)
            total -= term(sin_pow * a_base * weight, weight)
    return total


def _exp_shift(table: Mapping[int, float], step: float) -> dict[int, float]:
    """Multiply the expansion by exp(step t): entry n picks up sum_k
    step^k/k! times entry n-2k.  The pure Laplacian takes step (d/2)^2, a
    mass m takes -m^2 (m = 0 adds signed zeros, which change no entry)."""
    out = {}
    for n in sorted(table):
        total = 0.0
        for k in range(n // 2 + 1):
            total += step**k / factorial(k) * table[n - 2 * k]
        out[n] = total
    return out


def log_coefficient(base: BaseDescriptor) -> float | None:
    """Coefficient of the log term: half the base zeta residue at -1/2.

    None for sphere bases (no closed-form residue at -1/2 in scope) and for
    user bases supplied without that residue.
    """
    _instance(base, (SphereBase, UserBase), "base")
    if isinstance(base, SphereBase) or base.residue_at_minus_half is None:
        return None
    return 0.5 * base.residue_at_minus_half


def compute_table(cfg: SuspensionConfig) -> CoefficientTable:
    """Assemble the full coefficient table for indices 0..n_max.

    cal_A entries are the pure-Laplacian coefficients, with any mass term
    folded in (a mass only reshuffles coefficients, exactly like the shift).
    Raises OverflowError, naming the mass where a power of -mass^2
    overflows, and when any entry is not finite (mass^2 can reach inf).
    """
    _instance(cfg, SuspensionConfig, "cfg")
    script = {n: assemble_script_A(cfg, n) for n in range(cfg.n_max + 1)}
    try:  # only the mass shift can overflow: (d/2)^(2k) stays below 1e36
        cal = _exp_shift(_exp_shift(script, (0.5 * cfg.d) ** 2), -(cfg.mass * cfg.mass))
    except OverflowError:
        raise OverflowError(f"the mass term overflows at mass={cfg.mass!r}") from None
    if not all(map(isfinite, [*script.values(), *cal.values()])):
        raise OverflowError("coefficient table has a non-finite entry")
    entries = tuple(
        CoefficientEntry(n, script[n], cal[n]) for n in range(cfg.n_max + 1)
    )
    return CoefficientTable(cfg, entries, log_coefficient(cfg.base))


def _base_to_dict(base: BaseDescriptor) -> dict:
    if isinstance(base, SphereBase):
        return {"type": "sphere", "d": base.d}
    out = {
        "type": "user",
        "d": base.d,
        "coefficients": {str(n): base.coefficients[n] for n in sorted(base.coefficients)},
    }
    if base.residue_at_minus_half is not None:
        out["residue_at_minus_half"] = base.residue_at_minus_half
    return out


def table_to_dict(table: CoefficientTable) -> dict:
    """Serialize to the fixed output schema."""
    cfg = _instance(table, CoefficientTable, "table").config
    return {
        "config": {
            "D": cfg.D,
            "theta0": cfg.angle.theta0,
            "base": _base_to_dict(cfg.base),
            "N": max(1, cfg.n_max - 1),  # highest cumulant order used, at least 1
            "mass": cfg.mass,
        },
        "coefficients": [
            {
                "n_over_2": entry.n_over_2,
                "script_A": entry.script_A,
                "cal_A": entry.cal_A,
            }
            for entry in table.entries
        ],
        "log_coefficient": table.log_coefficient,
    }
