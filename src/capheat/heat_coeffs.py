"""Assembly of suspension heat kernel coefficients from base-manifold data.

The shifted operator (Laplacian plus d^2/4) is assembled first; the pure
Laplacian follows by an exact convolution, and a mass term folds in the same
way.  Everything is expressed over base heat coefficients, so user-supplied
bases need only the numbers users actually know.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Mapping, Union

from . import sphere_base
from .errors import IndexOutOfRange, InsufficientBaseData, ValidationError
from .legendre_asymptotics import omega_structures
from .special_eval import (
    DEFAULT_PRECISION,
    SQRT_PI,
    AngleParams,
    EvalPrecision,
    _gamma_num,
    c1,
    f_total,
)

__all__ = [
    "SphereBase",
    "UserBase",
    "BaseDescriptor",
    "SuspensionConfig",
    "CoefficientEntry",
    "CoefficientTable",
    "residue_to_coefficient",
    "base_coefficient",
    "assemble_script_A",
    "shift_to_pure_laplacian",
    "mass_shift",
    "log_coefficient",
    "compute_table",
    "table_to_dict",
]


@dataclass(frozen=True)
class SphereBase:
    """Unit d-sphere base; all data comes from closed forms."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValidationError("sphere base requires d >= 2")


@dataclass(frozen=True)
class UserBase:
    """Caller-supplied base: heat coefficients of the shifted base operator.

    ``coefficients[n]`` is the coefficient of index n/2 (half-odd entries
    vanish on closed bases but must be supplied for bases with boundary).
    ``residue_at_minus_half`` enables the log-term coefficient.
    """

    d: int
    coefficients: Mapping[int, float]
    residue_at_minus_half: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("base dimension must be at least 1")


BaseDescriptor = Union[SphereBase, UserBase]


@dataclass(frozen=True)
class SuspensionConfig:
    """Evaluation context for one suspension.

    D is the total dimension (base dimension plus one); n_max is the highest
    coefficient index n requested (coefficient n/2), restricted to n < D.
    """

    D: int
    angle: AngleParams
    base: BaseDescriptor
    n_max: int
    mass: float = 0.0

    def __post_init__(self):
        if self.D < 2:
            raise ValidationError("total dimension must be at least 2")
        if self.base.d != self.D - 1:
            raise ValidationError(
                f"base dimension {self.base.d} inconsistent with D={self.D}"
            )
        if not 0 <= self.n_max < self.D:
            raise ValidationError(
                f"n_max must satisfy 0 <= n_max < D, got n_max={self.n_max}, D={self.D}"
            )
        if self.mass < 0:
            raise ValidationError("mass must be nonnegative")

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


def residue_to_coefficient(s: float, residue: float) -> float:
    """Gamma(s) times the zeta residue at s: the dictionary between residues
    and heat coefficients."""
    return _gamma_num(s) * residue


def base_coefficient(base: BaseDescriptor, n: int) -> float:
    """Base heat coefficient of index n/2; negative indices are zero."""
    if n < 0:
        return 0.0
    if isinstance(base, SphereBase):
        return sphere_base.sphere_heat_coefficient(n, base.d)
    try:
        return float(base.coefficients[n])
    except KeyError:
        raise InsufficientBaseData(
            f"user base missing coefficient for index {n}/2"
        ) from None


def assemble_script_A(
    cfg: SuspensionConfig,
    n: int,
    precision: EvalPrecision = DEFAULT_PRECISION,
) -> float:
    """Coefficient of index n/2 for the shifted operator on the suspension.

    sin^(D-n) [ C1/(2 sqrt(pi) (D-n)) * a_(n/2)
                - a_((n-1)/2) / 4
                - sum_{i=1}^{n-1} a_((n-i-1)/2) F_i ],
    with a_* the base coefficients; the middle term is absent for n = 0.
    """
    if not 0 <= n < cfg.D:
        raise IndexOutOfRange(f"index n={n} outside [0, D); D={cfg.D}")
    if n > cfg.n_max:
        raise IndexOutOfRange(f"index n={n} above configured n_max={cfg.n_max}")
    angle = cfg.angle
    dmn = float(cfg.D - n)
    sin_pow = angle.sin_theta ** (cfg.D - n)

    total = (
        sin_pow
        / (2.0 * SQRT_PI * dmn)
        * c1(angle, dmn, precision)
        * base_coefficient(cfg.base, n)
    )
    if n >= 1:
        total -= sin_pow / 4.0 * base_coefficient(cfg.base, n - 1)
    if n >= 2:
        structures = omega_structures(n - 1)
        for i in range(1, n):
            a_base = base_coefficient(cfg.base, n - i - 1)
            if a_base == 0.0:
                continue
            total -= sin_pow * a_base * f_total(
                i, structures[i - 1], angle, dmn, precision
            )
    return total


def _convolve(table: Mapping[int, float], n: int, step: float) -> float:
    out = 0.0
    for k in range(n // 2 + 1):
        idx = n - 2 * k
        if idx not in table:
            raise InsufficientBaseData(f"missing coefficient for index {idx}/2")
        out += step**k / factorial(k) * table[idx]
    return out


def shift_to_pure_laplacian(script: Mapping[int, float], d: int) -> dict[int, float]:
    """Convolve with the exponential shift (d/2)^2: entry n picks up
    sum_k (d/2)^(2k)/k! times entry n-2k."""
    step = (0.5 * d) ** 2
    return {n: _convolve(script, n, step) for n in sorted(script)}


def mass_shift(cal: Mapping[int, float], m: float) -> dict[int, float]:
    """Fold a mass term into the coefficients: same convolution with -m^2."""
    if m == 0.0:
        return dict(cal)
    step = -(m * m)
    return {n: _convolve(cal, n, step) for n in sorted(cal)}


def log_coefficient(base: BaseDescriptor) -> float | None:
    """Coefficient of the log term: half the base zeta residue at -1/2.

    None for sphere bases (no closed-form residue at -1/2 in scope) and for
    user bases supplied without that residue.
    """
    if isinstance(base, SphereBase) or base.residue_at_minus_half is None:
        return None
    return 0.5 * base.residue_at_minus_half


def compute_table(
    cfg: SuspensionConfig, precision: EvalPrecision = DEFAULT_PRECISION
) -> CoefficientTable:
    """Assemble the full coefficient table for indices 0..n_max.

    cal_A entries are the pure-Laplacian coefficients, with any mass term
    folded in (a mass only reshuffles coefficients, exactly like the shift).
    """
    script = {n: assemble_script_A(cfg, n, precision) for n in range(cfg.n_max + 1)}
    cal = shift_to_pure_laplacian(script, cfg.d)
    if cfg.mass:
        cal = mass_shift(cal, cfg.mass)
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
    cfg = table.config
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
