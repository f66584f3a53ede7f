"""Floating-point special functions: Gamma helpers, the Gauss hypergeometric
function on [0, 1], and the angular building blocks C1, C2, C3, C4 that feed
the coefficient assembly.

Everything here is double precision with compensated summation.  The
convention throughout: a Gamma pole in a denominator contributes 0 (the
entire function 1/Gamma), a pole in a numerator raises GammaPole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentAtOne, GammaPole, ParameterPole, SlowConvergence
from .legendre_asymptotics import StructuredOmega, chi

__all__ = [
    "AngleParams",
    "EvalPrecision",
    "DEFAULT_PRECISION",
    "SQRT_PI",
    "recip_gamma",
    "gauss_2f1",
    "c1",
    "c2",
    "c3",
    "c4",
    "f_total",
]


@dataclass(frozen=True)
class AngleParams:
    """Polar opening angle with its cached squared sine and cosine."""

    theta0: float
    sin2: float
    cos2: float

    def __post_init__(self):
        if not 0.0 < self.theta0 < math.pi:
            raise ValueError("theta0 must lie strictly inside (0, pi)")
        if abs(self.sin2 + self.cos2 - 1.0) > 1e-12:
            raise ValueError("sin2 + cos2 must equal 1 to machine precision")

    @classmethod
    def from_theta0(cls, theta0: float) -> "AngleParams":
        s = math.sin(theta0)
        c = math.cos(theta0)
        return cls(theta0, s * s, c * c)

    @property
    def sin_theta(self) -> float:
        return math.sqrt(self.sin2)

    @property
    def cos_theta(self) -> float:
        # keep the sign for theta0 > pi/2
        return math.copysign(math.sqrt(self.cos2), math.cos(self.theta0))


@dataclass(frozen=True)
class EvalPrecision:
    """Series termination policy."""

    rel_tol: float = 1e-13
    max_terms: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-6:
            raise ValueError("rel_tol must lie in (0, 1e-6]")
        if self.max_terms < 1_000:
            raise ValueError("max_terms must be at least 1000")


DEFAULT_PRECISION = EvalPrecision()

SQRT_PI = math.sqrt(math.pi)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def recip_gamma(x: float) -> float:
    """1 / Gamma(x), with the entire-function value 0 at nonpositive integers."""
    if _is_nonpositive_integer(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def _gamma_num(x: float) -> float:
    """Gamma(x) for numerator use; a pole here is a genuine error."""
    if _is_nonpositive_integer(x):
        raise GammaPole(f"Gamma({x}) pole in a numerator")
    return math.gamma(x)


def _kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    y = term - comp
    t = total + y
    return t, (t - total) - y


def _series_2f1(
    a: float,
    b: float,
    c: float,
    x: float,
    precision: EvalPrecision,
    nterms: int | None = None,
) -> float:
    """Direct ascending series with Kahan summation.

    ``nterms`` sums exactly that many terms after the leading 1 (used for
    terminating parameter values); otherwise terms are accumulated until two
    consecutive ones pass the relative tolerance, once past any sign
    turnaround of the Pochhammer factors.
    """
    total, comp = 1.0, 0.0
    term = 1.0
    m = 0
    settled = max(0.0, -a, -b)  # past this index the term signs are fixed
    small_streak = 0
    while True:
        term *= (a + m) * (b + m) / ((c + m) * (1.0 + m)) * x
        total, comp = _kahan_add(total, comp, term)
        m += 1
        if nterms is not None:
            if m >= nterms:
                return total
            continue
        if abs(term) <= precision.rel_tol * abs(total) and m > settled:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        if m >= precision.max_terms:
            raise SlowConvergence(
                f"hypergeometric series at x={x} not converged "
                f"after {precision.max_terms} terms"
            )


def _gauss_value(a: float, b: float, c: float) -> float:
    """Value at unit argument: Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    w = c - a - b
    return _gamma_num(c) * _gamma_num(w) * recip_gamma(c - a) * recip_gamma(c - b)


def _hyp2f1(
    a: float, b: float, c: float, x: float, xc: float, precision: EvalPrecision
) -> float:
    """2F1 on [0, 1] given the argument and its exact complement xc = 1 - x.

    Carrying the complement separately keeps arguments like cos^2(theta)
    accurate when x is within a few ulp of 1.
    """
    if _is_nonpositive_integer(c):
        raise ParameterPole(f"lower parameter c={c} is a nonpositive integer")
    if x < 0.0 or x > 1.0:
        raise ValueError("argument must lie in [0, 1]")
    if x == 0.0:
        return 1.0

    # Terminating series: sum it exactly, any argument.
    cutoffs = [int(-p) for p in (a, b) if _is_nonpositive_integer(p)]
    if cutoffs:
        return _series_2f1(a, b, c, x, precision, nterms=min(cutoffs))

    if x == 1.0 or xc == 0.0:
        if c - a - b <= 0.0:
            raise DivergentAtOne(
                f"2F1 at unit argument needs c-a-b > 0, got {c - a - b}"
            )
        return _gauss_value(a, b, c)

    if x <= 0.5:
        return _series_2f1(a, b, c, x, precision)

    w = c - a - b
    if abs(w - round(w)) > 0.05:
        # Linear connection to argument 1-x; both sub-series have ratio <= 1/2.
        # Near-integer w is routed away: Gamma(-w) approaches a pole there and
        # the cancellation between the two pieces destroys double precision.
        first = (
            _gamma_num(c)
            * _gamma_num(w)
            * recip_gamma(c - a)
            * recip_gamma(c - b)
            * _series_2f1(a, b, 1.0 - w, xc, precision)
        )
        second = (
            xc**w
            * _gamma_num(c)
            * _gamma_num(-w)
            * recip_gamma(a)
            * recip_gamma(b)
            * _series_2f1(c - a, c - b, 1.0 + w, xc, precision)
        )
        return first + second

    # Degenerate integer c-a-b: fall back to the Euler transform when it
    # terminates, else to the direct series with the term-count guard.
    euler_cut = [int(-p) for p in (c - a, c - b) if _is_nonpositive_integer(p)]
    if euler_cut:
        return xc**w * _series_2f1(
            c - a, c - b, c, x, precision, nterms=min(euler_cut)
        )
    return _series_2f1(a, b, c, x, precision)


def gauss_2f1(
    a: float, b: float, c: float, x: float, precision: EvalPrecision = DEFAULT_PRECISION
) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x) for x in [0, 1].

    Symmetric in (a, b) bit for bit.  At x = 1 the Gauss summation formula is
    used and requires c - a - b > 0.
    """
    return _hyp2f1(a, b, c, x, 1.0 - x, precision)


def c1(
    angle: AngleParams, two_s: float, precision: EvalPrecision = DEFAULT_PRECISION
) -> float:
    """Closed-form angular factor 2F1(1/2, s, s+1; sin^2 theta0), s = two_s/2."""
    if two_s <= 0.0:
        raise ValueError("two_s must be positive")
    s = 0.5 * two_s
    return _hyp2f1(0.5, s, s + 1.0, angle.sin2, angle.cos2, precision)


def _check_structure(i: int, structure: StructuredOmega) -> None:
    if structure.order != i:
        raise ValueError(f"structure has order {structure.order}, expected {i}")


def c2(
    i: int, structure: StructuredOmega, angle: AngleParams, d_minus_n: float
) -> float:
    """Gamma-weighted sum over the gamma-free coefficient family.

    sum_b x_{i,b} cos^(i+2b) * Gamma(A + b) / (Gamma(A) Gamma(b + i/2)),
    with A = (d_minus_n + i)/2.
    """
    _check_structure(i, structure)
    if d_minus_n <= 0.0:
        raise ValueError("d_minus_n must be positive")
    big_a = 0.5 * (d_minus_n + i)
    inv_gamma_a = recip_gamma(big_a)
    cos_t = angle.cos_theta
    total, comp = 0.0, 0.0
    for b in range(0, i + 1):
        coeff = structure.x_coeffs[b]
        if coeff == 0:
            continue
        rg = recip_gamma(b + 0.5 * i)
        if rg == 0.0:
            continue
        term = (
            float(coeff)
            * cos_t ** (i + 2 * b)
            * _gamma_num(big_a + b)
            * inv_gamma_a
            * rg
        )
        total, comp = _kahan_add(total, comp, term)
    return total


def c3(
    i: int, structure: StructuredOmega, angle: AngleParams, d_minus_n: float
) -> float:
    """sin^(n-D) sum_j z0^(i,j) Gamma(s + j) / (Gamma(A) Gamma(j))."""
    _check_structure(i, structure)
    if d_minus_n <= 0.0:
        raise ValueError("d_minus_n must be positive")
    s = 0.5 * d_minus_n
    inv_gamma_a = recip_gamma(s + 0.5 * i)
    total, comp = 0.0, 0.0
    for j in range(1, i + 1):
        coeff = structure.z0_coeffs[j]
        if coeff == 0:
            continue
        rg = recip_gamma(float(j))
        if rg == 0.0:
            continue
        term = float(coeff) * _gamma_num(s + j) * inv_gamma_a * rg
        total, comp = _kahan_add(total, comp, term)
    return angle.sin_theta ** (-d_minus_n) * total


def c4(
    i: int,
    structure: StructuredOmega,
    angle: AngleParams,
    d_minus_n: float,
    precision: EvalPrecision = DEFAULT_PRECISION,
) -> float:
    """Hypergeometric form of the mixed coefficient family:

    sin^(n-D) sum_{j,b} z_{i,b,j} cos^(i+2b)
        * Gamma(A + b + j) / (Gamma(A) Gamma(b + j + i/2))
        * 2F1(-s, b + i/2, b + j + i/2; cos^2 theta0),

    with s = d_minus_n/2 and A = s + i/2.
    """
    _check_structure(i, structure)
    if d_minus_n <= 0.0:
        raise ValueError("d_minus_n must be positive")
    s = 0.5 * d_minus_n
    big_a = s + 0.5 * i
    inv_gamma_a = recip_gamma(big_a)
    cos_t = angle.cos_theta
    total, comp = 0.0, 0.0
    for j in range(1, i + 1):
        for b in range(chi(i), i + 1):
            coeff = structure.z_coeffs[(b, j)]
            if coeff == 0:
                continue
            beta = b + 0.5 * i
            gamma_low = beta + j
            # lower 2F1 parameters stay off the poles by construction
            assert beta >= 0.5 and gamma_low >= 1.5
            rg = recip_gamma(gamma_low)
            if rg == 0.0:
                continue
            hyp = _hyp2f1(-s, beta, gamma_low, angle.cos2, angle.sin2, precision)
            term = (
                float(coeff)
                * cos_t ** (i + 2 * b)
                * _gamma_num(big_a + b + j)
                * inv_gamma_a
                * rg
                * hyp
            )
            total, comp = _kahan_add(total, comp, term)
    return angle.sin_theta ** (-d_minus_n) * total


def f_total(
    i: int,
    structure: StructuredOmega,
    angle: AngleParams,
    d_minus_n: float,
    precision: EvalPrecision = DEFAULT_PRECISION,
) -> float:
    """Full angular weight of order i: c2 + c3 + c4."""
    return (
        c2(i, structure, angle, d_minus_n)
        + c3(i, structure, angle, d_minus_n)
        + c4(i, structure, angle, d_minus_n, precision)
    )
