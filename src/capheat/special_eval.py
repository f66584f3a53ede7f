"""Floating-point special functions: Gamma helpers, the Gauss hypergeometric
function on [0, 1], and the angular factors c1 and f_total that feed the
coefficient assembly.

Everything here is double precision with compensated summation.  Every 2F1
series runs through one loop, which a term that is exactly 0 ends: that is
how a terminating series stops, and there is no counted mode.  The
convention throughout: a Gamma pole in a denominator contributes 0 (the
entire function 1/Gamma), a pole in a numerator is a bad argument and raises
ValidationError.

The angular weights evaluate each ingredient once.  The 2F1 values of the z
family are shared by the orders of one index through a dict the caller
passes to f_total and drops with the index.  Gamma and 1/Gamma are memoized
at module level: their arguments in the weights are integers and
half-integers fixed by the dimension and the indices, never by the angle.
No value that depends on the angle outlives one table: such a cache would
pay off only when the same table is asked for again, and a benchmark that
repeats its tables would measure the repetition instead of the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .errors import SlowConvergence, ValidationError
from .legendre_asymptotics import StructuredOmega, chi

__all__ = [
    "AngleParams",
    "SQRT_PI",
    "recip_gamma",
    "gauss_2f1",
    "c1",
    "f_total",
]


@dataclass(frozen=True)
class AngleParams:
    """Polar opening angle with its squared sine and cosine, computed once."""

    theta0: float
    sin2: float = field(init=False)
    cos2: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.theta0 < math.pi:
            raise ValueError("theta0 must lie strictly inside (0, pi)")
        s = math.sin(self.theta0)
        c = math.cos(self.theta0)
        object.__setattr__(self, "sin2", s * s)
        object.__setattr__(self, "cos2", c * c)

    @classmethod
    def from_theta0(cls, theta0: float) -> "AngleParams":
        return cls(theta0)

    @property
    def sin_theta(self) -> float:
        return math.sqrt(self.sin2)

    @property
    def cos_theta(self) -> float:
        # keep the sign for theta0 > pi/2
        return math.copysign(math.sqrt(self.cos2), math.cos(self.theta0))


# Series termination: two consecutive terms below _REL_TOL of the partial
# sum end a series; one still running after _MAX_TERMS terms is an error.
_REL_TOL = 1e-13
_MAX_TERMS = 100_000

SQRT_PI = math.sqrt(math.pi)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


# Bounded memos: the weights ask for a few hundred integer and half-integer
# arguments, none set by the angle.  A pole raises and is not stored.
@lru_cache(maxsize=1024)
def recip_gamma(x: float) -> float:
    """1 / Gamma(x), with the entire-function value 0 at nonpositive integers."""
    if _is_nonpositive_integer(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


@lru_cache(maxsize=1024)
def _gamma_num(x: float) -> float:
    """Gamma(x) for numerator use; a pole here is a genuine error."""
    if _is_nonpositive_integer(x):
        raise ValidationError(f"Gamma({x}) pole in a numerator")
    return math.gamma(x)


def _kahan_sum(terms: Iterable[float]) -> float:
    total, comp = 0.0, 0.0
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _series_2f1(a: float, b: float, c: float, x: float) -> float:
    """Direct ascending series with Kahan summation, in one loop with no
    counted mode.  A term that is exactly 0 ends the sum before it is added,
    which is how a terminating series stops and why x = 0 gives 1; so do two
    consecutive terms within the relative tolerance, once past any sign
    turnaround of the Pochhammer factors."""
    total, comp, term = 1.0, 0.0, 1.0
    # past this index the term signs are fixed; a terminating series meets
    # its zero term before it gets there
    settled = max(0.0, -a, -b)
    small_streak = 0
    m = 0
    while m < _MAX_TERMS:
        term *= (a + m) * (b + m) / ((c + m) * (1.0 + m)) * x
        if term == 0.0:
            return total
        # compensated add, inline: the same operations as _kahan_sum
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        m += 1
        small = _REL_TOL * abs(total)
        if -small <= term <= small and m > settled:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise SlowConvergence(
        f"hypergeometric series at x={x} not converged after {_MAX_TERMS} terms"
    )


def _gauss_value(a: float, b: float, c: float) -> float:
    """Value at unit argument: Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    w = c - a - b
    return _gamma_num(c) * _gamma_num(w) * recip_gamma(c - a) * recip_gamma(c - b)


def _hyp2f1(a: float, b: float, c: float, x: float, xc: float) -> float:
    """2F1 on [0, 1] given the argument and its exact complement xc = 1 - x.

    Carrying the complement separately keeps arguments like cos^2(theta)
    accurate when x is within a few ulp of 1.
    """
    if _is_nonpositive_integer(c):
        raise ValidationError(f"lower parameter c={c} is a nonpositive integer")
    if x < 0.0 or x > 1.0:
        raise ValueError("argument must lie in [0, 1]")

    # Terminating series: sum it exactly, any argument.
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return _series_2f1(a, b, c, x)

    if x == 1.0 or xc == 0.0:
        if c - a - b <= 0.0:
            raise ValidationError(
                f"2F1 at unit argument needs c-a-b > 0, got {c - a - b}"
            )
        return _gauss_value(a, b, c)

    if x <= 0.5:
        return _series_2f1(a, b, c, x)

    w = c - a - b
    if abs(w - round(w)) > 0.05:
        # Linear connection to argument 1-x; both sub-series have ratio <= 1/2.
        # Near-integer w is routed away: Gamma(-w) approaches a pole there and
        # the cancellation between the two pieces destroys double precision.
        first = _gauss_value(a, b, c) * _series_2f1(a, b, 1.0 - w, xc)
        second = (
            xc**w
            * _gamma_num(c)
            * _gamma_num(-w)
            * recip_gamma(a)
            * recip_gamma(b)
            * _series_2f1(c - a, c - b, 1.0 + w, xc)
        )
        return first + second

    # Degenerate integer c-a-b: fall back to the Euler transform when it
    # terminates, else to the direct series with the term-count guard.
    if _is_nonpositive_integer(c - a) or _is_nonpositive_integer(c - b):
        return xc**w * _series_2f1(c - a, c - b, c, x)
    return _series_2f1(a, b, c, x)


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x) for x in [0, 1].

    Symmetric in (a, b) bit for bit.  At x = 1 the Gauss summation formula is
    used and requires c - a - b > 0.
    """
    return _hyp2f1(a, b, c, x, 1.0 - x)


def c1(angle: AngleParams, two_s: float) -> float:
    """Closed-form angular factor 2F1(1/2, s, s+1; sin^2 theta0), s = two_s/2."""
    if two_s <= 0.0:
        raise ValueError("two_s must be positive")
    s = 0.5 * two_s
    return _hyp2f1(0.5, s, s + 1.0, angle.sin2, angle.cos2)


def f_total(
    i: int,
    structure: StructuredOmega,
    angle: AngleParams,
    d_minus_n: float,
    *,
    shared_2f1: dict[tuple[float, int], float] | None = None,
) -> float:
    """Full angular weight of order i, x + z0 + z over the three coefficient
    families of ``structure``, with s = d_minus_n/2 and A = s + i/2:

        x  = sum_b x_{i,b} cos^(i+2b) Gamma(A + b) / (Gamma(A) Gamma(b + i/2)),
        z0 = sin^(n-D) sum_j z0^(i,j) Gamma(s + j) / (Gamma(A) Gamma(j)),
        z  = sin^(n-D) sum_{j,b} z_{i,b,j} cos^(i+2b)
                 * Gamma(A + b + j) / (Gamma(A) Gamma(b + j + i/2))
                 * 2F1(-s, b + i/2, b + j + i/2; cos^2 theta0),

    over b in 0..i for x, j in 1..i, and b in chi(i)..i for z.  Each family
    is a compensated sum of all its terms: no 1/Gamma factor can vanish, as
    its arguments b + i/2 >= 1/2, j >= 1 and b + j + i/2 >= 3/2 are at most
    40 under the order limit of 16.

    ``shared_2f1`` holds the z-family 2F1 values keyed (b + i/2, j).  They
    also depend on d_minus_n and the angle, but not on i, so a caller passes
    one dict to every order of one index and drops it with the index; by
    default each call has a fresh dict.  The cos powers are computed once
    per call, and Gamma and 1/Gamma come from their module-level memo (see
    the module docstring).
    """
    if structure.order != i:
        raise ValueError(f"structure has order {structure.order}, expected {i}")
    if d_minus_n <= 0.0:
        raise ValueError("d_minus_n must be positive")
    if angle.sin2 == 0.0:
        raise OverflowError(f"sin(theta0)^2 underflows at theta0={angle.theta0}")
    if shared_2f1 is None:
        shared_2f1 = {}
    inv_sin = angle.sin_theta ** (-d_minus_n)
    s = 0.5 * d_minus_n
    half_i = 0.5 * i
    big_a = s + half_i
    inv_gamma_a = recip_gamma(big_a)
    cos_t = angle.cos_theta
    lo = chi(i)
    # the lower 2F1 parameters b + i/2 >= 1/2 and b + j + i/2 >= 3/2 stay off
    # the poles by construction; an explicit check, not an assert
    if lo + half_i < 0.5:
        raise ValueError(f"2F1 lower parameter {lo + half_i} too low")
    cos_pow = [cos_t ** (i + 2 * b) for b in range(lo, i + 1)]

    x = _kahan_sum([
        c * cos_pow[b - lo] * _gamma_num(big_a + b) * inv_gamma_a
        * recip_gamma(b + half_i)
        for b, c in structure.x_terms
    ])
    z0 = _kahan_sum([
        c * _gamma_num(s + j) * inv_gamma_a * recip_gamma(float(j))
        for j, c in structure.z0_terms
    ])
    z_terms = []
    for b, j, c in structure.z_terms:
        beta = b + half_i
        hyp = shared_2f1.get((beta, j))
        if hyp is None:
            hyp = shared_2f1[beta, j] = _hyp2f1(
                -s, beta, beta + j, angle.cos2, angle.sin2
            )
        z_terms.append(
            c * cos_pow[b - lo] * _gamma_num(big_a + b + j) * inv_gamma_a
            * recip_gamma(beta + j) * hyp
        )
    z = _kahan_sum(z_terms)
    return x + inv_sin * z0 + inv_sin * z
