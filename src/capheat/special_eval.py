"""Floating-point special functions: Gamma helpers, the Gauss hypergeometric
function on [0, 1], and the angular factors c1 and f_total that feed the
coefficient assembly.

Everything here is double precision with compensated summation.  A Gamma
pole in a denominator contributes 0 (the entire function 1/Gamma); the
planned shapes put none in a numerator.

The assembly's 2F1s have two shapes; only these are planned, and others,
which no caller in the package builds, are refused.  The z family's
2F1(-s, beta; beta + j; cos^2), s = (D - n)/2, terminates when D - n is
even and has the half-integer c - a - b = s + j when it is odd; c1's has
c - a - b = 1/2.  A terminating series is summed directly at any argument.
A c - a - b more than 0.05 from an integer is summed directly up to
x = 1/2 and through the connection formula to 1 - x above it (DLMF
15.8.4).  Every series runs through one loop, which a term that is exactly
0 ends: that is how a terminating series stops.

Every 2F1 and angular weight is a plan and an evaluation.  A plan holds
what the angle does not fix, memoized: a 2F1's Gamma factors and, for each
of its series, a prefix of the term ratios (a + m)(b + m) / ((c + m)(1 + m));
f_total's float coefficients, Gamma ratios, 2F1 plans and z0 sum, by
structure and d_minus_n.  recip_gamma is not memoized itself: the plans and
the sphere base's coefficients, its only callers, are.  The evaluation adds
the cos powers and the series in the order of a direct evaluation, so no
bit moves; the angle's sine, cosine and their squares come from
AngleParams, which computes them once.  The orders of one
index share their z-family 2F1 values through a dict the caller drops.  No
value that depends on the angle outlives one table: a benchmark that
repeats its tables then measures the code, not a cache.  The hot loops,
the 2F1 series and f_total's two sums, call no builtin per series, build no
list of terms, and write each compensated sum inline with _kahan_sum's
operations in its order, so they round exactly as it does.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .errors import (NumericalError, SlowConvergence, ValidationError,
                     _finite, _instance, _positive, _real)
from .legendre_asymptotics import StructuredOmega, chi


@dataclass(frozen=True)
class AngleParams:
    """Polar opening angle, stored as a double, with its sine and cosine
    (signed past pi/2) and their squares, all computed once."""

    theta0: float
    sin2: float = field(init=False)
    cos2: float = field(init=False)
    sin_theta: float = field(init=False)
    cos_theta: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "theta0", _real(self.theta0, "theta0"))
        if not 0.0 < self.theta0 < math.pi:
            raise ValidationError("theta0 must lie strictly inside (0, pi)")
        s = math.sin(self.theta0)
        c = math.cos(self.theta0)
        object.__setattr__(self, "sin2", s * s)
        object.__setattr__(self, "cos2", c * c)
        object.__setattr__(self, "sin_theta", s)
        object.__setattr__(self, "cos_theta", c)

    @classmethod
    def from_theta0(cls, theta0: float) -> "AngleParams":
        return cls(theta0)


# Series termination: two consecutive terms below _REL_TOL of the partial
# sum end a series; one still running after _MAX_TERMS terms is an error.
_REL_TOL = 1e-13
_MAX_TERMS = 100_000

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


def _kahan_sum(terms: Iterable[float]) -> float:
    total, comp = 0.0, 0.0
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# A plan keeps at most this many term ratios of each series it runs: more
# than the 35 the longest series of a D <= 12 sweep takes, few enough that a
# series run to its term budget pins 592 bytes, not 800 kB, and a full plan
# cache with three full prefixes a plan about 14 MB
_PREFIX_CAP = 64
_NO_RATIOS = array("d")


class _Series:
    """One 2F1 series of a plan: its parameters, the index past which its
    term signs are fixed, and a prefix of its term ratios
    (a + m)(b + m) / ((c + m)(1 + m)), none of which depends on the argument.
    The prefix holds the ratios evaluations have consumed, up to _PREFIX_CAP,
    as an immutable snapshot replaced whole: threads that extend one series
    at once can at worst publish a shorter prefix than another's, never
    mixed ratios."""

    __slots__ = ("a", "b", "c", "settled", "ratios")

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = a, b, c
        # past this index the term signs are fixed; a terminating series
        # meets its zero term before it gets there
        self.settled = max(0.0, -a, -b)
        self.ratios = _NO_RATIOS


def _more_ratios(series: _Series, start: int, fresh: list):
    """The term ratios of ``series`` from index ``start`` up to the term
    budget, computed as the loop takes them; those below _PREFIX_CAP are
    appended to ``fresh`` as well."""
    a, b, c = series.a, series.b, series.c
    for m in map(float, range(start, _MAX_TERMS)):
        r = (a + m) * (b + m) / ((c + m) * (1.0 + m))
        if m < _PREFIX_CAP:
            fresh.append(r)
        yield r


def _series_2f1(series: _Series, x: float) -> float:
    """Direct ascending series with Kahan summation.  A term that is exactly
    0 ends the sum before it is added, which is how a terminating series
    stops and why x = 0 gives 1; so do two consecutive terms within the
    relative tolerance, once past any sign turnaround of the Pochhammer
    factors.  The loop runs over the cached ratios, then over those
    _more_ratios computes, and publishes the longer prefix when the series
    ends; each term is term * (ratio * x), as the loop has always rounded."""
    settled = series.settled
    total, comp, term = 1.0, 0.0, 1.0
    small_streak = 0
    tol = _REL_TOL
    m = 0.0  # a float counter: every index up to _MAX_TERMS is exact
    known = ratios = series.ratios
    fresh = None
    try:
        while True:
            for r in ratios:
                term *= r * x
                if term == 0.0:
                    return total
                # compensated add, inline: the same operations as _kahan_sum
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
                m += 1.0
                small = tol * (total if total >= 0.0 else -total)
                if -small <= term <= small and m > settled:
                    small_streak += 1
                    if small_streak >= 2:
                        return total
                else:
                    small_streak = 0
            if fresh is not None:
                raise SlowConvergence(
                    f"hypergeometric series at x={x} not converged after "
                    f"{_MAX_TERMS} terms"
                )
            fresh = []
            ratios = _more_ratios(series, len(known), fresh)
    finally:
        if fresh:
            prefix = known + array("d", fresh)
            if len(series.ratios) < len(prefix):
                series.ratios = prefix


@lru_cache(maxsize=8192)
def _hyp2f1_plan(a: float, b: float, c: float) -> tuple:
    """The part of 2F1(a, b; c; x) that no argument x changes, as (direct
    series, connection): None for a terminating series, else (c-a-b,
    factors, first, second), the connection formula's two sub-series and
    its factors: the Gauss value Gamma(c) Gamma(w) / (Gamma(c-a) Gamma(c-b)),
    w = c - a - b, then Gamma(c), Gamma(-w), 1/Gamma(a) and 1/Gamma(b).
    A Gamma factor outside the double range raises OverflowError; any other
    shape raises ValidationError: no caller in the package builds one."""
    if _is_nonpositive_integer(c):
        raise ValidationError(f"lower parameter c={c} is a nonpositive integer")
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return (_Series(a, b, c), None)
    w = c - a - b
    # near an integer w, Gamma(-w) nears a pole and the two pieces of the
    # connection formula cancel below double precision; finite parameters
    # can still give an infinite w
    if not math.isfinite(w) or abs(w - round(w)) <= 0.05:
        raise ValidationError(f"2F1({a}, {b}; {c}) neither terminates nor "
                              f"has c-a-b={w} more than 0.05 from an integer")
    try:
        g_c = math.gamma(c)
        factors = (g_c * math.gamma(w) * recip_gamma(c - a) * recip_gamma(c - b),
                   g_c, math.gamma(-w), recip_gamma(a), recip_gamma(b))
    except OverflowError:
        raise OverflowError(f"Gamma factors of 2F1({a}, {b}; {c}) overflow") from None
    return (_Series(a, b, c),
            (w, factors, _Series(a, b, 1.0 - w), _Series(c - a, c - b, 1.0 + w)))


def _hyp2f1_eval(plan: tuple, x: float, xc: float) -> float:
    """2F1 of a plan's parameters at x in [0, 1], given its exact complement
    xc = 1 - x, which keeps arguments like cos^2(theta) accurate when x is
    within a few ulp of 1."""
    direct, connection = plan
    # a terminating series is summed directly at any argument
    if connection is None:
        return _series_2f1(direct, x)
    w, factors, first, second = connection
    if x == 1.0 or xc == 0.0:
        if w <= 0.0:
            raise ValidationError(f"2F1 at unit argument needs c-a-b > 0, got {w}")
        return factors[0]
    if x <= 0.5:
        return _series_2f1(direct, x)
    # linear connection to argument 1-x; both sub-series have ratio <= 1/2
    gauss, g_c, g_w, r_a, r_b = factors
    return (gauss * _series_2f1(first, xc)
            + xc**w * g_c * g_w * r_a * r_b * _series_2f1(second, xc))


def _terminating_loss(series: _Series, x: float, value: float) -> float:
    """u * sum|t_m| / |F|, u the unit roundoff: the relative accuracy that
    ``value``, a terminating series at x, may have lost to cancellation."""
    total = term = 1.0
    for r in _more_ratios(series, 0, []):
        term *= abs(r) * x
        total += term
        if term == 0.0:
            break
    return 2.0**-53 * total / abs(value) if value else math.inf


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x) for x in [0, 1], in the
    two shapes the angular factors take: a or b a nonpositive integer, or
    c - a - b more than 0.05 from an integer.  Others raise ValidationError,
    as do non-finite parameters and an x outside [0, 1] (NaN too); no caller
    in the package has them.  A Gamma factor outside the double range (c or
    |c - a - b| above about 171.6) raises OverflowError at every x.

    Symmetric in (a, b) bit for bit.  At x = 1 the Gauss summation formula is
    used and requires c - a - b > 0.  A terminating series 2F1(-N, b; c; x)
    loses to cancellation up to about u * sum|t_m| / |F| relative, u the unit
    roundoff, where sum|t_m| = 2F1(-N, b; c; -x) for b, c > 0: 12% at N = 60,
    b = 1/2, c = 3/2, x = 0.9.  Where that exceeds 1e-10, NumericalError is
    raised.  (The assembly's, N = (D - n)/2, do not pass through here.)
    """
    a, b, c = (_finite(v, f"2F1 {name}") for name, v in zip("abc", (a, b, c)))
    x = _real(x, "2F1 x")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"2F1 argument must lie in [0, 1], got {x}")
    plan = _hyp2f1_plan(a, b, c)
    value = _hyp2f1_eval(plan, x, 1.0 - x)
    if plan[1] is None and (loss := _terminating_loss(plan[0], x, value)) > 1e-10:
        raise NumericalError(f"terminating 2F1({a}, {b}; {c}; {x}) may have lost "
                             f"{loss:.1e} relative to cancellation")
    return value


# slack of c1's upper bound for the rounding of a value near it: a few ulps
_C1_SLACK = 1.0 + 8.0 * 2.0**-52


def c1(angle: AngleParams, two_s: float) -> float:
    """Closed-form angular factor 2F1(1/2, s, s+1; sin^2 theta0), s = two_s/2.

    Its terms are positive and s/(s+k) <= 1, so for x = sin^2 theta0 < 1 the
    value lies in [1, (1 - x)^(-1/2)].  The connection formula's two terms
    cancel at large s away from the equator and can leave that range (from
    D - n = 150 at theta0 = 1); such a value raises NumericalError.
    """
    _instance(angle, AngleParams, "angle")
    two_s = _positive(two_s, "two_s")
    s = 0.5 * two_s
    value = _hyp2f1_eval(_hyp2f1_plan(0.5, s, s + 1.0), angle.sin2, angle.cos2)
    if not 1.0 <= value <= _C1_SLACK / math.sqrt(angle.cos2):
        raise NumericalError(
            f"c1 = {value!r} lies outside its range [1, 1/|cos(theta0)|] at "
            f"theta0={angle.theta0}, D-n={two_s:g}: the connection formula "
            f"cancelled"
        )
    return value


# Keyed by structure identity and d_minus_n.  A table of dimension D needs
# (D - 2)(D - 1)/2 plans at most, and lower D reuse them: 136 serve D <= 18.
@lru_cache(maxsize=1024)
def _weight_plan(structure: StructuredOmega, d_minus_n: float) -> tuple:
    """f_total's part the angle does not fix: chi(i), 1/Gamma(A), the x terms
    (float c, cos power index, Gamma, 1/Gamma), z0, and the z terms (the
    same, then the shared_2f1 key and the 2F1 plan), over each family's
    nonzero coefficients in f_total's order: x by b, z0 by j, z by j then b."""
    i = structure.order
    s = 0.5 * d_minus_n
    half_i = 0.5 * i
    big_a = s + half_i
    inv_gamma_a = recip_gamma(big_a)
    lo = chi(i)
    try:
        x_terms = tuple(
            (float(c), b - lo, math.gamma(big_a + b), recip_gamma(b + half_i))
            for b in range(0, i + 1) if (c := structure.x_coeffs[b])
        )
        z0 = _kahan_sum([
            float(c) * math.gamma(s + j) * inv_gamma_a * recip_gamma(float(j))
            for j in range(1, i + 1) if (c := structure.z0_coeffs[j])
        ])
        z_terms = tuple(
            (float(c), b - lo, math.gamma(big_a + b + j),
             recip_gamma(b + half_i + j), (b + half_i, j),
             _hyp2f1_plan(-s, b + half_i, b + half_i + j))
            for j in range(1, i + 1) for b in range(lo, i + 1)
            if (c := structure.z_coeffs[(b, j)])
        )
    except OverflowError:
        # Gamma(A + b), Gamma(A + b + j) and a z-family 2F1's Gamma(s + j)
        # leave the double range past 171.6
        raise OverflowError(
            f"Gamma factors of the angular weights overflow at "
            f"D-n={d_minus_n:g}, order {i}"
        ) from None
    return lo, inv_gamma_a, x_terms, z0, z_terms


def f_total(
    structure: StructuredOmega,
    angle: AngleParams,
    d_minus_n: float,
    *,
    shared_2f1: dict[tuple[float, int], float] | None = None,
) -> float:
    """Full angular weight x + z0 + z over the three coefficient families of
    ``structure``, of order i, with s = d_minus_n/2 and A = s + i/2:

        x  = sum_b x_{i,b} cos^(i+2b) Gamma(A + b) / (Gamma(A) Gamma(b + i/2)),
        z0 = sin^(n-D) sum_j z0^(i,j) Gamma(s + j) / (Gamma(A) Gamma(j)),
        z  = sin^(n-D) sum_{j,b} z_{i,b,j} cos^(i+2b)
                 * Gamma(A + b + j) / (Gamma(A) Gamma(b + j + i/2))
                 * 2F1(-s, b + i/2, b + j + i/2; cos^2 theta0),

    over b in 0..i for x, j in 1..i, and b in chi(i)..i for z.  Each family
    is a compensated sum of all its terms: no 1/Gamma factor can vanish, as
    its arguments b + i/2 >= 1/2, j >= 1 and b + j + i/2 >= 3/2 are at most
    40 under the order limit of 16.

    Only the cos powers and the 2F1 series depend on the angle; the rest,
    z0 included, is planned once per structure and d_minus_n, and each term
    is still c * cos power * Gamma * 1/Gamma(A) * 1/Gamma * 2F1, left to
    right.  ``shared_2f1`` holds the z-family 2F1 values keyed (b + i/2, j);
    they do not depend on i, so a caller passes one dict to every order of
    one index and drops it with the index.
    """
    if angle.sin2 == 0.0:
        raise OverflowError(f"sin(theta0)^2 underflows at theta0={angle.theta0}")
    if shared_2f1 is None:
        shared_2f1 = {}
    inv_sin = angle.sin_theta ** (-d_minus_n)
    lo, inv_gamma_a, x_plan, z0, z_plan = _weight_plan(structure, d_minus_n)
    i = structure.order
    cos_t = angle.cos_theta
    cos_pow = [cos_t ** (i + 2 * b) for b in range(lo, i + 1)]

    # both families are compensated sums written out: _kahan_sum's steps
    x = comp = 0.0
    for c, k, g, r in x_plan:
        y = c * cos_pow[k] * g * inv_gamma_a * r - comp
        t = x + y
        comp = (t - x) - y
        x = t
    cos2, sin2 = angle.cos2, angle.sin2
    z = comp = 0.0
    for c, k, g, r, key, hyp_plan in z_plan:
        hyp = shared_2f1.get(key)
        if hyp is None:
            hyp = shared_2f1[key] = _hyp2f1_eval(hyp_plan, cos2, sin2)
        y = c * cos_pow[k] * g * inv_gamma_a * r * hyp - comp
        t = z + y
        comp = (t - z) - y
        z = t
    return x + inv_sin * z0 + inv_sin * z
