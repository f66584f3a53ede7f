"""Independent ground truth: Ferrers Legendre functions, Dirichlet spectra on
the suspension, truncated heat traces and small-time coefficient fits.

The Ferrers function is evaluated through its ascending hypergeometric
series in (1 - x)/2.  The series is absolutely convergent for any opening
angle below pi, but its partial sums grow roughly like exp(2 w atanh(sqrt z))
before collapsing to an O(1) value.  Every term ratio is a ratio of exact
integers (omega, mu and z are doubles), so the summation runs on Python
integers in binary fixed point, with the number of fractional bits chosen
adaptively from the observed cancellation.  Up to its turning point the
series' terms alternate in sign, and that loop runs on their magnitudes;
past it they keep one sign and shrink geometrically, so a proven bound on
the rest of the sum stops it as soon as the caller's need is met: less for
the root finder, whose signs the bound leaves exact, than for the doubles
of ``ferrers_p``.

At a half-integer order, every channel of an odd-dimensional suspension,
the Ferrers function is elementary: sines and cosines of the degree times
the angle, raised through the order recurrence.  The root finder evaluates
that in doubles first and keeps the value only where an error bound on
the recurrence's magnitudes, or a sharper one through its own solutions,
certifies its sign, which is then the series' exact sign; the series
decides the rest.  Every root trial aims 1e-10 / 16 past its estimate,
far enough that |f| there usually clears the bounds.

One walk over brackets finds a channel's roots.  A scan walks a
quarter-spacing grid, and a spectrum scans only its first channel: sphere
channels interlace, so each later channel walks the roots of the one
before, each root first tried where the channels below extrapolate it,
and walks the grid inside a bracket that shows no sign change.  One
routine pins each root: it walks down the scan's bisection tree, the grid
points and then the midpoints of the scan's cell, and evaluates f only to
decide the first tree point inside the bracket, at Anderson-Bjorck
false-position trials aimed just past their estimates.  So every walk
gives the scan's roots, bit for bit: where f is evaluated, at what
precision and how long each sum runs never decide a root, only signs do.

Everything else runs on doubles: the Ferrers prefactor is a closed form summed
as logarithms, the trace's tail a Sturm-comparison bound in exp, sqrt and log,
and every sum of the trace and the fit a correctly rounded ``math.fsum``, so
no summation order, BLAS or CPU moves a bit.  The oracle imports nothing from
the assembly pipeline it is used to verify: it owns the sphere's channel
data, and only ``heat_trace`` reads ``SphereBase`` and ``SuspensionConfig``.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import (
    AssumptionViolation,
    IllConditioned,
    MissedRootSuspicion,
    NumericalError,
    SlowConvergence,
    TailTooLarge,
    ValidationError,
    _collection,
    _finite,
    _index,
    _instance,
    _positive,
    _real,
)

if TYPE_CHECKING:
    from .heat_coeffs import SuspensionConfig

# Largest opening angle the oracle scans.  It caps the Ferrers series ratio
# z = (1 - cos theta0)/2 at 0.794, short of ferrers_p's own refusal above
# z = 0.9 (theta0 about 2.498), and with it the length of every series; the
# cost limits below are timed at this angle.
THETA0_GUARD = 2.2
_MAX_SERIES_TERMS = 2_000_000
# A channel's cost grows about as omega_max^2.5: at mu = 1 and theta0 =
# 2.2 it takes about 1.5 s at omega_max 500 and 8 s at 1,000 (2-core
# Intel Xeon VM, Python 3.11.7), a half-integer mu about a third of that.
# The largest cutoff the tests use is 120.
_MAX_OMEGA = 1_000.0
# Largest |omega| of ferrers_p: at x = -0.8, its hardest argument, a call
# takes about 0.8 s at mu = 1/2 and up to 1.3 s at larger mu (same VM).
_MAX_FERRERS_OMEGA = 10_000.0
# Bisection width of a root, and how far past its estimate a trial aims:
# the series' sign is exact at any distance from a root, but within about
# 1e-13 of one |f| is below the closed form's error bound, so trials aim
# past that
_ABS_TOL = 1e-10
_AIM = _ABS_TOL / 16.0
# Bound on the estimated root count of a spectrum (criterion 6 estimates
# 2,078).  Near it a d = 2 spectrum takes about 3.9 s at theta0 = 2.2
# (omega_max 168.9, 11,284 roots) and 1.8-2.4 s at pi/3 (263.1, 8,595
# roots), and a d = 3 one, all series, 8.6 s at 2.2 (same VM).
_MAX_ROOTS = 10_000
# The caller's target for the Ferrers series' tail bound, in bits below the
# sum: ferrers_p's doubles need 64; the root finder needs only the signs,
# which the bound leaves exact, and values good enough to steer false
# position.
_VALUE_BITS = 64
_SIGN_BITS = 24
# Unit of _half_integer_factor's error bound: 8 u, u = 2**-53
_CLOSED_FORM_ULPS = 8 * 2.0**-53
# Units, floor and slack of _half_integer_factor's second bound
_STEP_ULPS, _START_ULPS = 12 * 2.0**-53, 5 * 2.0**-53
_SHARP_FLOOR, _SHARP_SLACK = 2.0**-900, 2.0**-953
# Highest index fit_asymptotics fits, and so the highest verify --max-n.
_MAX_N_FIT = 4
# Sweeps of the fit's Jacobi SVD, as in LAPACK's xGESVJ; README verify needs 5
_MAX_SWEEPS = 30
# log of the largest double
_LOG_MAX = math.log(sys.float_info.max)


def degeneracy(k: int, d: int) -> int:
    """Multiplicity of the k-th hyperspherical harmonic level on S^d."""
    return (2 * k + d - 1) * math.comb(k + d - 2, d - 2) // (d - 1)


def sphere_mu(k: int, d: int) -> float:
    """Shifted frequency of level k: k + (d-1)/2, the order of channel k."""
    return k + 0.5 * (d - 1)


@dataclass(frozen=True)
class EigenvalueChannel:
    """All Dirichlet roots of one angular channel (fixed mu).  The order mu
    and the roots are positive doubles, stored as a float and a tuple of
    floats, and the degeneracy an integer of at least 1."""

    mu: float
    degeneracy: int
    roots: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", _positive(self.mu, "channel mu"))
        object.__setattr__(self, "degeneracy",
                           _index(self.degeneracy, "degeneracy"))
        if self.degeneracy < 1:
            raise ValidationError("degeneracy must be at least 1")
        object.__setattr__(self, "roots", tuple(
            _positive(w, "root") for w in _collection(self.roots, "roots")))


@dataclass(frozen=True)
class HeatTraceSample:
    """One trace value; tail_bound bounds its relative truncation error."""

    t: float
    value: float
    tail_bound: float


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, ...]
    condition_number: float


def _series_state(prec: int, omega: float, mu: float, z: float,
                  bits: int) -> tuple[int, int]:
    """Sum the hypergeometric factor of the Ferrers function in binary fixed
    point: integers scaled by 2**prec.  omega, mu and z are doubles, so every
    term ratio is a ratio of exact integers.  The denominators of omega and
    z are powers of two: their share of each division is a right shift,
    which floors exactly as the full division does.  Each step rounds
    toward zero.  Returns (sum, max term magnitude), both scaled.

    Up to the turning point, m <= |omega|, every term ratio
    ((m - 1/2)^2 - w^2) z / (m (m + mu)) is negative, so the terms alternate
    in sign: that loop runs on their magnitudes, which rounding toward zero
    floors, and keeps r = a_m - r, the sum times the sign of term m.  The
    numerator and denominator of each ratio step by additions.  Past the
    turning point every later ratio lies in (0, z) for mu > 0: the later
    terms keep the sign of term m and shrink geometrically, so the rest of
    the sum is below |term m| z / (1 - z).  It stops once that bound, with
    z / (1 - z) rounded up to an integer, is below 2**-bits of the sum, or,
    for a sum that is 0 or noise, once a term falls below 2**(3 - prec)
    times the largest one."""
    wn, wd = omega.as_integer_ratio()
    un, ud = mu.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    num_scale = zn * ud
    shift = 2 * wd.bit_length() + zd.bit_length() - 1  # 4 wd^2 zd is 2**shift
    tail_scale = -(-zn // (zd - zn)) << bits  # ceil(z / (1 - z)) 2**bits
    wd2 = wd * wd
    # term m's ratio is num / (q 2**shift) with num = ((2m - 1)^2 wd^2 -
    # 4 wn^2) num_scale, which grows by step = 8 wd^2 m num_scale to term
    # m + 1, and q = m (m ud + un), which grows by dq = (2m + 1) ud + un
    step = step_inc = 8 * wd2 * num_scale
    neg_num = (4 * wn * wn - wd2) * num_scale
    q, dq, dq_inc = ud + un, 3 * ud + un, 2 * ud
    a = r = max_abs = 1 << prec
    last = int(abs(omega))
    if last > _MAX_SERIES_TERMS:
        raise SlowConvergence("Ferrers series exceeded the term budget")
    # up to the turning point no stop rule applies, so only the peak is kept
    for _ in range(last):
        a = (a * neg_num >> shift) // q
        neg_num -= step
        step += step_inc
        q += dq
        dq += dq_inc
        r = a - r
        if a > max_abs:
            max_abs = a
    term, total = (-a, -r) if last & 1 else (a, r)
    num = -neg_num
    # every ratio from here on is below 1 in magnitude: the peak stays
    stop_below = max_abs >> (prec - 3)
    m = last
    while True:
        m += 1
        p = term * num
        # toward zero: a floored negative term can stall above stop_below
        term = (p >> shift) // q if p >= 0 else -((-p >> shift) // q)
        num += step
        step += step_inc
        q += dq
        dq += dq_inc
        total += term
        a = abs(term)
        if a < stop_below or a * tail_scale < abs(total):
            return total, max_abs
        if m > _MAX_SERIES_TERMS:
            raise SlowConvergence("Ferrers series exceeded the term budget")


def _ferrers_factor(mu: float, omega: float, z: float, bits: int,
                    state: dict) -> float:
    """2F1(1/2 - w, 1/2 + w; 1 + mu; z), cancellation-safe.

    The series is summed in fixed point, first with the channel's hint of
    fractional bits or, in a fresh ``state``, with 70 + 32, the hint a sum
    that loses nothing to cancellation leaves: a first sum can pass there.
    The bits lost to cancellation (log2 of max term over sum) plus 70
    decide whether the sum carries 53 good bits, and the fractional bits
    are raised until it does.
    A sum that rounds to 0 has lost every fractional bit and escalates too:
    only the lockstep rule below returns 0, and that 0.0 is a bound, not a
    value: a lockstep first seen at p fractional bits and again at 2p or
    more puts the factor below about 2**-p, with p at least 70 plus log2
    of the largest term.  ``state`` carries the hint between calls of the
    same channel.  ``bits`` is the caller's target for the series' tail
    bound: the value is good to about 2**-bits relative, and its sign is
    exact at any target.
    """
    prec = state.get("prec", 70 + 32)
    prev_gap = prev_prec = lockstep_prec = None
    for _ in range(12):
        total, max_abs = _series_state(prec, omega, mu, z, bits)
        log_peak = math.log2(max_abs)
        gap = log_peak - math.log2(max(abs(total), 1))
        needed = int(gap) + 70
        if needed <= prec:
            # generous hint: within a channel the cancellation grows with
            # omega, and extra bits are cheaper than re-summation
            state["prec"] = needed + 32
            return total / (1 << prec)  # correctly rounded
        # Below the peak term's integer bits plus a margin, the rounding of
        # the early terms, amplified by the growth up to the peak, swamps
        # the sum: a residual that shrinks with precision there is noise.
        floor = int(log_peak) - prec + 70
        if prec >= floor:
            if prev_gap is not None and gap - prev_gap > 0.9 * (prec - prev_prec):
                # the residual shrinks in lockstep with the working
                # precision: the sum is an analytic zero, not a cancellation
                # shortfall, if it still does so at twice the precision, the
                # next round's.
                if lockstep_prec is None:
                    lockstep_prec = prec
                elif prec >= 2 * lockstep_prec:
                    return 0.0
            prev_gap, prev_prec = gap, prec
        prec = max(needed + 32, floor, 2 * (lockstep_prec or 0))
    raise SlowConvergence("Ferrers series precision escalation failed")


def ferrers_p(mu: float, omega: float, x: float) -> float:
    """Ferrers function of the first kind, order -mu, degree -1/2 + omega.

    Evaluated as ((1-x)/(1+x))^(mu/2) 2F1(1/2-w, 1/2+w; 1+mu; (1-x)/2)
    divided by Gamma(1 + mu); even in omega.  The prefactor joins the
    factor's logarithm before a single exp, and a product beyond the double
    range raises NumericalError.
    """
    mu, omega = _positive(mu, "mu"), _finite(omega, "omega")
    x = _real(x, "x")
    if abs(omega) > _MAX_FERRERS_OMEGA:
        raise ValidationError(
            f"|omega| {abs(omega)} is above the limit {_MAX_FERRERS_OMEGA:g}"
        )
    if not -1.0 < x < 1.0:
        raise ValidationError("argument must lie in (-1, 1)")
    z = 0.5 * (1.0 - x)
    if z > 0.9:
        raise ValidationError("argument too close to -1 (angle too close to pi)")
    factor = _ferrers_factor(mu, omega, z, _VALUE_BITS, {})
    if factor == 0.0:
        return 0.0
    log_value = (
        0.5 * mu * (math.log1p(-x) - math.log1p(x))
        - math.lgamma(1.0 + mu)
        + math.log(abs(factor))
    )
    if log_value > _LOG_MAX:
        raise NumericalError(
            f"Ferrers function at mu={mu}, omega={omega}, x={x} overflows a double"
        )
    return math.copysign(math.exp(log_value), factor)


def _pinned_root(f, grid: list[float], a: float, fa: float, b: float,
                 fb: float, first: float | None = None,
                 slope: float | None = None) -> tuple[float, float]:
    """The root that the scan of ``grid`` finds in the sign-change bracket
    (a, b) of f, where fa = f(a), fb = f(b) and 0 <= a < b <= grid[-1], or
    at an exact zero a = b, and log |f'| there.

    The walk goes down the scan's bisection tree: the grid points above a,
    which pick the scan's cell, then the midpoints of that cell, to
    _ABS_TOL.  A tree point outside (a, b) has the sign of the nearer end,
    and f is evaluated only to decide the first one inside, each trial
    shrinking (a, b); the root is the midpoint of the last cell.  So the
    signs alone fix the root, bit for bit, and the trials move only the
    cost.  They are false position's, with the Anderson-Bjorck modification
    (Anderson & Bjorck, BIT 13 (1973) 253): when an end is kept a second
    time in a row, its value is scaled by m = 1 - f(x) / f(e), e the end x
    replaced, or by 1/2 when m <= 0, where the Illinois method always
    halves it.  ``first``, when given, is the first estimate.  ``slope``,
    when given, is f's predicted slope at the root: the next estimate is
    then the Newton step, and the one after it the secant through the last
    two.  Every trial aims _AIM past its estimate toward the undecided tree
    point, stopping on it rather than passing it, so that an estimate that
    close to the root decides the point in one evaluation; a trial not
    strictly inside (a, b) becomes that point.
    An exact zero collapses the bracket: it is the root where the walk
    meets it, else the midpoint of its last cell.

    log |f'| is that of the secant through f's values at the last bracket's
    ends: NaN after an exact zero, -inf for a zero slope."""
    left_positive = fa > 0
    ya, yb = fa, fb  # the ends' values, which the modification leaves
    kept = 0  # -1 after keeping b, +1 after keeping a
    x, prev = first, None
    tol, aim = _ABS_TOL, _AIM
    j = bisect.bisect_left(grid, a)  # grid[j - 1] < a <= grid[j]
    lo, p = grid[j - 1], grid[j]
    scanning = True  # p is the grid point that closes the scan's cell
    while True:
        # walk the tree points that (a, b) decides, down to the first
        # strictly inside it, p, or to the last cell
        if scanning:
            while p <= a:
                if p == b:  # an exact zero, on the tree
                    return p, math.nan
                lo, j = p, j + 1
                p = grid[j]
            hi = p
            scanning = p < b
        if not scanning:
            while hi - lo > tol:
                p = 0.5 * (lo + hi)
                if p <= a:
                    if p == b:
                        return p, math.nan
                    lo = p
                elif p >= b:
                    hi = p
                else:
                    break
            else:
                break
        if x is None:
            x = b - fb * (b - a) / (fb - fa)
        x = min(x + aim, p) if x < p else max(x - aim, p)
        if not a < x < b:
            x = p
        fx = f(x)
        if fx == 0.0:
            a = b = x
            continue
        if (fx > 0) == left_positive:
            if kept == -1:
                m = 1.0 - fx / fa
                fb *= m if m > 0.0 else 0.5
            a, fa, ya = x, fx, fx
            kept = -1
        else:
            if kept == 1:
                m = 1.0 - fx / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, yb = x, fx, fx
            kept = 1
        if slope:  # 0 and None give no Newton step
            prev, x, slope = (x, fx), x - fx / slope, None
        elif prev is not None and fx != prev[1]:
            x = x - fx * (x - prev[0]) / (fx - prev[1])
            prev = None
        else:
            x = prev = None
    secant = (yb - ya) / (b - a) if a < b else math.nan  # NaN: exact zero
    return 0.5 * (lo + hi), math.log(abs(secant)) if secant else -math.inf


def _check_scan(mu: float, theta0: float, omega_max: float) -> tuple:
    """The scan's mu, theta0 and omega_max as doubles, or ValidationError."""
    theta0 = _real(theta0, "theta0")
    if not 0.0 < theta0 <= THETA0_GUARD:
        raise ValidationError(f"theta0 must lie in (0, {THETA0_GUARD}]")
    # with theta0 <= THETA0_GUARD the cutoff's limit caps the scan at 2,801 points
    return _positive(mu, "mu"), theta0, _check_cutoff(omega_max)


def _check_cutoff(omega_max: float) -> float:
    omega_max = _positive(omega_max, "omega_max")
    if omega_max > _MAX_OMEGA:
        raise ValidationError(f"omega_max {omega_max} is above the limit {_MAX_OMEGA:g}")
    return omega_max


def _half_integer_factor(mu: float, z: float, otherwise):
    """For half-integer mu up to _MAX_OMEGA (a higher channel has no root
    below any scan's cutoff) and 0 < z <= 0.8, the Ferrers factor of
    ``_ferrers_factor`` as a function of omega, in doubles: a value whose
    sign is certified, else ``otherwise(omega)``; None for another mu or z.
    At theta = 2 asin(sqrt z), P^(-mu)_(w-1/2) (cos theta) is (2 / (pi sin
    theta))^(1/2) s_K, K = mu - 1/2, where s_-1 = cos(w theta), s_0 =
    sin(w theta) / w (DLMF 14.5.11-12) and the order recurrence (DLMF
    14.10.1) steps s_k = (b_k s_(k-1) - s_(k-2)) / d_k, b_k = (2k - 1) c, c
    = cot theta, d_k = (w - k)(w + k); the factor is that times
    Gamma(1 + mu) ((1 - z) / z)^(mu/2), a positive constant of the channel.

    The error bounds (Higham 2002, section 3) assume that libm's asin, sin
    and cos are within 1 ulp, as glibc's are.  With u = 2**-53, the phase
    (asin's condition number is below 1.81 up to z = 0.8) and those calls
    cost at most 5 (|w| theta + 1) u of the start's magnitudes (1, 1/|w|),
    and each step's roundings at most 11 u of its magnitudes, the terms of
    the recurrence run on |c| and magnitudes, m: d_k is good to 3 u, where
    w^2 - k^2 would lose w^2 / |w^2 - k^2| of it.  m bounds every |s_k|, so
    8 u (|w| theta + 1 + 4 K) m_K, a margin of 1.6 on the start and 2.9 on
    the steps, bounds the error of s_K.  Where that bound, B, does not
    clear |s_K| and K < w <= _MAX_OMEGA, a second pass sharpens it (Olver,
    J. Res. NBS 71B (1967) 111).  An error e_k of step k reaches s_K as e_k
    g_k, g_k = (A_K B_(k-1) - B_K A_(k-1)) / W_k, with A and B the solutions
    from (s_-1, s_0) = (1, 0) and (0, 1) and W_k = W_(k-1) / d_k, W_0 = -1,
    their Casoratian; the start's errors reach it through A_K and B_K.  The
    adjoint recurrence g_(k-1) = b_k g_k / d_k + h_k, h_(k-1) = -g_k / d_k
    runs from g_K = 1, h_K = 0 down to g_0 = B_K, h_0 = A_K and forms no W,
    whose product of d_k leaves the doubles.  So 12 u sum_k |g_k| (|b_k
    s_(k-1)| + |s_(k-2)|) / |d_k| + 5 (|w| theta + 1) u (|A_K| + |B_K| /
    |w|) over the doubles' values bounds the error to first order, and
    B^2 / m_K >= 256 u^2 K (K + |w| theta + 1) m_K the rest: the g_k's own
    rounding, at most 11 u (K - k) of their magnitudes, costs at most 144
    u^2 K (K + |w| theta + 1) m_K.  Each factor of the pass's products is
    0 or at least _SHARP_FLOOR, else the bound is inf, and its |d_k| are
    below 2**22, so none of its operations underflows; _SHARP_SLACK covers
    the bound's own terms.  It serves trials near roots, which lie above
    mu: below the last pole the steps climb against the dominant solution,
    and a value it certifies there can be 5% off (mu = 30.5, theta0 =
    pi/3, w = 12.25).

    A value within those bounds of 0, an m beyond the normal doubles, or a
    B above m_K / 4, where the first-order rates no longer cover the rest,
    is left to ``otherwise``: the series decides there.  So are w = 0 and
    an integer w <= K, a pole of step w."""
    if not ((2.0 * mu) % 2.0 == 1.0 and mu <= _MAX_OMEGA and 0.0 < z <= 0.8):
        return None
    theta = 2.0 * math.asin(math.sqrt(z))
    c = (1.0 - 2.0 * z) / (2.0 * math.sqrt(z * (1.0 - z)))
    ladder = [(float(k), (2 * k - 1) * c, (2 * k - 1) * abs(c))
              for k in range(1, int(mu) + 1)]
    top = float(len(ladder))
    log_scale = (-0.5 * math.log(math.pi * math.sqrt(z * (1.0 - z)))
                 + math.lgamma(1.0 + mu) + 0.5 * mu * (math.log1p(-z) - math.log(z)))
    tiny, floor, log_max = sys.float_info.min, _SHARP_FLOOR, _LOG_MAX
    cos, sin, log, exp, copysign = math.cos, math.sin, math.log, math.exp, math.copysign

    def sharp_bound(w: float, wt: float, bound: float, m: float) -> float:
        g, h, back = 1.0, 0.0, []
        for k, b, _ in reversed(ladder):
            d = (w - k) * (w + k)
            back.append((b, d, abs(g)))
            g, h = b * g / d + h, -g / d
            if 0.0 < abs(g) < floor:
                return math.inf
        s_prev, s, total = cos(wt), sin(wt) / w, 0.0
        for b, d, weight in reversed(back):
            if -floor < s < floor:
                return math.inf
            p = b * s
            total += (abs(p) + abs(s_prev)) / abs(d) * weight
            s_prev, s = s, (p - s_prev) / d
        return (_STEP_ULPS * total + _START_ULPS * (wt + 1.0) * (abs(h) + abs(g) / w)
                + bound * (bound / m) + _SHARP_SLACK)

    def factor(omega: float) -> float | None:
        w = omega if omega > 0.0 else -omega
        if w == 0.0 or w <= top and w.is_integer():
            return otherwise(omega)
        wt = w * theta
        s_prev, s, m_prev, m = cos(wt), sin(wt) / w, 1.0, 1.0 / w
        for k, b, size in ladder:
            d = (w - k) * (w + k)
            if m < tiny:  # an infinite or NaN m fails the bound
                return otherwise(omega)
            s_prev, s = s, (b * s - s_prev) / d
            m_prev, m = m, (size * m + m_prev) / (d if d > 0.0 else -d)
        bound = _CLOSED_FORM_ULPS * (wt + 1.0 + 4.0 * top) * m
        a = s if s > 0.0 else -s
        if not (tiny <= bound < 0.25 * m and (a > bound or top < w <= _MAX_OMEGA
                                              and a > sharp_bound(w, wt, bound, m))):
            return otherwise(omega)
        log_value = log(a) + log_scale
        value = exp(log_value) if log_value < log_max else 0.0
        return copysign(value, s) if value >= tiny else otherwise(omega)

    return factor


def _channel(mu: float, theta0: float, state: dict):
    """The Dirichlet function f of channel mu at theta0, as a function of
    omega: the Ferrers factor at cos(theta0), with the root finder's
    tail-bound target.  Where ``_half_integer_factor`` covers the channel,
    f is its closed form, which calls the series wherever it cannot certify
    its sign, so that each evaluation is one call.  ``state`` carries the
    series' precision hint between evaluations; a spectrum passes one
    through all its channels, so each starts from the hint the channel
    below left."""
    z = 0.5 * (1.0 - math.cos(theta0))

    def series(w: float) -> float:
        return _ferrers_factor(mu, w, z, _SIGN_BITS, state)

    return _half_integer_factor(mu, z, series) or series


def _scan_grid(theta0: float, omega_max: float) -> list[float]:
    """The scan's points: 0, then steps of pi/(4 theta0) (a quarter of the
    asymptotic root spacing), ending at omega_max."""
    step = math.pi / (4.0 * theta0)
    # 0.0, not step * 0, which is NaN where the step overflows
    grid = [0.0, *(step * j for j in range(1, int(omega_max / step) + 1))]
    if grid[-1] < omega_max:
        grid.append(omega_max)
    return grid


def _extrapolated(lower: Sequence[Sequence[float]]) -> list[float | None]:
    """The next channel's values, roots or log |f'| at them, extrapolated in
    mu (step 1) from the channels in ``lower`` (nearest last), one per value
    of the shortest: cubically from four, quadratically from three and
    linearly from two; from fewer, none at all.  A non-finite extrapolation
    (from a NaN or infinite log |f'|) is None."""
    w = lower[-4:]
    if len(w) == 4:
        values = (4.0 * (w3 + w1) - 6.0 * w2 - w0 for w0, w1, w2, w3 in zip(*w))
    elif len(w) == 3:
        values = (3.0 * (w2 - w1) + w0 for w0, w1, w2 in zip(*w))
    elif len(w) == 2:
        values = (2.0 * w1 - w0 for w0, w1 in zip(*w))
    else:
        return []
    return [value if math.isfinite(value) else None for value in values]


def _bracket_roots(f, ends: Sequence[float], grid: list[float],
                   lower: Sequence[Sequence[float]] = (),
                   lower_logs: Sequence[Sequence[float]] = (),
                   fa: float | None = None):
    """The roots of f in (ends[0], ends[-1]] and log |f'| at each, walking
    the brackets between consecutive ends: a scan's ``grid``, or the roots
    of the channel below and the cutoff, with ``lower``, the roots of the
    channels below (nearest last), and ``lower_logs``, log |f'| at them.
    ``fa`` is f(ends[0]) when the caller holds it; a zero there raises
    MissedRootSuspicion.  ``_pinned_root`` pins each sign change on
    ``grid``, so every walk gives the scan's root: the start and the slope
    move the evaluations, never the root.  The start is the root's
    extrapolation from the channels below (``_extrapolated``) plus the
    previous root's miss, that root less its own extrapolation.  The slope
    is predicted the same way from ``lower_logs``, with the sign of the
    bracket's sign change.  Where ``_extrapolated`` gives none, there is no
    start (or no slope), and no miss for the next root.  An
    exact zero on an end is the root the scan's tree meets there (log |f'|
    NaN), and flips the sign for the next bracket.

    With a ``lower``, a bracket other than the last that ends on a zero or
    shows no sign change is walked as a scan over the grid points inside
    it: its ends are roots known only to _ABS_TOL, and on an obtuse cap a
    high channel's lowest roots crowd onto mu + 1/2 + n closer than that.
    The caller checks the root count.
    """
    fa = f(ends[0]) if fa is None else fa
    if fa == 0.0:
        raise MissedRootSuspicion(f"unexpected root at omega = {ends[0]}")
    # each bracket's extrapolated root and log |f'| there, or None
    guesses = _extrapolated(lower) or [None] * len(ends)
    log_guesses = _extrapolated(lower_logs) or [None] * len(ends)
    roots: list[float] = []
    logs: list[float] = []
    # the previous root and log |f'| there, less their extrapolations
    miss = log_miss = 0.0
    for i in range(1, len(ends)):
        a, b = ends[i - 1], ends[i]
        fb = f(b)
        change = fb != 0.0 and (fb > 0) != (fa > 0)
        if lower and not change and i < len(ends) - 1:
            inside = grid[bisect.bisect_right(grid, a):bisect.bisect_left(grid, b)]
            split, split_logs = _bracket_roots(f, [a, *inside, b], grid, fa=fa)
            roots += split
            logs += split_logs
            if fb == 0.0 and len(split) % 2 == 0:
                fa = -fa  # a root before the zero at b: the sign left of b
        elif change:
            guess, log_guess = guesses[i - 1], log_guesses[i - 1]
            start = None if guess is None else guess + miss
            predicted = math.nan if log_guess is None else log_guess + log_miss
            # f has the sign of fb right of the root; exp overflows a double
            # past _LOG_MAX, and a NaN fails that test
            slope = (math.copysign(math.exp(predicted), fb)
                     if predicted < _LOG_MAX else None)
            root, log_slope = _pinned_root(f, grid, a, fa, b, fb, start, slope)
            roots.append(root)
            logs.append(log_slope)
            miss = 0.0 if guess is None else root - guess
            log_miss = 0.0 if log_guess is None else log_slope - log_guess
        elif fb == 0.0:  # on a grid point b itself, else its cell's midpoint
            roots.append(_pinned_root(f, grid, b, fb, b, fb)[0])
            logs.append(math.nan)
        fa = fb if fb != 0.0 else -fa
    return roots, logs


def dirichlet_roots(mu: float, theta0: float, omega_max: float,
                    state: dict | None = None) -> list[float]:
    """All simple roots in (0, omega_max] of the Dirichlet condition at
    theta0: the Ferrers function of order -mu vanishing at cos(theta0).

    ``_bracket_roots`` walks the grid of ``_scan_grid``, and a gap monitor
    guards against missed roots.  ``state`` is the evaluation state of
    ``_channel`` (fresh when not given): it moves evaluations, never roots.
    The scan leaves in ``state["log_slopes"]`` log |f'| at each root (NaN at
    a zero on a grid point), for the channels above to extrapolate.
    """
    mu, theta0, omega_max = _check_scan(mu, theta0, omega_max)
    grid = _scan_grid(theta0, omega_max)
    state = {} if state is None else state
    roots, state["log_slopes"] = _bracket_roots(_channel(mu, theta0, state),
                                                grid, grid)

    # Roots settle to spacing pi/theta0 only once omega clears the turning
    # region; below ~2 mu / sin(theta0) wider gaps are genuine, not misses.
    max_gap = 1.5 * math.pi / theta0
    asymptotic_floor = 2.0 * mu / math.sin(theta0)
    for a, b in zip(roots, roots[1:]):
        if a > asymptotic_floor and b - a > max_gap:
            raise MissedRootSuspicion(
                f"gap {b - a:.3f} between roots exceeds {max_gap:.3f}"
            )
    return roots


def spectrum(d: int, theta0: float, omega_max: float) -> list[EigenvalueChannel]:
    """Channels with all their Dirichlet roots up to omega_max.

    With omega_j(mu) the j-th root of channel mu, sphere channels, whose mu
    step by exactly 1, interlace:
    omega_j(mu) < omega_j(mu + 1) < omega_{j+1}(mu).  The lower bound is a
    Sturm comparison: on the Liouville form of the channel equation a larger
    mu raises the potential (mu^2 - 1/4) / sin^2, so every root increases.
    The upper bound follows from the ladder relation in order (DLMF 14.10),
    which writes the order -(mu + 1) function as a first-order expression in
    the order -mu one, so that the Dirichlet condition of channel mu + 1 is
    a Robin condition for channel mu, and Robin roots interlace Dirichlet
    ones; the Bessel analogue is DLMF 10.21(i).  So only channel 0 is
    scanned (``dirichlet_roots``); ``_bracket_roots`` walks every later
    channel over the roots of the one before, as the scan walks its grid.
    The start extrapolated in mu from up to four channels below, with the
    miss at the channel's previous root, predicts a root to a median error
    of 3e-5 at pi/3 with cutoff 40 and 3e-7 with cutoff 120, against a
    bracket about pi/theta0 wide; it and the slope predicted the same way
    change only where f is evaluated.  The channels share one evaluation
    state, so each starts from the precision hint the channel below left.
    A bracket that shows no sign change, its root closer to an end than
    the end's tolerance, is walked on the scan grid, so the roots are
    bit-identical to a scan of each channel.  Each channel's root count
    must interlace, else MissedRootSuspicion, in place of the scan's gap
    monitor.  The first root of a channel increases with mu, so the loop
    stops at the first channel with no roots in range.

    A request whose estimated root count, omega_max^2 theta0 sin(theta0) /
    (2 pi) with the sine taken as 1 past pi/2, exceeds _MAX_ROOTS is
    refused before any evaluation.
    """
    if _index(d, "sphere dimension d") < 2:
        raise ValidationError("sphere base requires d >= 2")
    mu, theta0, omega_max = _check_scan(sphere_mu(0, d), theta0, omega_max)
    sin_t = math.sin(theta0) if theta0 < 0.5 * math.pi else 1.0
    estimate = omega_max * omega_max * theta0 * sin_t / (2.0 * math.pi)
    if estimate > _MAX_ROOTS:
        raise ValidationError(
            f"about {estimate:.0f} roots below omega_max {omega_max}, above "
            f"the limit {_MAX_ROOTS:,}"
        )
    grid = _scan_grid(theta0, omega_max)
    state: dict = {}  # the precision hint, handed from channel to channel
    roots = dirichlet_roots(mu, theta0, omega_max, state)
    logs = [state.pop("log_slopes")]  # log |f'| at the roots of each channel
    channels: list[EigenvalueChannel] = []
    k = 0
    while roots:
        channels.append(EigenvalueChannel(mu, degeneracy(k, d), roots))
        k += 1
        mu = sphere_mu(k, d)
        lower = [ch.roots for ch in channels[-4:]]
        roots, log_slopes = _bracket_roots(_channel(mu, theta0, state),
                                           [*lower[-1], omega_max], grid,
                                           lower, logs[-4:])
        if len(lower[-1]) - len(roots) not in (0, 1):
            raise MissedRootSuspicion(
                f"{len(roots)} roots at mu = {mu} do not interlace the "
                f"{len(lower[-1])} of the channel one order lower"
            )
        logs.append(log_slopes)
    return channels


def _log_tail_scale(d: int, theta0: float, omega_max: float,
                    found: dict, t: float) -> float:
    """log X: X exp(-(omega_max^2 - d^2/4) t') bounds the trace's terms above
    the cutoff at each t' >= t, for sphere channels k with found.get(k, 0)
    roots up to omega_max; inf past _MAX_ROOTS channels or the doubles.

    With u = sin^(1/2) P, channel k solves u'' + (w^2 - (mu^2 - 1/4) / sin^2)
    u = 0, u(0) = u(theta0) = 0, mu = k + (d - 1)/2 >= 1/2.  The potential is
    at least (mu^2 - 1/4) c, c = 1 / sin^2 min(theta0, pi/2), so by min-max
    (Sturm comparison) root n has w_n^2 >= (n pi / theta0)^2 + (mu^2 - 1/4) c,
    and each n > N_k, the count found, lies above omega_max.  The n below n1,
    the first whose bound clears the cutoff, count at the cutoff, and sum_(n
    >= n1) exp(-a n^2), a = (pi / theta0)^2 t, is at most exp(-a n1^2) (1 +
    min(sqrt(pi / a) / 2, 1 / (2 a n1))) (erfc(x) <= exp(-x^2), Mills ratio).
    Past the channels found and the cutoff (n1 = 1, N_k = 0), channel k + 1's
    term is channel k's times r = g_(k+1) / g_k exp(-(2 mu + 1) c t), with
    g_(k+1) / g_k = (2k + d + 1)(k + d - 1) / ((2k + d - 1)(k + 1)); both
    factors fall with k, so once r < 1 the rest is at most r / (1 - r) times
    the term.  Terms are relative to the cutoff's weight: none overflows."""
    step = math.pi / theta0
    a = step * step * t
    # a smaller c keeps the bound: it only lowers the potential's floor
    c = 1.0 / max(math.sin(min(theta0, 0.5 * math.pi)) ** 2, sys.float_info.min)
    cut, last, total = omega_max * omega_max, max(found, default=-1), 0.0
    try:
        for k in range(_MAX_ROOTS):
            mu, n = sphere_mu(k, d), found.get(k, 0)
            floor = (mu * mu - 0.25) * c
            n1 = max(n + 1, math.ceil(math.sqrt(max(cut - floor, 0.0)) / step))
            rest = 1.0 + min(0.5 * math.sqrt(math.pi / a), 0.5 / (a * n1))
            gauss = math.exp(-((n1 * step) ** 2 + floor - cut) * t) * rest
            term = degeneracy(k, d) * (n1 - 1 - n + gauss)
            if k > last and n1 == 1:
                r = ((2 * k + d + 1) * (k + d - 1) / ((2 * k + d - 1) * (k + 1))
                     * math.exp(-(2.0 * mu + 1.0) * c * t))
                if r < 1.0:
                    total += term / (1.0 - r)
                    return math.log(total) if total else -math.inf
            total += term
    except OverflowError:  # a degeneracy or a term beyond the doubles
        pass
    return math.inf


def _check_times(ts: Sequence[float]) -> list[float]:
    if not len(_collection(ts, "t values")):
        raise ValidationError("at least one t value is needed")
    return [_positive(t, "t") for t in ts]


def default_omega_max(big_d: int, t_min: float, tolerance: float) -> float:
    """Cutoff heuristic: large enough that the Gaussian tail at t_min falls
    below the tolerance; heat_trace's tail bound then accepts or refuses it."""
    tolerance, t_min = _positive(tolerance, "tolerance"), _positive(t_min, "t_min")
    _index(big_d, "total dimension D")
    # a large t_min turns the target negative: take the floor, and let the
    # tail bound judge it
    log_target = math.log(1.0 / tolerance) + 0.5 * big_d * math.log(1.0 / t_min) + 12.0
    return max(20.0, math.sqrt(max(0.0, log_target) / t_min))


def heat_trace(
    cfg: SuspensionConfig,
    t_values: Sequence[float],
    tolerance: float = 1e-6,
    *,
    omega_max: float,
    channels: Sequence[EigenvalueChannel] | None = None,
) -> list[HeatTraceSample]:
    """Truncated heat trace times exp(-mass^2 t), with a proven tail bound.

    omega_max is the spectral cutoff, at most _MAX_OMEGA and above every root
    of given ``channels``, read as the sphere's: distinct orders k + (d -
    1)/2, each with all its roots up to the cutoff and with degeneracy(k, d),
    the one multiplicity of the trace and its tail bound.  Only sphere bases
    are supported.  Raises AssumptionViolation for a root omega <= d/2,
    TailTooLarge when a requested time is too small for the cutoff and
    NumericalError where the mass underflows a sample.
    """
    from .heat_coeffs import SphereBase, SuspensionConfig

    _instance(cfg, SuspensionConfig, "cfg")
    if not isinstance(cfg.base, SphereBase):
        raise ValidationError("heat_trace supports sphere bases only")
    t_values = _check_times(t_values)
    # a NaN tolerance would switch the tail bound off (tail > nan is
    # never true), and 0 leaves no cutoff able to meet it
    tolerance = _positive(tolerance, "tolerance")
    d, mu0 = cfg.d, sphere_mu(0, cfg.d)
    if channels is None:
        channels = spectrum(d, cfg.angle.theta0, omega_max)
    else:  # spectrum checks the cutoff it is given
        omega_max = _check_cutoff(omega_max)
        _collection(channels, "channels")
    # one intake: the trace and its tail bound both take g = degeneracy(k, d)
    found, terms = {}, []  # roots per channel k; (g, alpha^2 = omega^2 - d^2/4)
    for ch in channels:
        k = _instance(ch, EigenvalueChannel, "channel").mu - mu0
        if k < 0 or not k.is_integer() or k in found:
            raise ValidationError(f"channel orders must be distinct k + {mu0}")
        found[int(k)], g = len(ch.roots), degeneracy(int(k), d)
        if ch.degeneracy != g:
            raise ValidationError(f"degeneracy {ch.degeneracy} is not the sphere's {g}")
        for w in ch.roots:
            if w > omega_max:  # the tail bound counts no root above the cutoff
                raise ValidationError(f"root {w} lies above omega_max {omega_max}")
            if w * w <= 0.25 * d * d:
                raise AssumptionViolation(
                    f"eigenvalue omega={w} is not above d/2 = {0.5 * d}")
            terms.append((g, w * w - 0.25 * d * d))
    if not found:
        raise TailTooLarge("no eigenvalues below the cutoff")
    # each tail eigenvalue exceeds cut: the bound at t_min carries to later t
    cut = omega_max * omega_max - 0.25 * d * d
    log_scale = _log_tail_scale(d, cfg.angle.theta0, omega_max, found, min(t_values))

    samples = []
    for t in t_values:
        value = math.fsum(g * math.exp(-alpha_sq * t) for g, alpha_sq in terms)
        # a trace that underflows to 0 leaves the relative tail unbounded
        log_tail = log_scale - cut * t - math.log(value) if value else math.inf
        tail = math.exp(log_tail) if log_tail <= _LOG_MAX else math.inf
        if tail > tolerance:
            raise TailTooLarge(f"relative tail {tail:.2e} at t={t} exceeds "
                               f"tolerance {tolerance}")
        # the mass scales the trace and its tail alike, so not their ratio
        value *= math.exp(-(cfg.mass * cfg.mass) * t)
        if not value:
            raise NumericalError(f"mass={cfg.mass!r} underflows the trace at t={t}")
        samples.append(HeatTraceSample(t, value, tail))
    return samples


def _check_fit_request(ts: Sequence[float], n_fit: int) -> None:
    """Refuse a fit of n_fit + 1 coefficients to samples at the times ``ts``
    that fit_asymptotics would refuse; it needs no trace values, so a caller
    can ask before it builds the spectrum."""
    if not 0 <= _index(n_fit, "n_fit") <= _MAX_N_FIT:
        raise ValidationError(f"n_fit must lie in 0..{_MAX_N_FIT}")
    ts = _check_times(ts)
    if len(ts) < 3 * n_fit:
        raise ValidationError(f"need at least {3 * n_fit} samples to fit "
                              f"{n_fit + 1} coefficients, got {len(ts)}")
    if max(ts) / min(ts) < 9.999:
        raise ValidationError("samples must span at least a decade in t")


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, x, y))


def _jacobi_svd(a: list[list[float]]) -> tuple[list, list]:
    """One-sided Jacobi SVD (Hestenes; Demmel and Veselic, SIAM J. Matrix Anal.
    Appl. 13 (1992) 1204): rotates the columns ``a`` of A in place into those
    of A V, orthogonal with the singular values as norms; returns them and V's."""
    v = [[float(i == j) for i in range(len(a))] for j in range(len(a))]
    pairs = [(p, q) for p in range(len(a)) for q in range(p + 1, len(a))]
    tol = math.sqrt(len(a[0])) * sys.float_info.epsilon
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q in pairs:
            alpha, beta, gamma = _dot(a[p], a[p]), _dot(a[q], a[q]), _dot(a[p], a[q])
            if abs(gamma) <= tol * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)  # zeta^2 may be inf
            t = math.copysign(1.0 / (abs(zeta) + math.sqrt(1.0 + zeta * zeta)), zeta)
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = c * t
            for m in (a, v):
                m[p], m[q] = ([c * x - s * y for x, y in zip(m[p], m[q])],
                              [s * x + c * y for x, y in zip(m[p], m[q])])
        if not rotated:
            return a, v
    raise NumericalError(f"the fit's SVD did not converge in {_MAX_SWEEPS} sweeps")


def fit_asymptotics(
    samples: Sequence[HeatTraceSample], big_d: int, n_fit: int
) -> FitResult:
    """Least-squares fit of the singular small-time expansion.

    Fits K(t) t^(D/2) against powers of sqrt(t) (which equalizes the term
    magnitudes), on an internally rescaled abscissa for conditioning, by one
    Jacobi SVD; returns the n_fit + 1 expansion coefficients.  Samples whose
    scaled values or coefficients a double cannot hold raise NumericalError.
    """
    samples = [_instance(s, HeatTraceSample, "sample")
               for s in _collection(samples, "samples")]
    ts = [s.t for s in samples]
    _check_fit_request(ts, n_fit)
    big_d = _index(big_d, "total dimension D")
    values = [_finite(s.value, "trace value") for s in samples]
    try:
        y = [v * t ** (0.5 * big_d) for v, t in zip(values, ts)]
        if not all(map(math.isfinite, y)):
            raise OverflowError
    except OverflowError:
        raise NumericalError("trace values times t^(D/2) overflow a double") from None
    u = [math.sqrt(t) for t in ts]
    u_ref = max(u)
    a, v = _jacobi_svd([[(x / u_ref) ** k for x in u] for k in range(n_fit + 1)])
    norms = [_dot(col, col) for col in a]  # the squared singular values
    cond = math.sqrt(max(norms)) / math.sqrt(min(norms)) if min(norms) else math.inf
    if cond > 1e8:
        raise IllConditioned(f"design condition number {cond:.2e} exceeds 1e8")
    # fsum refuses sums past the doubles (OverflowError, or ValueError for
    # inf - inf), and u_ref^k underflows to 0 at t near the smallest doubles
    try:
        proj = [_dot(col, y) / norm for col, norm in zip(a, norms)]
        coefficients = tuple(_dot(row, proj) / u_ref**k for k, row in enumerate(zip(*v)))
        if all(map(math.isfinite, coefficients)):
            return FitResult(coefficients, cond)
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    raise NumericalError(f"t down to {min(ts):g} puts the fit coefficients "
                         "beyond doubles")
