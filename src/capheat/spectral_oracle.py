"""Independent ground truth: Ferrers Legendre functions, Dirichlet spectra on
the suspension, truncated heat traces and small-time coefficient fits.

The Ferrers function is evaluated through its ascending hypergeometric
series in (1 - x)/2.  The series is absolutely convergent for any opening
angle below pi, but its partial sums grow roughly like exp(2 w atanh(sqrt z))
before collapsing to an O(1) value.  Every term ratio is a ratio of exact
integers (omega, mu and z are doubles), so the summation runs on Python
integers in binary fixed point, with the number of fractional bits chosen
adaptively from the observed cancellation.  mpmath is still used for the
80-bit Ferrers prefactor in ``ferrers_p`` and the incomplete gamma function of
the Weyl tail, numpy for the trace sums and the fit; each is imported inside
the function that uses it, so ``dirichlet_roots`` and ``spectrum`` (and the
``roots`` command) load neither.  Nothing here shares code with the assembly
pipeline it is used to verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AssumptionViolation,
    IllConditioned,
    MissedRootSuspicion,
    SlowConvergence,
    TailTooLarge,
    ValidationError,
)
from .heat_coeffs import SphereBase, SuspensionConfig
from .sphere_base import degeneracy, sphere_mu

__all__ = [
    "EigenvalueChannel",
    "HeatTraceSample",
    "FitResult",
    "ferrers_p",
    "dirichlet_roots",
    "spectrum",
    "heat_trace",
    "fit_asymptotics",
]

THETA0_GUARD = 2.2  # beyond this the series ratio (1 - cos)/2 exceeds ~0.9
_MAX_SERIES_TERMS = 2_000_000
# A channel's cost grows about as omega_max^2.1: at mu = 1/2 and theta0 =
# 2.2 it takes 4.2 s at omega_max 500 and 18 s at 1,000 (2-core VM,
# Python 3.11).  The largest cutoff the tests use is 120.
_MAX_OMEGA = 1_000.0
# Bisection width of a root.
_ABS_TOL = 1e-10
# Bound on the estimated root count of a spectrum (criterion 6 estimates
# 2,078).  The largest spectra it accepts take 65 s at theta0 = 2.2
# (omega_max 169, 11,284 roots) and 36 s at pi/3 (omega_max 263, 8,595
# roots) on a 2-core VM, Python 3.11.
_MAX_ROOTS = 10_000


@dataclass(frozen=True)
class EigenvalueChannel:
    """All Dirichlet roots of one angular channel (fixed mu)."""

    mu: float
    degeneracy: int
    roots: tuple[float, ...]

    def alpha_squared(self, d: int) -> tuple[float, ...]:
        shift = 0.25 * d * d
        return tuple(w * w - shift for w in self.roots)


@dataclass(frozen=True)
class HeatTraceSample:
    """One certified trace value; tail_bound is the relative truncation
    error estimate."""

    t: float
    value: float
    tail_bound: float


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, ...]
    condition_number: float


def _series_state(prec: int, omega: float, mu: float, z: float) -> tuple[int, int]:
    """Sum the hypergeometric factor of the Ferrers function in binary fixed
    point: integers scaled by 2**prec.  omega, mu and z are doubles, so every
    term ratio is a ratio of exact integers; each step rounds toward zero.
    Returns (sum, max term magnitude), both scaled; the summation stops once,
    past the turning point, a term falls below 2**(3 - prec) times the
    largest one."""
    wn, wd = omega.as_integer_ratio()
    un, ud = mu.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    wd2, four_wn2 = wd * wd, 4 * wn * wn
    num_scale, den_scale = zn * ud, 4 * wd2 * zd
    term = total = max_abs = 1 << prec
    stop_below = max_abs >> (prec - 3)
    turn = abs(omega)
    m = 0
    while True:
        # ((m + 1/2)^2 - w^2) z / ((m + 1)(m + 1 + mu)) over exact integers
        p = term * ((2 * m + 1) ** 2 * wd2 - four_wn2) * num_scale
        q = den_scale * (m + 1) * ((m + 1) * ud + un)
        # toward zero: a floored negative term can stall above stop_below
        term = p // q if p >= 0 else -(-p // q)
        total += term
        m += 1
        a = abs(term)
        if a > max_abs:
            max_abs = a
            stop_below = max_abs >> (prec - 3)
        elif a < stop_below and m > turn:
            return total, max_abs
        if m > _MAX_SERIES_TERMS:
            raise SlowConvergence("Ferrers series exceeded the term budget")


def _ferrers_factor(mu: float, omega: float, z: float, state: dict) -> float:
    """2F1(1/2 - w, 1/2 + w; 1 + mu; z), cancellation-safe.

    The series is summed in fixed point, first with 64 fractional bits or
    the channel's hint; the bits lost to cancellation (log2 of max term over
    sum) plus 70 decide whether the sum carries 53 good bits, and the
    fractional bits are raised until it does.  ``state`` carries the hint
    between calls of the same channel.
    """
    prec = state.get("prec", 64)
    prev_gap = prev_prec = None
    for _ in range(12):
        total, max_abs = _series_state(prec, omega, mu, z)
        if total == 0:
            return 0.0
        gap = math.log2(max_abs) - math.log2(abs(total))
        needed = int(gap) + 70
        if needed <= prec:
            # generous hint: within a channel the cancellation grows with
            # omega, and extra bits are cheaper than re-summation
            state["prec"] = max(64, needed + 32)
            return total / (1 << prec)  # correctly rounded
        if prev_gap is not None and gap - prev_gap > 0.9 * (prec - prev_prec):
            # the residual shrinks in lockstep with the working precision:
            # the sum is an analytic zero, not a cancellation shortfall
            return 0.0
        prev_gap, prev_prec = gap, prec
        prec = needed + 32
    raise SlowConvergence("Ferrers series precision escalation failed")


def ferrers_p(mu: float, omega: float, x: float) -> float:
    """Ferrers function of the first kind, order -mu, degree -1/2 + omega.

    Evaluated as ((1-x)/(1+x))^(mu/2) 2F1(1/2-w, 1/2+w; 1+mu; (1-x)/2)
    divided by Gamma(1 + mu); even in omega.
    """
    from mpmath import mp

    if not (0.0 < mu < math.inf and math.isfinite(omega)):
        raise ValidationError("mu must be positive and finite, omega finite")
    if not -1.0 < x < 1.0:
        raise ValidationError("argument must lie in (-1, 1)")
    z = 0.5 * (1.0 - x)
    if z > 0.9:
        raise SlowConvergence("argument too close to -1 (angle too close to pi)")
    factor = _ferrers_factor(mu, omega, z, {})
    with mp.workprec(80):
        pref = mp.e ** (
            0.5 * mp.mpf(mu) * (mp.log1p(-x) - mp.log1p(x))
        ) / mp.gamma(1 + mp.mpf(mu))
        return float(pref * factor)


def _illinois(f, a: float, fa: float, b: float, fb: float, width: float):
    """Shrink the sign-change bracket (a, b) of f (fa = f(a), fb = f(b)) to
    at most ``width`` by Illinois false position (Dowell & Jarratt, BIT 11,
    1971).  Trial points keep ``width / 2`` clear of both ends, so a root on
    an end closes in one step.  An exact zero collapses the bracket."""
    a_positive = fa > 0
    kept = 0  # -1 after keeping b, +1 after keeping a
    while b - a > width:
        x = min(max(b - fb * (b - a) / (fb - fa), a + width / 2), b - width / 2)
        if not a < x < b:
            break
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (fx > 0) == a_positive:
            a, fa = x, fx
            if kept == -1:
                fb *= 0.5
            kept = -1
        else:
            b, fb = x, fx
            if kept == 1:
                fa *= 0.5
            kept = 1
    return a, b


def _check_scan(mu: float, theta0: float, omega_max: float) -> None:
    if not 0.0 < theta0 <= THETA0_GUARD:
        raise ValidationError(f"theta0 must lie in (0, {THETA0_GUARD}]")
    if not (0.0 < mu < math.inf and 0.0 < omega_max < math.inf):
        raise ValidationError(
            "mu must be finite and positive, omega_max positive and finite"
        )
    # with theta0 <= THETA0_GUARD this also caps the scan at 2,801 points
    if omega_max > _MAX_OMEGA:
        raise ValidationError(
            f"omega_max {omega_max} is above the limit {_MAX_OMEGA:g}"
        )


def dirichlet_roots(mu: float, theta0: float, omega_max: float) -> list[float]:
    """All simple roots in (0, omega_max] of the Dirichlet condition at
    theta0: the Ferrers function of order -mu vanishing at cos(theta0).

    Scans with step pi/(4 theta0) (a quarter of the asymptotic root spacing)
    with a gap monitor against missed roots.  Each sign change is located by
    Illinois, then its bisection to _ABS_TOL is replayed against the located
    bracket: only midpoints inside it are evaluated, so every root is the
    bisection's, bit for bit.
    """
    _check_scan(mu, theta0, omega_max)
    step = math.pi / (4.0 * theta0)
    z = 0.5 * (1.0 - math.cos(theta0))
    state: dict = {}

    def f(w: float) -> float:
        return _ferrers_factor(mu, w, z, state)

    grid = [step * j for j in range(1, int(omega_max / step) + 1)]
    if not grid or grid[-1] < omega_max:
        grid.append(omega_max)

    roots: list[float] = []
    prev_w, prev_val = 0.0, f(0.0)
    if prev_val == 0.0:
        raise MissedRootSuspicion("unexpected root at omega = 0")
    for w in grid:
        val = f(w)
        if val == 0.0:
            roots.append(w)
        elif (val > 0) != (prev_val > 0):
            lo, hi = prev_w, w
            flo = prev_val
            a, b = _illinois(f, lo, flo, hi, val, _ABS_TOL / 256.0)
            # plain bisection of (lo, hi); a midpoint outside [a, b] takes
            # its side unevaluated
            while hi - lo > _ABS_TOL:
                mid = 0.5 * (lo + hi)
                if mid < a:
                    lo = mid
                    continue
                if mid > b:
                    hi = mid
                    continue
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0) == (flo > 0):
                    lo = a = mid
                else:
                    hi = b = mid
            roots.append(0.5 * (lo + hi))
        prev_w, prev_val = w, val

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

    The first root of a channel increases with mu, so the channel scan can
    stop at the first channel with no roots in range.  A request whose
    estimated root count, omega_max^2 theta0 sin(theta0) / (2 pi) with the
    sine taken as 1 past pi/2, exceeds _MAX_ROOTS is refused before any
    evaluation.
    """
    if d < 2:
        raise ValidationError("the oracle supports sphere bases only (d >= 2)")
    _check_scan(sphere_mu(0, d), theta0, omega_max)
    sin_t = math.sin(theta0) if theta0 < 0.5 * math.pi else 1.0
    estimate = omega_max * omega_max * theta0 * sin_t / (2.0 * math.pi)
    if estimate > _MAX_ROOTS:
        raise ValidationError(
            f"about {estimate:.0f} roots below omega_max {omega_max}, above "
            f"the limit {_MAX_ROOTS:,}"
        )
    channels: list[EigenvalueChannel] = []
    k = 0
    while True:
        mu = sphere_mu(k, d)
        roots = dirichlet_roots(mu, theta0, omega_max)
        if not roots:
            break
        channels.append(EigenvalueChannel(mu, degeneracy(k, d), tuple(roots)))
        k += 1
    return channels


def _check_positivity(channels: Sequence[EigenvalueChannel], d: int) -> None:
    shift = 0.25 * d * d
    for ch in channels:
        for w in ch.roots:
            if w * w <= shift:
                raise AssumptionViolation(
                    f"eigenvalue omega={w} at mu={ch.mu} is not above d/2"
                )


def _weyl_tail(big_d: int, density: float, omega_max: float, t: float) -> float:
    """Extrapolated truncation tail: integral of the fitted Weyl density
    against the heat weight above the cutoff, times a safety factor."""
    from mpmath import mp

    y = omega_max * omega_max * t
    upper = float(mp.gammainc(0.5 * big_d, y))
    tail = (
        density
        * big_d
        * 0.5
        * t ** (-0.5 * big_d)
        * math.exp(0.25 * (big_d - 1) ** 2 * t)
        * upper
    )
    return 3.0 * tail


def _check_tolerance(tolerance: float) -> None:
    # a NaN tolerance would switch the tail certificate off (tail > nan is
    # never true), and 0 leaves no cutoff able to meet it
    if not 0.0 < tolerance < math.inf:
        raise ValidationError("tolerance must be positive and finite")


def default_omega_max(big_d: int, t_min: float, tolerance: float) -> float:
    """Cutoff heuristic: large enough that the Gaussian tail at t_min falls
    below the tolerance; always certified afterwards by the tail bound."""
    _check_tolerance(tolerance)
    if not 0.0 < t_min < math.inf:
        raise ValidationError("t_min must be positive and finite")
    log_target = math.log(1.0 / tolerance) + 0.5 * big_d * math.log(1.0 / t_min) + 12.0
    return max(20.0, math.sqrt(log_target / t_min))


def heat_trace(
    cfg: SuspensionConfig,
    t_values: Sequence[float],
    tolerance: float = 1e-6,
    *,
    omega_max: float,
    channels: Sequence[EigenvalueChannel] | None = None,
) -> list[HeatTraceSample]:
    """Truncated heat trace with a certified relative tail estimate.

    omega_max is the spectral cutoff (of ``channels`` too, when given).
    Only sphere bases are supported: those are the only bases with closed
    form degeneracies.  Raises TailTooLarge when a requested time is too
    small for the cutoff.
    """
    import numpy as np

    if not isinstance(cfg.base, SphereBase):
        raise ValidationError("heat_trace supports sphere bases only")
    if not t_values or not all(0.0 < t < math.inf for t in t_values):
        raise ValidationError("t values must be positive and finite")
    _check_tolerance(tolerance)
    d = cfg.d
    if channels is None:
        channels = spectrum(d, cfg.angle.theta0, omega_max)
    if not channels:
        raise TailTooLarge("no eigenvalues below the cutoff")
    _check_positivity(channels, d)

    alpha_sq = np.concatenate(
        [np.asarray(ch.alpha_squared(d)) for ch in channels]
    )
    weights = np.concatenate(
        [np.full(len(ch.roots), float(ch.degeneracy)) for ch in channels]
    )
    weighted_count = float(weights.sum())
    density = weighted_count / omega_max**cfg.D

    samples = []
    for t in t_values:
        value = float(weights @ np.exp(-alpha_sq * t))
        # a trace that underflows to 0 leaves the relative tail unbounded
        # (and the Weyl tail's exp(t (D - 1)^2 / 4) may overflow there)
        tail = (
            _weyl_tail(cfg.D, density, omega_max, t) / value if value else math.inf
        )
        if tail > tolerance:
            raise TailTooLarge(
                f"relative tail {tail:.2e} at t={t} exceeds tolerance {tolerance}"
            )
        samples.append(HeatTraceSample(t, value, tail))
    return samples


def fit_asymptotics(
    samples: Sequence[HeatTraceSample], big_d: int, n_fit: int
) -> FitResult:
    """Least-squares fit of the singular small-time expansion.

    Fits K(t) t^(D/2) against powers of sqrt(t) (which equalizes the term
    magnitudes), on an internally rescaled abscissa for conditioning;
    returns the n_fit + 1 expansion coefficients.
    """
    import numpy as np

    if n_fit > 4:
        raise ValidationError("n_fit is limited to 4")
    if len(samples) < 3 * n_fit:
        raise ValidationError("need at least 3 * n_fit samples")
    t = np.array([s.t for s in samples], dtype=float)
    if t.max() / t.min() < 9.999:
        raise ValidationError("samples must span at least a decade in t")
    y = np.array([s.value for s in samples], dtype=float) * t ** (0.5 * big_d)
    u = np.sqrt(t)
    u_ref = u.max()
    design = (u / u_ref)[:, None] ** np.arange(n_fit + 1)
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        raise IllConditioned(f"design condition number {cond:.2e} exceeds 1e8")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    coefficients = tuple(float(c) / u_ref**k for k, c in enumerate(coef))
    return FitResult(coefficients, cond)
