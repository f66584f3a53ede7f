from __future__ import annotations

import bisect
import hashlib
import math
import random
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp

from capheat import spectral_oracle
from capheat.errors import (
    AssumptionViolation,
    IllConditioned,
    MissedRootSuspicion,
    NumericalError,
    SlowConvergence,
    TailTooLarge,
    ValidationError,
)
from capheat.heat_coeffs import SphereBase, SuspensionConfig
from capheat.special_eval import AngleParams
from capheat.spectral_oracle import (
    EigenvalueChannel,
    HeatTraceSample,
    THETA0_GUARD,
    _MAX_OMEGA,
    _MAX_SERIES_TERMS,
    _ferrers_factor,
    default_omega_max,
    dirichlet_roots,
    ferrers_p,
    fit_asymptotics,
    heat_trace,
    spectrum,
)


def hemisphere_cfg(n_max: int = 2) -> SuspensionConfig:
    return SuspensionConfig(
        D=3,
        angle=AngleParams.from_theta0(math.pi / 2),
        base=SphereBase(2),
        n_max=n_max,
    )


def hemisphere_mode_count(L: int) -> int:
    """Dirichlet mode multiplicity on the half three-sphere at level L:
    harmonics odd across the equator, sum of (2l+1) over l <= L-1 with
    L - l odd, which closes to L(L+1)/2."""
    return sum(2 * l + 1 for l in range(L) if (L - l) % 2 == 1)


def bisection_roots(mu, theta0, omega_max, abs_tol=1e-10):
    """The quarter-spacing scan with plain bisection of every sign change,
    evaluating the Ferrers factor at each midpoint."""
    z = 0.5 * (1.0 - math.cos(theta0))
    state: dict = {}

    def f(w):
        return _ferrers_factor(mu, w, z, spectral_oracle._VALUE_BITS, state)

    return scan_bisection(f, theta0, omega_max, abs_tol)


def scan_bisection(f, theta0, omega_max, abs_tol=1e-10):
    """Plain scan-and-bisection of any f on the quarter-spacing grid.  A
    zero on a grid point is a root, and a simple root flips the sign, so
    the next cell starts from the opposite of the sign before it."""
    step = math.pi / (4.0 * theta0)
    grid = [step * j for j in range(1, int(omega_max / step) + 1)]
    if not grid or grid[-1] < omega_max:
        grid.append(omega_max)
    roots = []
    prev_w, prev_val = 0.0, f(0.0)
    for w in grid:
        val = f(w)
        if val == 0.0:
            roots.append(w)
        elif (val > 0) != (prev_val > 0):
            lo, hi, flo = prev_w, w, prev_val
            while hi - lo > abs_tol:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
        prev_w, prev_val = w, val if val != 0.0 else -prev_val
    return roots


def reference_series_state(prec, omega, mu, z):
    """The fixed-point kernel as it was before its denominator became a
    shift and its numerator an increment: p // q with the full denominator
    4 wd^2 zd (m + 1)((m + 1) ud + un), (2m + 1)^2 recomputed each term."""
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


# (prec, omega, mu, z) at the edges of the kernel's loop below the turning
# point: |omega| < 1, which skips it; odd and even int(|omega|), which end
# it on a negative and a positive term; negative omega; omega = k + 1/2;
# and a z so small that a term rounds to 0, the first (at 6.3) or the third
# (at 30.2)
KERNEL_EDGE_CASES = [
    (64, 0.3, 0.5, 0.5), (70, -0.9, 2.7, 0.9),
    (64, 7.0, 0.5, 0.25), (64, 8.0, 1.5, 0.75),
    (96, 7.9, 7.5, 0.85), (96, -8.6, 0.5, 0.6), (128, -25.3, 1.0, 0.895),
    (80, 12.5, 0.5, 0.5), (80, -3.5, 1.5, 0.85),
    (64, 6.3, 0.5, 2.0**-70), (64, 30.2, 0.5, 2.0**-40),
]


def kernel_inputs(count=200, seed=8):
    """Seeded (prec, omega, mu, z): half-integer and other orders, omega = 0
    among them, and z up to 0.9, where the terms alternate longest; then
    the edge cases."""
    rng = random.Random(seed)
    cases = [(64, 0.0, 0.3, 0.5), (64, 0.0, 2.7, 0.9), (96, 1.11, 2.7, 0.895)]
    while len(cases) < count:
        omega = 0.0 if rng.random() < 0.1 else rng.uniform(-5.0, 60.0)
        z = rng.uniform(0.85, 0.9) if rng.random() < 0.3 else rng.uniform(0.01, 0.9)
        mu = rng.choice((0.5, 1.5, 7.5, 40.5, 0.3, 2.7, rng.uniform(0.1, 20.0)))
        cases.append((rng.randrange(64, 400), omega, mu, z))
    return cases + KERNEL_EDGE_CASES


def single_loop_series_state(prec, omega, mu, z, bits):
    """The shift kernel as one loop, before it was split at the turning
    point: every term checks the stop rules, guarded by m > |omega|, and
    the term budget."""
    wn, wd = omega.as_integer_ratio()
    un, ud = mu.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    wd2, num_scale = wd * wd, zn * ud
    shift = (4 * wd2 * zd).bit_length() - 1
    tail_scale = -(-zn // (zd - zn)) << bits
    num = (wd2 - 4 * wn * wn) * num_scale
    num_step = 8 * wd2 * num_scale
    term = total = max_abs = 1 << prec
    stop_below = max_abs >> (prec - 3)
    turn = abs(omega)
    m = 0
    while True:
        m += 1
        p = term * num
        q = m * (m * ud + un)
        term = (p >> shift) // q if p >= 0 else -((-p >> shift) // q)
        num += num_step * m
        total += term
        a = abs(term)
        if a > max_abs:
            max_abs = a
            stop_below = max_abs >> (prec - 3)
        elif m > turn and (a < stop_below or a * tail_scale < abs(total)):
            return total, max_abs
        if m > _MAX_SERIES_TERMS:
            raise SlowConvergence("Ferrers series exceeded the term budget")


def split_loop_inputs(count=400, seed=16):
    """Seeded (prec, omega, mu, z): negative, zero, integer, half-integer
    and sub-1 omega, each with every mu of {0.5, 1, 7.5, 30.5}, then random
    ones of those kinds; z up to 0.9; then the edge cases."""
    rng = random.Random(seed)
    mus = (0.5, 1.0, 7.5, 30.5)

    def draw_z():
        return rng.uniform(0.85, 0.9) if rng.random() < 0.3 else rng.uniform(0.01, 0.9)

    cases = [
        (rng.randrange(64, 400), omega, mu, draw_z())
        for omega in (-7.0, -2.5, -0.6, 0.0, 0.25, 0.999, 1.0, 4.5, 12.0, 31.5)
        for mu in mus
    ]
    while len(cases) < count:
        omega = rng.choice((
            -float(rng.randrange(1, 60)),
            float(rng.randrange(0, 60)),
            rng.randrange(0, 60) + 0.5,
            rng.uniform(0.0, 1.0),
            rng.uniform(-60.0, 60.0),
        ))
        cases.append((rng.randrange(64, 400), omega, rng.choice(mus), draw_z()))
    return cases + KERNEL_EDGE_CASES


def mpf_series_state(prec, omega, mu, z, bits=None):
    """The Ferrers series summed in mpmath floating point at ``prec`` bits,
    scaled to the kernel's fixed-point return convention.  It takes the
    kernel's tail-bound target and ignores it: it sums to the old stop rule,
    so the kernel, which stops earlier on a proven tail bound, is checked
    against the longer sum."""
    with mp.workprec(prec):
        zz = mp.mpf(z)
        four_w2 = 4 * mp.mpf(omega) ** 2
        mmu = mp.mpf(mu)
        term = total = max_abs = mp.one
        stop_below = mp.mpf(2) ** (-(prec - 3))
        m = 0
        while True:
            num = (2 * m + 1) ** 2 - four_w2
            den = (4 * (m + 1)) * (m + 1 + mmu)
            term = term * num * zz / den
            total += term
            m += 1
            a = abs(term)
            if a > max_abs:
                max_abs = a
                stop_below = max_abs * mp.mpf(2) ** (-(prec - 3))
            elif a < stop_below and m > abs(omega):
                break
        # max_abs >= 1 scales exactly; the sum rounds to the nearest unit
        return int(mp.nint(mp.ldexp(total, prec))), int(mp.ldexp(max_abs, prec))


def use_mpf_kernel(monkeypatch):
    monkeypatch.setattr(spectral_oracle, "_series_state", mpf_series_state)


def count_evaluations(monkeypatch) -> dict[str, int]:
    """Counters of channel evaluations, of the Ferrers series evaluations
    among them (the closed form's fallbacks) or made directly, and of the
    fixed-point sums those run: sums beyond one per series evaluation are
    precision re-sums."""
    calls = {"evaluations": 0, "series": 0, "sums": 0}
    channel, series_state = spectral_oracle._channel, spectral_oracle._series_state

    def counted_channel(*args):
        f = channel(*args)

        def counted(w):
            calls["evaluations"] += 1
            return f(w)

        return counted

    def counted_series(*args):
        calls["series"] += 1
        return _ferrers_factor(*args)

    def summed(*args):
        calls["sums"] += 1
        return series_state(*args)

    monkeypatch.setattr(spectral_oracle, "_channel", counted_channel)
    monkeypatch.setattr(spectral_oracle, "_ferrers_factor", counted_series)
    monkeypatch.setattr(spectral_oracle, "_series_state", summed)
    return calls


def wrap_channel(monkeypatch, wrap):
    """Replace each channel's Dirichlet function f by wrap(mu, f), so that an
    injected fault reaches every evaluation, closed form or series."""
    channel = spectral_oracle._channel

    def wrapped(mu, theta0, state):
        return wrap(mu, channel(mu, theta0, state))

    monkeypatch.setattr(spectral_oracle, "_channel", wrapped)


def no_evaluation(*args):
    raise AssertionError("a channel was evaluated")


class TestFerrers:
    def test_even_in_omega(self):
        a = ferrers_p(1.5, 2.7, 0.3)
        b = ferrers_p(1.5, -2.7, 0.3)
        assert a == b

    def test_small_angle_prefactor_limit(self):
        x = 1.0 - 1e-8
        mu = 2.5
        expected = (0.5 * (1.0 - x)) ** (0.5 * mu) / math.gamma(1.0 + mu)
        assert ferrers_p(mu, 1.0, x) == pytest.approx(expected, rel=1e-6)

    def test_zeros_at_argument_zero(self):
        # order -3/2 at x = 0 vanishes exactly at omega = 3, 5, 7, ...
        for omega in (3.0, 5.0, 7.0):
            off = abs(ferrers_p(1.5, omega, 0.0))
            near = abs(ferrers_p(1.5, omega - 0.5, 0.0))
            assert off < 1e-14 * max(near, 1e-300)

    def test_large_degree_cancellation_is_controlled(self):
        # partial sums overflow double precision long before this converges;
        # the adaptive precision must still deliver a clean value
        value = ferrers_p(0.5, 80.0, 0.5)
        assert math.isfinite(value)
        assert abs(value) < 1.0

    @pytest.mark.parametrize("mu,omega,x", [
        pytest.param(92.5, 113.0, 0.5, id="113.0"),
        pytest.param(92.5, 112.10753517951525, 0.5, id="112.10753517951525"),
        pytest.param(100.5, 167.0, math.cos(2.2), id="cold-lockstep"),
        pytest.param(0.5, 84.0, -0.44, id="cold-lockstep-order-half"),
        *(
            pytest.param(0.5, omega, math.cos(2.2), id=f"cold-high-omega-{omega}")
            for omega in (300.3, 500.3, 700.3, 1000.3)
        ),
    ])
    def test_tiny_value_is_not_zero(self, mu, omega, x):
        # at 92.5 the factor is below 2**-64: its first fixed-point sum
        # rounds to 0, which must raise the precision, not end as an exact
        # zero.  With a cold hint the others first sit on the rounding noise
        # of their early terms, which shrinks in lockstep with the precision
        # as an analytic zero's residual does, until the precision passes
        # the integer bits of the peak term; at high omega that noise used
        # to last for two pairs of precisions and end as a false 0.0
        expected = float(mp.legenp(omega - 0.5, -mu, x, type=2))
        assert expected != 0.0
        assert ferrers_p(mu, omega, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.5, 7.5, 20.5, 33.0, 60.5])
    def test_matches_mpmath(self, mu):
        # the reference is taken where (1 - x) / 2 is the double z the series
        # is summed at, so that it sees the evaluation's error and not the
        # rounding of z, which the cancelling factor can amplify past 1e-13
        with mp.workdps(60):
            for omega in (0.0, 0.3, 1.7, 7.0, 12.5, 30.25, 61.0):
                for x in (-0.79, -0.4, 0.1, 0.5, 0.8, 0.9, 0.99):
                    z = mp.mpf(0.5 * (1.0 - x))
                    expected = mp.legenp(omega - 0.5, -mu, 1 - 2 * z, type=2)
                    value = ferrers_p(mu, omega, x)
                    assert abs(value - expected) <= 1e-13 * abs(expected), (
                        mu, omega, x)

    def test_lockstep_zero_inside_the_domain(self):
        # mpmath's legenp gives 8.6e-36452, far below the doubles.  The
        # residual first shrinks in lockstep with the precision at 11,027
        # bits, and the lockstep must hold again at twice that, where the
        # escalation goes next: at about 110 bits a round, its 12 rounds
        # would not get there
        assert ferrers_p(1e4, 1e4, -0.8) == 0.0

    def test_escalation_gives_up(self, monkeypatch):
        # a sum that loses more bits to cancellation the more it is given
        # never carries 53 good bits: the 12 rounds run out
        monkeypatch.setattr(spectral_oracle, "_series_state",
                            lambda prec, *args: (1, 1 << (3 * prec)))
        with pytest.raises(SlowConvergence, match="escalation failed"):
            _ferrers_factor(0.5, 3.0, 0.25, 64, {})

    def test_fresh_state_sums_once(self, monkeypatch):
        # a fresh state starts at 70 + 32 fractional bits, which a sum that
        # loses little to cancellation passes; from 64 bits every first sum
        # re-summed, since a sum needs at least 67
        calls = count_evaluations(monkeypatch)
        ferrers_p(0.5, 3.3, 0.5)
        assert calls == {"evaluations": 0, "series": 1, "sums": 1}

    def test_zero_factor(self, monkeypatch):
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor",
                            lambda *args: 0.0)
        assert ferrers_p(2.0, 1.0, 0.3) == 0.0

    @pytest.mark.parametrize("factor", [-2.0, 3e-320])
    def test_factor_sign_and_magnitude(self, monkeypatch, factor):
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor",
                            lambda *args: factor)
        # ((1 - x) / (1 + x))^(mu / 2) / Gamma(1 + mu) is 1/2 at x = 0, mu = 2
        assert ferrers_p(2.0, 1.0, 0.0) == pytest.approx(0.5 * factor,
                                                          rel=1e-15)

    @pytest.mark.parametrize("factor", [1e308, -1e308])
    def test_overflow_raises(self, monkeypatch, factor):
        # the prefactor is 9 / 2 at x = -0.8, mu = 2: the product is beyond
        # the doubles, where a conversion to float gave inf
        monkeypatch.setattr(spectral_oracle, "_ferrers_factor",
                            lambda *args: factor)
        with pytest.raises(NumericalError, match="overflows a double"):
            ferrers_p(2.0, 1.0, -0.8)

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            ferrers_p(-1.0, 2.0, 0.3)
        with pytest.raises(ValidationError):
            ferrers_p(1.0, 2.0, 1.0)
        with pytest.raises(SlowConvergence):
            ferrers_p(1.0, 2.0, -0.9)
        for mu, omega in ((math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan)):
            with pytest.raises(ValidationError):
                ferrers_p(mu, omega, 0.3)


class TestFixedPointKernel:
    def test_shift_kernel_matches_division_kernel(self):
        # the kernels run the same integers up to the shift kernel's earlier
        # stop, after which the terms keep their sign and shrink by a factor
        # below z each, so the division kernel's longer sum differs by less
        # than 2**-bits of the shorter one
        for case in kernel_inputs():
            ref_total, ref_max_abs = reference_series_state(*case)
            for bits in (spectral_oracle._VALUE_BITS, spectral_oracle._SIGN_BITS):
                total, max_abs = spectral_oracle._series_state(*case, bits)
                assert max_abs == ref_max_abs, (case, bits)
                assert (total > 0) == (ref_total > 0), (case, bits)
                assert abs(ref_total - total) << bits <= abs(total), (case, bits)

    def test_split_loop_matches_single_loop(self):
        # below the turning point no stop rule can fire, so the split loop
        # runs the same integers to the same stop
        for case in split_loop_inputs():
            for bits in (spectral_oracle._SIGN_BITS, spectral_oracle._VALUE_BITS):
                assert spectral_oracle._series_state(*case, bits) == (
                    single_loop_series_state(*case, bits)
                ), (case, bits)

    def test_term_budget_beyond_the_turning_point(self):
        # the single loop would run the budget out below the turning point
        with pytest.raises(SlowConvergence, match="term budget"):
            spectral_oracle._series_state(64, _MAX_SERIES_TERMS + 1.5, 0.5, 0.5, 24)

    def test_term_budget_past_the_turning_point(self, monkeypatch):
        # at omega = 2.3 the terms past the turning point shrink by about z =
        # 0.875 each, too slowly for 190 bits within a budget of 10 terms
        monkeypatch.setattr(spectral_oracle, "_MAX_SERIES_TERMS", 10)
        with pytest.raises(SlowConvergence, match="term budget"):
            spectral_oracle._series_state(200, 2.3, 0.5, 0.875, 190)

    @pytest.mark.parametrize("mu", [0.5, 1.5, 7.5])
    @pytest.mark.parametrize("omega", [0.0, 0.74, 5.3, 25.1, 60.2])
    def test_factor_bit_identical_to_mpf(self, monkeypatch, mu, omega):
        zs = (0.1, 0.25, 0.5, 0.895)
        bits = spectral_oracle._VALUE_BITS
        fixed = [_ferrers_factor(mu, omega, z, bits, {}) for z in zs]
        use_mpf_kernel(monkeypatch)
        assert fixed == [_ferrers_factor(mu, omega, z, bits, {}) for z in zs]

    @pytest.mark.parametrize("mu", [0.5, 3.0])
    @pytest.mark.parametrize("theta0", [math.pi / 3, math.pi / 2])
    def test_roots_bit_identical_to_mpf(self, monkeypatch, mu, theta0):
        roots = dirichlet_roots(mu, theta0, 20.0)
        assert roots
        use_mpf_kernel(monkeypatch)
        assert roots == dirichlet_roots(mu, theta0, 20.0)

    @pytest.mark.parametrize("mu", [0.5, 2.5])
    @pytest.mark.parametrize("omega", [0.74, 1.11, 1.48])
    def test_negative_terms_round_toward_zero(self, monkeypatch, mu, omega):
        # the term ratio nears z = 0.895 with negative terms; a floored
        # quotient sticks at -9 units, above the stop threshold of 8, and
        # runs out the term budget
        value = ferrers_p(mu, omega, -0.79)
        assert math.isfinite(value)
        use_mpf_kernel(monkeypatch)
        assert value == ferrers_p(mu, omega, -0.79)


def closed_form(mu, z):
    """The closed form of channel mu at z, None where it certifies no sign."""
    return spectral_oracle._half_integer_factor(mu, z, lambda omega: None)


def series_sign_agreement(points) -> tuple[int, list]:
    """The closed form at each (mu, theta0, omega) of ``points`` against the
    series' exact sign: the count of certified values, and the points where
    a certified sign differs from the series'."""
    certified, wrong = 0, []
    for mu, theta0, omega in points:
        z = 0.5 * (1.0 - math.cos(theta0))
        value = closed_form(mu, z)(omega)
        if value is not None:
            certified += 1
            series = _ferrers_factor(mu, omega, z, spectral_oracle._SIGN_BITS, {})
            if series == 0.0 or (value > 0) != (series > 0):
                wrong.append((mu, theta0, omega, value, series))
    return certified, wrong


def adjacent_doubles_of_the_zero(mu, theta0, a, b):
    """The doubles on either side of the zero of the series in (a, b), found
    by bisection on the series' exact signs."""
    z = 0.5 * (1.0 - math.cos(theta0))
    state: dict = {}
    fa = _ferrers_factor(mu, a, z, spectral_oracle._SIGN_BITS, state)
    while math.nextafter(a, b) < b:
        m = 0.5 * (a + b)
        fm = _ferrers_factor(mu, m, z, spectral_oracle._SIGN_BITS, state)
        if fm == 0.0:
            return m, m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return a, b


def points_beside_roots(d, theta0, omega_max):
    """(mu, theta0, w) at the doubles within 4 ulps of each zero of a
    spectrum's channels, and at offsets of 1e-15 to 1e-6 from each root."""
    points = []
    for ch in spectrum(d, theta0, omega_max):
        for root in ch.roots:
            w = adjacent_doubles_of_the_zero(ch.mu, theta0, root - 1e-10,
                                             root + 1e-10)[0]
            for _ in range(4):
                w = math.nextafter(w, 0.0)
            for _ in range(9):
                points.append((ch.mu, theta0, w))
                w = math.nextafter(w, math.inf)
            points += [(ch.mu, theta0, root + sign * 10.0**e)
                       for e in range(-15, -5) for sign in (-1, 1)]
    return points


def points_beside_integer_omega(theta0):
    """(mu, theta0, w) within 1e-15 to 1e-3 of the integers up to mu + 2."""
    return [(mu, theta0, k + sign * 10.0**e)
            for mu in (0.5, 1.5, 4.5, 12.5)
            for k in range(1, int(mu) + 3)
            for e in range(-15, -2) for sign in (-1, 1)]


def random_points():
    """600 seeded (mu, theta0, w): half-integer orders below 150, angles
    from 0.02 to THETA0_GUARD, degrees up to 200."""
    rng = random.Random(43)
    return [(rng.randrange(150) + 0.5,
             math.exp(rng.uniform(math.log(0.02), math.log(THETA0_GUARD))),
             rng.uniform(0.0, 200.0)) for _ in range(600)]


class TestHalfIntegerClosedForm:
    """A certified sign of the closed form must be the series' exact sign
    wherever the closed form is asked: at the doubles beside a root, within
    rounding of an order-recurrence pole w = k, and anywhere at random."""

    @pytest.mark.parametrize("d,theta0,omega_max", [
        (2, THETA0_GUARD, 30.0), (2, 0.2, 60.0), (4, 1.0, 30.0),
        (2, math.pi / 3, 30.0),
    ])
    def test_signs_beside_roots(self, d, theta0, omega_max):
        # within 4 ulps of a zero only the error bound stands between the
        # closed form and a wrong sign
        points = points_beside_roots(d, theta0, omega_max)
        certified, wrong = series_sign_agreement(points)
        assert not wrong
        assert certified > len(points) // 2

    @pytest.mark.parametrize("theta0", [0.02, math.pi / 2, THETA0_GUARD])
    def test_signs_beside_integer_omega(self, theta0):
        # w = k is a pole of the order recurrence's step k: near it the
        # steps divide by almost nothing
        points = points_beside_integer_omega(theta0)
        certified, wrong = series_sign_agreement(points)
        assert not wrong
        assert certified > len(points) // 10

    def test_signs_at_random_points(self):
        points = random_points()
        certified, wrong = series_sign_agreement(points)
        assert not wrong
        # high orders at small angles cancel past the bound below w = mu
        assert certified > len(points) // 4

    @pytest.mark.parametrize("theta0", [math.pi / 3, 1.0, THETA0_GUARD])
    def test_grid_zeros_are_never_certified(self, theta0):
        # at mu = 1/2 the factor vanishes at w = k pi / theta, and every
        # fourth scan point is k pi / theta0 to rounding: only the series
        # may decide those signs
        closed = closed_form(0.5, 0.5 * (1.0 - math.cos(theta0)))
        grid = spectral_oracle._scan_grid(theta0, 120.0)
        assert all(closed(w) is None for w in grid[4::4])

    @pytest.mark.parametrize("mu", [0.5, 1.5, 2.5, 7.5, 20.5, 30.5])
    def test_matches_mpmath(self, mu):
        # the factor P Gamma(1 + mu) ((1 - z) / z)^(mu / 2) at the series'
        # own z, away from roots: a certified value is within its own size
        # of the truth, and here within 1e-4 of it (3.5e-5 at mu = 7.5,
        # theta0 = 0.3, w = 0.7, where the recurrence cancels most)
        certified = 0
        with mp.workdps(60):
            for theta0 in (0.3, 1.0, math.pi / 3, THETA0_GUARD):
                z = 0.5 * (1.0 - math.cos(theta0))
                closed = closed_form(mu, z)
                for omega in (0.7, 3.3, 12.25, 40.1, 80.7):
                    value = closed(omega)
                    if value is None:
                        continue
                    certified += 1
                    zm = mp.mpf(z)
                    expected = (mp.legenp(omega - 0.5, -mu, 1 - 2 * zm, type=2)
                                * mp.gamma(1 + mu) * ((1 - zm) / zm) ** (mu / 2))
                    error = abs(value - expected)
                    assert error < abs(value), (mu, theta0, omega)
                    assert error <= 1e-4 * abs(expected), (mu, theta0, omega)
        # all 20 points up to mu = 7.5, 17 at 20.5 and 10 at 30.5
        assert certified >= 10

    def test_integer_degrees_up_to_the_order_are_poles(self):
        # at mu = 3.5 (K = 3) steps 1..3 of the order recurrence divide by
        # (w - k)(w + k), which is 0 at w = k: those degrees take the series,
        # and w = 4.0, past the last step, is evaluated
        closed = closed_form(3.5, 0.25)
        assert [closed(w) for w in (1.0, 2.0, 3.0, -2.0)] == [None] * 4
        assert closed(4.0) is not None

    @pytest.mark.parametrize("mu", [1.0, 2.0, 0.25, 2.0**60])
    def test_only_half_integer_orders(self, mu):
        assert closed_form(mu, 0.25) is None

    @pytest.mark.parametrize("theta0", [1e-12, 2.3])
    def test_only_angles_the_bound_covers(self, theta0):
        # z rounds to 0 at 1e-12, and past z = 0.8 the bound's condition
        # number of asin no longer holds
        z = 0.5 * (1.0 - math.cos(theta0))
        assert closed_form(0.5, z) is None

    def test_orders_above_the_cutoff_limit_take_the_series(self):
        # a channel of order above the scan's cutoff limit has no root below
        # any cutoff, so no closed form is built for it
        closed = closed_form
        assert closed(_MAX_OMEGA + 0.5, 0.25) is None
        assert closed(_MAX_OMEGA - 0.5, 0.25) is not None


def second_bound_points(monkeypatch, points):
    """The points of ``points`` whose sign only the closed form's second,
    sharper bound certifies: certified, but not with that bound off."""
    def certified(mu, theta0, omega):
        z = 0.5 * (1.0 - math.cos(theta0))
        return closed_form(mu, z)(omega) is not None

    with monkeypatch.context() as patch:
        # an infinite unit fails every second bound
        patch.setattr(spectral_oracle, "_STEP_ULPS", math.inf)
        first = [certified(*point) for point in points]
    return [point for point, done in zip(points, first)
            if not done and certified(*point)]


class TestSecondBound:
    """Where the closed form's first bound fails, a second one that carries
    each step's error through the recurrence certifies more signs.  Each
    must be the series' exact sign: beside roots, near the recurrence's
    poles and at random.  Cut 32-fold, the bound certifies wrong signs in
    all but the pole rows here."""

    @pytest.mark.parametrize("d,theta0,omega_max,least", [
        (2, THETA0_GUARD, 30.0, 600), (2, 0.2, 60.0, 2), (4, 1.0, 30.0, 50),
        (2, math.pi / 3, 30.0, 50),
    ])
    def test_signs_beside_roots(self, monkeypatch, d, theta0, omega_max, least):
        points = second_bound_points(monkeypatch,
                                     points_beside_roots(d, theta0, omega_max))
        certified, wrong = series_sign_agreement(points)
        assert not wrong
        assert certified == len(points) >= least

    @pytest.mark.parametrize("theta0,least", [
        (0.02, 20), (math.pi / 2, 8), (THETA0_GUARD, 4),
    ])
    def test_signs_beside_integer_omega(self, monkeypatch, theta0, least):
        points = second_bound_points(monkeypatch,
                                     points_beside_integer_omega(theta0))
        certified, wrong = series_sign_agreement(points)
        assert not wrong
        assert certified == len(points) >= least

    def test_signs_at_random_points(self, monkeypatch):
        points = second_bound_points(monkeypatch, random_points())
        certified, wrong = series_sign_agreement(points)
        assert not wrong
        assert certified == len(points) >= 20

    @pytest.mark.parametrize("d,theta0", [(4, 1.0), (2, math.pi / 3)])
    def test_values_match_mpmath(self, monkeypatch, d, theta0):
        # the factor at the series' own z, beside roots: a value whose sign
        # the second bound certifies is within its own size of the truth,
        # and here within a quarter of it (0.20 at most, beside a root of
        # channel 1.5 at theta0 = 1)
        points = second_bound_points(monkeypatch,
                                     points_beside_roots(d, theta0, 30.0))
        assert len(points) >= 50
        z = 0.5 * (1.0 - math.cos(theta0))
        zm = mp.mpf(z)
        with mp.workdps(60):
            for mu, _, omega in points:
                value = closed_form(mu, z)(omega)
                expected = (mp.legenp(omega - 0.5, -mu, 1 - 2 * zm, type=2)
                            * mp.gamma(1 + mu) * ((1 - zm) / zm) ** (mu / 2))
                error = abs(value - expected)
                assert error < abs(value), (mu, omega)
                assert error <= 0.25 * abs(value), (mu, omega)


class TestDirichletRoots:
    @pytest.mark.parametrize("mu,expected", [
        (0.5, [2.0, 4.0, 6.0, 8.0]),
        (1.5, [3.0, 5.0, 7.0, 9.0]),
        (2.5, [4.0, 6.0, 8.0]),
    ])
    def test_hemisphere_closed_form(self, mu, expected):
        roots = dirichlet_roots(mu, math.pi / 2, 9.5)
        assert len(roots) == len(expected)
        for r, e in zip(roots, expected):
            assert abs(r - e) < 1e-8

    def test_roots_ascending_and_positive(self):
        roots = dirichlet_roots(1.0, 1.0, 40.0)
        assert roots == sorted(roots)
        assert roots[0] > 0

    def test_weyl_count(self):
        theta0 = 1.0
        omega_max = 40.0
        roots = dirichlet_roots(0.5, theta0, omega_max)
        estimate = omega_max * theta0 / math.pi
        assert abs(len(roots) - estimate) <= 2.0

    def test_asymptotic_spacing(self):
        theta0 = math.pi / 3
        roots = dirichlet_roots(0.5, theta0, 60.0)
        spacing = roots[-1] - roots[-2]
        assert spacing == pytest.approx(math.pi / theta0, rel=0.05)

    def test_angle_guard(self):
        with pytest.raises(ValidationError):
            dirichlet_roots(0.5, 2.5, 10.0)

    @pytest.mark.parametrize("mu", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("theta0", [0.6, math.pi / 3, math.pi / 2, 2.0])
    def test_bit_identical_to_bisection(self, mu, theta0):
        roots = dirichlet_roots(mu, theta0, 20.0)
        assert roots
        assert roots == bisection_roots(mu, theta0, 20.0)

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_evaluations_per_root(self, monkeypatch, mu):
        # plain bisection costs about 42 per root here, the scan 5.2 and 9.9
        # (68 for 13 roots, 119 for 12)
        calls = count_evaluations(monkeypatch)
        roots = dirichlet_roots(mu, math.pi / 3, 40.0)
        first = calls["evaluations"]
        assert first <= 10 * len(roots)
        calls["evaluations"] = 0
        assert dirichlet_roots(mu, math.pi / 3, 40.0) == roots
        assert calls["evaluations"] == first

    # 70,000 at theta0 = 1 would scan 89,127 points, 1e300 more than a list holds
    @pytest.mark.parametrize("theta0,omega_max", [
        (1.0, 70_000.0), (1.0, 1.001 * _MAX_OMEGA), (2.2, 1.001 * _MAX_OMEGA),
        (1.0, 1e300),
    ])
    def test_cutoff_limit_refused_before_any_work(
        self, monkeypatch, theta0, omega_max
    ):
        # fails fast, where a missing check would run for days
        monkeypatch.setattr(spectral_oracle, "_channel", no_evaluation)
        with pytest.raises(ValidationError, match="above the limit"):
            dirichlet_roots(0.5, theta0, omega_max)

    @pytest.mark.parametrize("mu,omega_max", [
        (math.nan, 10.0), (math.inf, 10.0), (0.5, math.nan), (0.5, math.inf),
    ])
    def test_non_finite_inputs(self, mu, omega_max):
        with pytest.raises(ValidationError):
            dirichlet_roots(mu, 1.0, omega_max)

    @pytest.mark.parametrize("mu", [-1.0, 0.0, -0.5])
    def test_nonpositive_mu(self, mu):
        # the same domain as ferrers_p; mu = -1 used to divide by zero
        with pytest.raises(ValidationError, match="positive"):
            dirichlet_roots(mu, 1.0, 5.0)

    @pytest.mark.parametrize("mu", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("theta0", [0.6, 1.2, 2.0])
    def test_no_root_at_zero_degree_offset(self, mu, theta0):
        # even in omega, so omega = 0 must not be a (double) root
        assert ferrers_p(mu, 0.0, math.cos(theta0)) > 0.0


# The spectra whose roots and work are pinned, keyed by (d, theta0,
# omega_max): the root count and the sha256 of the roots' float.hex, which
# must hold exactly, so that any moved bit fails, then the channel
# evaluations, the Ferrers series evaluations among them and the
# fixed-point sums of count_evaluations.  Those counts, and the re-sums
# (sums less series), are upper bounds, save the ones the last field names,
# which must hold exactly.  The re-sums at (2..4, pi/3, 40) are exact in
# test_resums_are_channel_zeros_on_the_grid.
SPECTRUM_PINS = {
    # verify-cap, criterion 6's geometry at a third of its cutoff
    (2, math.pi / 3, 40.0): (
        190, "ab64c0244414c2fe1cf47aed4f4f4dbc33d12016fd47ceb4b11a608373f4f2fa",
        1088, 15, 16, ()),
    # criterion 6
    (2, math.pi / 3, 120.0): (
        1777, "ff636c33f1fcc0552231243bb0071899f21ead42c77fceba659c9077f4d36169",
        9207, 46, 49, ()),
    # integer orders: no closed form, every evaluation a series
    (3, math.pi / 3, 40.0): (
        186, "13f22fea6a7994f4678f1b5965b37a5ff93280c434b7b7a5cb184893ec5f39af",
        1105, 1105, 1105, ()),
    # half-integer orders from 3/2, with no root on the grid
    (4, math.pi / 3, 40.0): (
        177, "26b6eaf5f1b27889e8bd9d05e0357ec65d5a952d688a497288a9c23156ec59cc",
        1065, 2, 3, ()),
    # the widest cap the oracle scans: the lowest roots of 38 channels crowd
    # onto the channel below, and 82 of their brackets show no sign change
    # and are walked on the scan grid
    (2, 2.2, 120.0): (
        5681, "76817473d73ab01710510aecc564d57de907e3b2249ad006bef03a3f1280863a",
        28484, 1239, 1276, ()),
    # the hemisphere: the scan step is 1/2, and the roots lie within
    # rounding above integers, which are grid points; a trial that would
    # pass an undecided grid point stops on it, so none is evaluated twice
    (2, math.pi / 2, 20.0): (
        90, "a685bda9fed96b114388e5e3f3590e3223b624a8bfead193465586dac060bfce",
        438, 101, 102, ()),
    # even D: integer orders, every evaluation a series
    (5, 1.8, 30.0): (
        243, "45a550280a5494f04145fa46568e684bf3a22d8937810cae4b9733a4e0d22058",
        1434, 1434, 1434, ("evaluations", "series")),
    # the widest cap at a low cutoff
    (2, 2.2, 30.0): (
        348, "ad2f1a85246fa4649237582b0ffed4dceee609b24a1df2133161d0e1441b8b7e",
        1962, 22, 23, ()),
    # high orders on the widest cap: the lowest roots of channels 72.5, 73.5
    # and 74.5 crowd, and each crowded bracket is walked on the scan grid
    (140, 2.2, 76.0): (
        21, "c0b2250bb82b57043d1e4e90752665354da92f4a7c3d0d61087b73b4799d93f3",
        353, 5, 8, ()),
}


class TestSpectrum:
    def test_channels_stop_when_empty(self):
        chans = spectrum(2, math.pi / 2, 6.5)
        # first roots are mu + 3/2 = k + 2 <= 6.5, so exactly five channels
        assert [ch.mu for ch in chans] == [0.5, 1.5, 2.5, 3.5, 4.5]
        assert [ch.degeneracy for ch in chans] == [1, 3, 5, 7, 9]

    def test_alpha_squared_positive(self):
        # every root of a sphere spectrum lies above d/2, so heat_trace
        # accepts it: alpha^2 = omega^2 - d^2/4 > 0
        chans = spectrum(2, 1.2, 15.0)
        assert min(ch.roots[0] for ch in chans) > 1.0
        cfg = SuspensionConfig(D=3, angle=AngleParams.from_theta0(1.2),
                               base=SphereBase(2), n_max=1)
        samples = heat_trace(cfg, [0.3], omega_max=15.0, channels=chans)
        assert samples[0].value > 0.0

    def test_positivity_guard_raises(self):
        fake = [EigenvalueChannel(1.5, 3, (3.0,)), EigenvalueChannel(0.5, 1, (0.8,))]
        with pytest.raises(AssumptionViolation, match=r"omega=0\.8 "):
            heat_trace(hemisphere_cfg(), [0.3], omega_max=15.0, channels=fake)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("theta0", [0.4, math.pi / 3, 1.8, 2.2])
    def test_interlaced_equals_scan(self, d, theta0):
        omega_max = 30.0 - 10.0 * theta0 / THETA0_GUARD
        chans = spectrum(d, theta0, omega_max)
        assert len(chans) > 1
        for ch in chans:
            assert ch.roots == tuple(dirichlet_roots(ch.mu, theta0, omega_max))
        next_mu = chans[-1].mu + 1.0
        assert dirichlet_roots(next_mu, theta0, omega_max) == []

    def test_missing_sign_change_raises(self, monkeypatch):
        # channel 1 folded to one sign: its brackets lose their sign changes,
        # and its scan, which finds no roots, cannot interlace channel 0
        wrap_channel(monkeypatch, lambda mu, f: (lambda w: abs(f(w))) if mu == 1.5 else f)
        with pytest.raises(MissedRootSuspicion, match="do not interlace"):
            spectrum(2, math.pi / 3, 20.0)

    def test_crowded_bracket_is_walked_on_the_grid(self):
        # on an obtuse cap the lowest roots of channels 71.5 and 72.5 crowd
        # onto 73 closer than the root tolerance: the first root of 72.5 is
        # the very double that is the second root of 71.5, so the bracket
        # between the first two roots of 71.5 shows no sign change.  It is
        # walked on the scan grid, and the walk returns the scan's roots.
        theta0, omega_max = THETA0_GUARD, 75.0
        below = dirichlet_roots(71.5, theta0, omega_max)
        assert abs(below[1] - 73.0) < 1e-10
        f = spectral_oracle._channel(72.5, theta0, {})
        grid = spectral_oracle._scan_grid(theta0, omega_max)
        roots, _ = spectral_oracle._bracket_roots(f, [*below, omega_max], grid,
                                                  [below])
        assert roots == dirichlet_roots(72.5, theta0, omega_max)
        assert roots[0] == below[1]

    def test_zero_on_the_first_end_is_refused(self, monkeypatch):
        theta0, omega_max = math.pi / 3, 20.0
        first = dirichlet_roots(0.5, theta0, omega_max)

        def zero_at_first_root(mu, f):
            return (lambda w: 0.0 if w == first[0] else f(w)) if mu == 1.5 else f

        wrap_channel(monkeypatch, zero_at_first_root)
        message = re.escape(f"unexpected root at omega = {first[0]}")
        with pytest.raises(MissedRootSuspicion, match=message):
            spectrum(2, theta0, omega_max)

    @pytest.mark.parametrize("zeros", [(1.2, 3.3, 4.1, 7.2), (2.5, 3.3, 4.1, 7.2)])
    def test_zero_on_an_inner_end_is_the_scans_root(self, zeros):
        # f is exactly 0 on the end 3.3, which is no point of the scan's
        # tree on the integer grid of pi/4.  The bracket that ends there is
        # walked on the grid, and the zero gives the root the scan's
        # bisection finds.  With a root before it in the same bracket (2.5)
        # the walk still carries f's sign past it.
        def f(w):
            return math.prod(z - w for z in zeros)

        ends = [0.7, 2.0, 3.3, 5.3, 8.0]
        grid = spectral_oracle._scan_grid(QUARTER, 8.0)
        roots, logs = spectral_oracle._bracket_roots(f, ends, grid, [ends[:-1]])
        assert roots == scan_bisection(f, QUARTER, 8.0)
        j = zeros.index(3.3)
        assert roots[j] != 3.3 and math.isnan(logs[j])

    @pytest.mark.parametrize("start", ["none", "left", "right", "midpoint",
                                       "after_infinite", "slope_zero",
                                       "slope_inf", "slope_minus_inf",
                                       "slope_nan", "slope_wrong_sign",
                                       "slope_tenfold"])
    @pytest.mark.parametrize("d,theta0", [(2, math.pi / 3), (3, 1.8)])
    def test_roots_do_not_depend_on_the_guess(self, monkeypatch, start, d,
                                               theta0):
        # the extrapolated start and slope only move the evaluations: a poor
        # start, just inside either end of the bracket or at its middle, or
        # none at all, gives the same roots bit for bit, and so does a
        # slope that is 0, infinite, NaN, of the wrong sign or 10x off.
        # "after_infinite" leaves every other extrapolation out, as
        # _extrapolated does an infinite one.
        omega_max = 25.0
        chans = spectrum(d, theta0, omega_max)

        def poor(lower):
            if not lower:  # a scan, with no channel below
                return []
            ends = [*lower[-1], omega_max]
            starts = []
            for j in range(len(lower[-1])):
                a, b = ends[j:j + 2]
                midpoint = 0.5 * (a + b)
                starts.append({
                    "none": None, "left": math.nextafter(a, b),
                    "right": math.nextafter(b, a), "midpoint": midpoint,
                    "after_infinite": midpoint if j % 2 else None}[start])
            return starts

        bad_slope = {
            "slope_zero": lambda s: 0.0,
            "slope_inf": lambda s: math.inf,
            "slope_minus_inf": lambda s: -math.inf,
            "slope_nan": lambda s: math.nan,
            "slope_wrong_sign": lambda s: s and -s,
            "slope_tenfold": lambda s: s and 10.0 * s,
        }.get(start)
        pinned_root = spectral_oracle._pinned_root
        starts, slopes = [], []

        def recorded(f, grid, a, fa, b, fb, first=None, slope=None):
            starts.append((first, 0.5 * (a + b)))
            slopes.append(slope)
            if bad_slope:
                slope = bad_slope(slope)
            return pinned_root(f, grid, a, fa, b, fb, first, slope)

        if not bad_slope:
            monkeypatch.setattr(spectral_oracle, "_extrapolated", poor)
        monkeypatch.setattr(spectral_oracle, "_pinned_root", recorded)
        assert spectrum(d, theta0, omega_max) == chans
        if bad_slope:
            # the predictions the bad slopes replaced were there to replace
            assert any(s is not None for s in slopes)
        assert all(x is None or math.isfinite(x) for x, _ in starts)
        if start == "after_infinite":
            # a missing prediction leaves no miss to correct the next start:
            # each start is its bracket's midpoint as predicted, unmoved
            given = [(x, mid) for x, mid in starts if x is not None]
            assert given and all(x == mid for x, mid in given)

    @pytest.mark.parametrize("key", SPECTRUM_PINS,
                             ids=lambda key: "{}-{:.6g}-{:g}".format(*key))
    def test_roots_and_work_pinned(self, monkeypatch, key):
        roots, digest, evaluations, series, sums, exact = SPECTRUM_PINS[key]
        calls = count_evaluations(monkeypatch)
        hexes = [r.hex() for ch in spectrum(*key) for r in ch.roots]
        assert len(hexes) == roots
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == digest
        calls["resums"] = calls["sums"] - calls["series"]
        pinned = {"evaluations": evaluations, "series": series, "sums": sums,
                  "resums": sums - series}
        for name, bound in pinned.items():
            assert calls[name] == bound if name in exact else calls[name] <= bound, name

    @pytest.mark.parametrize("d,resums", [(2, 1), (3, 0), (4, 1)])
    def test_resums_are_channel_zeros_on_the_grid(self, monkeypatch, d, resums):
        # The first sum of a spectrum, at omega = 0, starts at 102 bits, a
        # precision it passes, and does not re-sum.  At d = 2 channel 0's
        # order mu = 1/2 has the exact roots k pi / theta0 = 3k, every
        # fourth scan point: the scan evaluates within rounding of a zero
        # there (|f| about 1.3e-16), where the closed form never certifies
        # a sign.  The first such series, at omega = 3, loses more bits to
        # cancellation than the hint of the sum at omega = 0 and re-sums
        # once, and its hint covers every later series.  At d = 4 (mu = 3/2
        # and up) no root falls on the grid, and the one re-sum is the
        # first series past omega = 0, at grid point 18 in channel 19/2.
        # At d = 3 (integer mu, no closed form) no sum re-sums.
        calls = count_evaluations(monkeypatch)
        spectrum(d, math.pi / 3, 40.0)
        assert calls["sums"] - calls["series"] == resums

    def test_roots_fingerprint(self):
        # the verify-cap row of SPECTRUM_PINS, found by the oracle with no
        # counting wrapper in place: wrapping _channel moves no root bit
        roots, digest = SPECTRUM_PINS[2, math.pi / 3, 40.0][:2]
        hexes = [r.hex() for ch in spectrum(2, math.pi / 3, 40.0)
                 for r in ch.roots]
        assert len(hexes) == roots
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == digest

    @pytest.mark.parametrize("aim", [1e-10 / 1024, 1e-10 / 64])
    @pytest.mark.parametrize("d", [2, 3])
    def test_roots_do_not_depend_on_the_aim(self, monkeypatch, aim, d):
        # how far past its estimate a trial aims moves the evaluations,
        # never a root: a closed-form spectrum (d = 2) and a series one
        # (d = 3) keep their pinned roots at other aims, though each
        # evaluates f a different number of times
        key = (d, math.pi / 3, 40.0)
        roots, digest, evaluations = SPECTRUM_PINS[key][:3]
        calls = count_evaluations(monkeypatch)
        monkeypatch.setattr(spectral_oracle, "_AIM", aim)
        hexes = [r.hex() for ch in spectrum(*key) for r in ch.roots]
        assert len(hexes) == roots
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == digest
        assert calls["evaluations"] != evaluations

    @pytest.mark.parametrize("offset", [-5e-14, 5e-14])
    def test_replay_scan_with_a_grid_point_in_the_bracket(self, offset):
        # a root within 1e-13 of a grid point: the bracket holds the point,
        # the first undecided tree point, and the first trial, aimed past
        # the secant's estimate toward it, stops on it.  So the point is
        # evaluated as the scan evaluates it to pick the cell, the root is
        # plain bisection's of that cell, bit for bit, and only points
        # inside the bracket are evaluated.
        grid = spectral_oracle._scan_grid(1.0, 10.0)
        i = 4
        root = grid[i] + offset
        evaluated = []

        def f(w):
            evaluated.append(w)
            return root - w

        lo, hi = (grid[i - 1], grid[i]) if offset < 0 else (grid[i], grid[i + 1])
        while hi - lo > spectral_oracle._ABS_TOL:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            assert fm != 0.0
            if fm > 0:
                lo = mid
            else:
                hi = mid
        a, b = root - 1.5e-13, root + 1.5e-13
        fa, fb = f(a), f(b)
        evaluated.clear()
        got, _ = spectral_oracle._pinned_root(f, grid, a, fa, b, fb)
        assert evaluated[0] == grid[i]
        assert all(a < w < b for w in evaluated)
        assert got.hex() == (0.5 * (lo + hi)).hex()


# At theta0 = pi/4 the scan step pi/(4 theta0) is exactly 1, so the grid
# points are the integers 0, 1, 2, ... and a synthetic f can put a root on
# a grid point, a bisection midpoint or a secant point at will.
QUARTER = math.pi / 4


def synthetic_roots(monkeypatch, f, omega_max):
    """dirichlet_roots at mu = 1/2, theta0 = pi/4 with the channel's
    Dirichlet function replaced by f."""
    monkeypatch.setattr(spectral_oracle, "_channel",
                        lambda mu, theta0, state=None: f)
    return dirichlet_roots(0.5, QUARTER, omega_max)


class TestRootFinderBranches:
    """Branches that decide a root or refuse a run, on synthetic functions:
    every root must be plain scan-and-bisection's, bit for bit."""

    def test_secant_lands_on_the_root(self, monkeypatch):
        # the first secant point of cell (2, 3) is 2.5, an exact zero, which
        # collapses the bracket; the walk of the cell's bisection then meets
        # it, with no other evaluation
        evaluated = []

        def f(w):
            evaluated.append(w)
            return 2.5 - w

        grid = spectral_oracle._scan_grid(QUARTER, 6.0)
        fa, fb = f(2.0), f(3.0)
        evaluated.clear()
        root, log_slope = spectral_oracle._pinned_root(f, grid, 2.0, fa, 3.0,
                                                       fb)
        assert root == 2.5 and math.isnan(log_slope) and evaluated == [2.5]
        roots = synthetic_roots(monkeypatch, f, 6.0)
        assert roots == scan_bisection(f, QUARTER, 6.0) == [2.5]

    def test_bracket_of_adjacent_doubles(self):
        # no double lies strictly inside the bracket, so no tree point is
        # undecided: the walk reaches the scan's root without evaluating f
        a = math.pi
        b = math.nextafter(a, math.inf)

        def f(w):
            raise AssertionError("f evaluated")

        def signs(w):
            return 1.0 if w <= a else -1.0

        grid = spectral_oracle._scan_grid(QUARTER, 6.0)
        assert spectral_oracle._pinned_root(f, grid, a, 1.0, b, -1.0) == (
            scan_bisection(signs, QUARTER, 6.0)[0], math.log(2.0 / (b - a)))

    def test_bisection_midpoint_is_the_root(self, monkeypatch):
        # 2.25 is the second midpoint of cell (2, 3): in a bracket 2e-13
        # wide around it, the first trial, aimed past the secant's estimate
        # toward it, stops on it, and its exact zero is the root
        def f(w):
            return (2.25 - w) * (1.0 + w * w)

        a, b = 2.25 - 1e-13, 2.25 + 1e-13
        grid = spectral_oracle._scan_grid(QUARTER, 6.0)
        assert spectral_oracle._pinned_root(f, grid, a, f(a), b, f(b))[0] == 2.25
        roots = synthetic_roots(monkeypatch, f, 6.0)
        assert roots == scan_bisection(f, QUARTER, 6.0) == [2.25]

    def test_root_on_a_grid_point(self, monkeypatch):
        def f(w):
            return (2.0 - w) * (math.pi - w)

        roots = synthetic_roots(monkeypatch, f, 6.0)
        assert roots == scan_bisection(f, QUARTER, 6.0)
        assert roots[0] == 2.0 and len(roots) == 2

    def test_rising_root_on_a_grid_point(self, monkeypatch):
        # test_root_on_a_grid_point with f rising through its zero on grid
        # point 2: that is one root, and the next cell starts from the sign
        # past it, so (2, 3) is not taken for a sign change
        def f(w):
            return (w - 2.0) * (math.pi - w)

        roots = synthetic_roots(monkeypatch, f, 6.0)
        assert roots == scan_bisection(f, QUARTER, 6.0)
        assert roots[0] == 2.0 and len(roots) == 2
        assert abs(roots[1] - math.pi) < 1e-10

    def test_root_at_zero_refused(self, monkeypatch):
        with pytest.raises(MissedRootSuspicion, match="omega = 0"):
            synthetic_roots(monkeypatch, lambda w: math.sin(w), 6.0)

    def test_gap_monitor(self, monkeypatch):
        # roots 2.5 and 9.5 are 7 apart, above 1.5 pi / theta0 = 6, and both
        # lie beyond the turning region 2 mu / sin(theta0) = 1.41
        def f(w):
            return (2.5 - w) * (9.5 - w)

        assert scan_bisection(f, QUARTER, 12.0) == [2.5, 9.5]
        with pytest.raises(MissedRootSuspicion, match="gap 7.000"):
            synthetic_roots(monkeypatch, f, 12.0)

    def test_replay_scan_with_a_root_on_the_grid_point(self):
        # a bracket 2e-13 wide holds grid point 4, which is the root: the
        # scan's exact zero there, not a bisection of either cell
        grid = spectral_oracle._scan_grid(QUARTER, 10.0)

        def f(w):
            return (4.0 - w) * (1.0 + w)

        a, b = 4.0 - 1e-13, 4.0 + 1e-13
        assert grid[4] == 4.0
        assert spectral_oracle._pinned_root(f, grid, a, f(a), b, f(b))[0] == 4.0
        assert 4.0 in scan_bisection(f, QUARTER, 10.0)

    @pytest.mark.parametrize("zero", [3.0, 2.3])
    def test_false_position_lands_on_the_root(self, zero):
        # the caller's start lies _AIM above an exact zero of f, and the
        # first trial, aimed _AIM down toward the undecided tree point (grid
        # point 2 or 3), lands on it: on grid point 3 it is the root, as
        # the scan takes it; at 2.3, which no midpoint of cell (2, 3)
        # reaches, the walk of the bisection decides, as plain bisection
        # does
        grid = spectral_oracle._scan_grid(QUARTER, 6.0)

        def f(w):
            return (zero - w) * (1.0 + w)

        a, b = zero - 0.7, zero + 0.6
        first = zero + spectral_oracle._AIM
        assert first - spectral_oracle._AIM == zero
        root, log_slope = spectral_oracle._pinned_root(f, grid, a, f(a), b,
                                                       f(b), first)
        assert [root] == scan_bisection(f, QUARTER, 6.0)
        assert (root == zero) == (zero == 3.0) and math.isnan(log_slope)

    def test_random_brackets_give_the_scans_root(self):
        # seeded cases on four scan grids: roots on grid points, on
        # midpoints of the scan's bisection, within 1e-13 of either, and
        # anywhere, some between two adjacent doubles; brackets from
        # adjacent doubles up to 2 wide; good, bad and missing starts and
        # slopes.  Every root is the scan's, bit for bit, f is evaluated
        # only strictly inside the bracket, and log |f'| is NaN exactly
        # when an evaluation was an exact zero.
        rng = random.Random(20)
        omega_max = 8.0
        grids = {t: spectral_oracle._scan_grid(t, omega_max)
                 for t in (QUARTER, 1.0, math.pi / 3, THETA0_GUARD)}
        bad_starts = (None, -math.inf, math.inf, math.nan, 0.0, omega_max)
        bad_slopes = (0.0, math.inf, -math.inf, math.nan, 1e-300, 1e300)
        cases = 0
        while cases < 20_000:
            theta0, grid = rng.choice(list(grids.items()))
            k = rng.randrange(1, len(grid) - 1)
            r = grid[k]
            kind = rng.choice(("grid", "midpoint", "near", "anywhere"))
            if kind != "grid":
                lo, hi = grid[k - 1], grid[k]
                for _ in range(rng.randrange(1, 36)):
                    r = 0.5 * (lo + hi)
                    lo, hi = (r, hi) if rng.random() < 0.5 else (lo, r)
            if kind == "near":
                r += rng.uniform(-1e-13, 1e-13)
            elif kind == "anywhere":
                r = rng.uniform(0.1, omega_max - 0.1)
            # below an ulp: the root lies between r and the next double
            h = rng.choice((0.0, rng.uniform(0.0, 0.9) * math.ulp(r)))
            sign, growth = rng.choice((1.0, -1.0)), rng.uniform(0.0, 1.0)

            def f(w, r=r, h=h, sign=sign, growth=growth):
                return sign * ((r - w) + h) * (1.0 + growth * w)

            if rng.random() < 0.2:
                a, b = (r, math.nextafter(r, math.inf)) if h else (
                    math.nextafter(r, -math.inf), math.nextafter(r, math.inf))
            else:
                width = 10.0 ** rng.uniform(-15.0, math.log10(2.0))
                share = rng.random()
                a = max(0.0, r - share * width)
                b = min(omega_max, r + (1.0 - share) * width)
            fa, fb = f(a), f(b)
            if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
                continue
            slope = -sign * (1.0 + growth * r)
            first = rng.choice((
                None, rng.choice(bad_starts), rng.uniform(a, b),
                r + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-16.0, -4.0),
            ))
            slope = rng.choice((
                None, rng.choice(bad_slopes), -slope, 10.0 * slope,
                slope * (1.0 + rng.uniform(-1e-3, 1e-3)),
            ))
            values = {}

            def recorded(w, f=f):
                values[w] = f(w)
                return values[w]

            root, log_slope = spectral_oracle._pinned_root(
                recorded, grid, a, fa, b, fb, first, slope)
            assert [root.hex()] == [
                w.hex() for w in scan_bisection(f, theta0, omega_max)]
            assert all(a < w < b for w in values)
            assert math.isnan(log_slope) == (0.0 in values.values())
            cases += 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_extrapolation_is_none(self, bad):
        # a NaN or infinite log |f'| below gives no prediction at all, so
        # _bracket_roots has one rule for it and for too few channels
        assert spectral_oracle._extrapolated([[1.0], [2.0]]) == [3.0]
        assert spectral_oracle._extrapolated([[bad], [2.0]]) == [None]
        assert spectral_oracle._extrapolated([[2.0]]) == []

    def test_interlaced_zero_at_the_cutoff(self):
        # the last bracket (4.5, 7] ends on a zero of f: the scan's zero at
        # its last point
        omega_max = 7.0
        grid = spectral_oracle._scan_grid(QUARTER, omega_max)

        def f(w):
            return (math.pi - w) * (omega_max - w)

        roots, _ = spectral_oracle._bracket_roots(f, [1.5, 4.5, omega_max],
                                                  grid, [[1.5, 4.5]])
        assert roots == scan_bisection(f, QUARTER, omega_max)
        assert roots[-1] == omega_max and len(roots) == 2

    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_spectrum_refuses_low_dimension(self, monkeypatch, d):
        monkeypatch.setattr(spectral_oracle, "_channel", no_evaluation)
        with pytest.raises(ValidationError, match="d >= 2"):
            spectrum(d, 1.0, 10.0)


class TestHeatTrace:
    def test_monotone_decreasing(self):
        cfg = hemisphere_cfg()
        samples = heat_trace(cfg, [0.2, 0.4, 0.8], tolerance=1e-6, omega_max=15.0)
        values = [s.value for s in samples]
        assert values[0] > values[1] > values[2] > 0

    def test_hemisphere_mode_counting_oracle(self):
        # root-finder pipeline against the exact combinatorial trace
        cfg = hemisphere_cfg()
        omega_max = 21.9
        samples = heat_trace(
            cfg, [0.1, 0.25, 0.5], tolerance=1e-6, omega_max=omega_max
        )
        for s in samples:
            oracle = sum(
                hemisphere_mode_count(L) * math.exp(-L * (L + 2) * s.t)
                for L in range(1, 21)
            )
            assert s.value == pytest.approx(oracle, rel=1e-8)

    def test_mode_count_closed_form(self):
        for L in range(1, 30):
            assert hemisphere_mode_count(L) == L * (L + 1) // 2

    def test_tail_too_large(self):
        cfg = hemisphere_cfg()
        with pytest.raises(TailTooLarge):
            heat_trace(cfg, [1e-4], tolerance=1e-6, omega_max=12.0)

    def test_underflowed_trace(self):
        # exp(-3 t) underflows to 0 for every mode: no relative tail exists
        cfg = hemisphere_cfg()
        with pytest.raises(TailTooLarge, match="relative tail inf"):
            heat_trace(cfg, [1e4], tolerance=1e-6, omega_max=15.0)

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-6, math.inf])
    def test_tolerance_refused(self, tolerance):
        cfg = hemisphere_cfg()
        with pytest.raises(ValidationError, match="tolerance"):
            heat_trace(cfg, [0.3], tolerance=tolerance, omega_max=15.0)
        with pytest.raises(ValidationError, match="tolerance"):
            default_omega_max(3, 0.05, tolerance)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_times_refused(self, t):
        cfg = hemisphere_cfg()
        with pytest.raises(ValidationError, match="finite and positive"):
            heat_trace(cfg, [0.3, t], tolerance=1e-6, omega_max=15.0)
        with pytest.raises(ValidationError, match="finite and positive"):
            default_omega_max(3, t, 1e-6)

    @pytest.mark.parametrize("d,t_min", [(12, 100.0), (3, 1e8)])
    def test_large_t_min_takes_the_floor(self, d, t_min):
        # the Gaussian target turns negative here (from t_min of about 74 at
        # D = 12): the cutoff takes its floor and the tail bound decides
        assert default_omega_max(d, t_min, 1e-6) == 20.0

    def test_array_of_times_matches_a_list(self):
        # an ndarray of times once raised numpy's "truth value of an array
        # is ambiguous" ValueError
        cfg = hemisphere_cfg()
        ts = np.geomspace(0.1, 0.8, 6)
        bits = [
            [(float(s.t).hex(), s.value.hex(), s.tail_bound.hex()) for s in
             heat_trace(cfg, times, tolerance=1e-6, omega_max=40.0)]
            for times in (ts, ts.tolist())
        ]
        assert bits[0] == bits[1]

    def test_tail_bound_below_tolerance(self):
        cfg = hemisphere_cfg()
        samples = heat_trace(cfg, [0.3], tolerance=1e-6, omega_max=15.0)
        assert samples[0].tail_bound < 1e-6

    def test_sphere_base_required(self):
        from capheat.heat_coeffs import UserBase

        cfg = SuspensionConfig(
            D=3,
            angle=AngleParams.from_theta0(1.0),
            base=UserBase(2, {0: 1.0}),
            n_max=0,
        )
        with pytest.raises(ValidationError, match="sphere bases only"):
            heat_trace(cfg, [0.1], omega_max=15.0)

    def test_cutoff_doubling_stability(self):
        # fitted leading coefficient moves by < 1e-3 relative when the
        # cutoff doubles
        cfg = hemisphere_cfg()
        ts = list(np.geomspace(0.08, 0.8, 16))
        fits = []
        for omega_max in (20.0, 40.0):
            samples = heat_trace(cfg, ts, tolerance=1e-5, omega_max=omega_max)
            fits.append(fit_asymptotics(samples, 3, 4).coefficients[0])
        assert abs(fits[1] - fits[0]) <= 1e-3 * abs(fits[0])

    def test_mass_scales_each_sample(self):
        # exp(-m^2 t) times the massless trace, as compute_table folds the
        # mass in; the tail scales alike, so its relative bound is unchanged
        channels = spectrum(2, math.pi / 2, 15.0)
        plain, massive = (
            heat_trace(replace(hemisphere_cfg(), mass=mass), [0.1, 0.25, 0.5],
                       omega_max=15.0, channels=channels)
            for mass in (0.0, 3.0)
        )
        for s, m in zip(plain, massive):
            assert m.value == s.value * math.exp(-9.0 * s.t)
            assert (m.t, m.tail_bound) == (s.t, s.tail_bound)

    def test_massless_trace_is_the_correctly_rounded_sum(self):
        # mass 0 multiplies by exp(-0.0) = 1, so no bit of the fsum moves
        channels = spectrum(2, math.pi / 2, 15.0)
        (sample,) = heat_trace(hemisphere_cfg(), [0.25], omega_max=15.0,
                               channels=channels)
        assert sample.value == math.fsum(
            ch.degeneracy * math.exp(-(w * w - 1.0) * 0.25)
            for ch in channels for w in ch.roots
        )

    def test_mass_underflow_refused(self):
        # exp(-1600 * 0.5) is 0 in doubles: no trace is left to certify
        cfg = replace(hemisphere_cfg(), mass=40.0)
        with pytest.raises(NumericalError,
                           match="mass=40.0 underflows the trace at t=0.5"):
            heat_trace(cfg, [0.1, 0.5], omega_max=15.0)


def sphere_cfg(d: int, theta0: float) -> SuspensionConfig:
    return SuspensionConfig(D=d + 1, angle=AngleParams.from_theta0(theta0),
                            base=SphereBase(d), n_max=0)


def channels_below(full, omega_max):
    """The channels of ``full`` cut to their roots at or below omega_max."""
    return [EigenvalueChannel(ch.mu, ch.degeneracy,
                              tuple(w for w in ch.roots if w <= omega_max))
            for ch in full if ch.roots[0] <= omega_max]


def bound_over_true_tail(d, theta0, omega_max, ts, full):
    """tail_bound over the true relative tail at each t of ``ts``, with the
    channels cut at omega_max from ``full``, a spectrum to 3 omega_max or
    more.  The true tail is the sum over the roots in (omega_max, 3
    omega_max] plus the bound on the rest, taken at 3 omega_max: so it is
    overstated, if at all, by that rest alone."""
    cfg = sphere_cfg(d, theta0)
    samples, rests = (
        heat_trace(cfg, ts, tolerance=1e300, omega_max=cut,
                   channels=channels_below(full, cut))
        for cut in (omega_max, 3.0 * omega_max)
    )
    above = [(ch.degeneracy, w * w - 0.25 * d * d)
             for ch in full for w in ch.roots if omega_max < w <= 3.0 * omega_max]
    return [
        s.tail_bound * s.value / math.fsum(
            [rest.tail_bound * rest.value,
             *(g * math.exp(-alpha_sq * s.t) for g, alpha_sq in above)])
        for s, rest in zip(samples, rests)
    ]


# (d, theta0) of the tail-bound grid: acute, right and obtuse caps, odd and
# even D, d up to 11
TAIL_GEOMETRIES = [(2, math.pi / 2), (2, math.pi / 3), (2, 0.3), (2, 2.2),
                   (3, math.pi / 3), (4, 1.0), (5, 1.8), (11, 1.0)]


def d201_trace(t, omega_max=130.0, tolerance=1e-6):
    """One sample of the D = 201 trace over its spectrum at theta0 = 1,
    whose lowest root, 125.38 at mu = 99.5, sits above d/2 = 100."""
    return heat_trace(sphere_cfg(200, 1.0), [t], tolerance=tolerance,
                      omega_max=omega_max,
                      channels=spectrum(200, 1.0, omega_max))


class TestWeylTail:
    @pytest.mark.parametrize("d,theta0", TAIL_GEOMETRIES)
    def test_bound_covers_the_true_tail(self, d, theta0):
        # cutoffs 4..20, at times where the relative tail runs from about 1
        # to 1e-14: 732 points, at 105 of which the Weyl extrapolation that
        # the bound replaces was below the true tail
        full = spectrum(d, theta0, 60.0)
        for omega_max in map(float, range(4, 21)):
            if full and full[0].roots[0] <= omega_max:
                ts = [2.0**k / omega_max**2 for k in range(6)]
                ratios = bound_over_true_tail(d, theta0, omega_max, ts, full)
                assert min(ratios) >= 1.0, (omega_max, ratios)

    def test_bound_covers_the_hemisphere_grids(self):
        # the 16 times of test_cutoff_doubling_stability at cutoff 20, and
        # the hemisphere at cutoff 4, t = 0.9548, where the Weyl
        # extrapolation gave 1.25e-5 against a true tail of 6.19e-5
        full = spectrum(2, math.pi / 2, 60.0)
        ts = list(np.geomspace(0.08, 0.8, 16))
        assert min(bound_over_true_tail(2, math.pi / 2, 20.0, ts, full)) >= 1.0
        (ratio,) = bound_over_true_tail(2, math.pi / 2, 4.0, [0.9548], full)
        assert 1.0 <= ratio < 3.0

    def test_bound_covers_the_root_just_past_each_obtuse_cutoff(self):
        # theta0 = 2.2: the potential floor takes c = 1 / sin^2 min(theta0,
        # pi/2) = 1.  Each cutoff lies 1e-6 below a root up to 30 of a
        # channel mu >= 3/2, whose floor c decides: 327 cutoffs.  In logs,
        # relative to the cutoff's heat weight, the tightest margin is 4.6e-5
        # (root 2.2823, t = 10); with c = 1 / sin^2 theta0 the bound falls
        # below the tail at 7 cutoffs, by e^-0.505 already at t = 1.
        d, theta0 = 2, 2.2
        full = spectrum(d, theta0, 40.0)
        roots = sorted((w, ch.degeneracy) for ch in full for w in ch.roots)
        cutoffs = [w - 1e-6 for ch in full[1:] for w in ch.roots if w <= 30.0]
        assert len(cutoffs) == 327
        for cut in cutoffs:
            found = {k: n for k, ch in enumerate(full)
                     if (n := bisect.bisect_left(ch.roots, cut))}
            # the roots above 40 weigh below e^-700 of the one past the cutoff
            tail = roots[bisect.bisect_left(roots, (cut,)):]
            for t in (1.0, 10.0, 100.0):
                log_tail = math.log(math.fsum(
                    g * math.exp(-(w * w - cut * cut) * t) for w, g in tail))
                log_bound = spectral_oracle._log_tail_scale(d, theta0, cut, found, t)
                assert log_bound >= log_tail, (cut, t, log_bound - log_tail)

    def test_true_tail_above_the_tolerance_is_refused(self):
        # the hemisphere at cutoff 4: the true relative tail at t = 0.9548 is
        # 6.19e-5, above the tolerance 2e-5, and the bound gives 1.49e-4
        with pytest.raises(TailTooLarge, match=r"relative tail 1\.49e-04 "):
            heat_trace(hemisphere_cfg(), [0.9548], tolerance=2e-5, omega_max=4.0)

    @pytest.mark.parametrize("t,message", [
        # the channel ratio falls below 1 at k = 742, whose degeneracy is
        # 3.9e209
        (1e-4, r"relative tail [\d.]+e\+165 "),
        # the degeneracy leaves the doubles first, at k = 2531: inf
        (1e-8, "relative tail inf"),
        # finite, and still above the tolerance: the loop stops at k = 10
        (1e-2, r"relative tail [\d.]+e\+10 "),
    ], ids=["small-t", "tiny-t", "large-t"])
    def test_overflowing_factors_give_tail_too_large(self, t, message):
        # D = 201: degeneracies up to and beyond the doubles
        with pytest.raises(TailTooLarge, match=message):
            d201_trace(t)

    def test_overflowing_factors_give_a_finite_tail(self):
        # at t = 0.1 the trace is 3.75e-249 and exp(d^2 t / 4) = exp(1000)
        # is not a double, but the relative tail is small
        (sample,) = d201_trace(0.1)
        assert 0.0 < sample.value < 1e-240
        assert 0.0 < sample.tail_bound < 1e-30

    @pytest.mark.parametrize("big_d,root,t,omega_max,error", [
        # the channel loop reaches its cap of _MAX_ROOTS channels
        (3, 2.2, 1e-300, 15.0, TailTooLarge),
        # the degeneracies leave the doubles at k = 861
        (340, 200.0, 1e-300, 200.0, TailTooLarge),
        (340, 200.0, 0.01, 200.0, None),
        # about 1e9 channels lie below this cutoff
        (3, 2.2, 0.5, 1e9, ValidationError),
    ], ids=["cap", "D340-tiny-t", "D340", "cutoff-1e9"])
    def test_every_input_ends_within_a_second(self, big_d, root, t, omega_max,
                                              error):
        # a tolerance of 1e300 stops no loop early
        d = big_d - 1
        channels = [EigenvalueChannel(0.5 * (d - 1), 1, (root,))]
        start = time.perf_counter()
        if error is None:
            (sample,) = heat_trace(sphere_cfg(d, 1.0), [t], tolerance=1e300,
                                   omega_max=omega_max, channels=channels)
            assert 0.0 < sample.tail_bound < math.inf
        else:
            with pytest.raises(error):
                heat_trace(sphere_cfg(d, 1.0), [t], tolerance=1e300,
                           omega_max=omega_max, channels=channels)
        assert time.perf_counter() - start < 1.0

    def test_bound_underflowing_to_zero_gives_a_zero_tail(self):
        # at t = 100 every term of the bound underflows, though the trace,
        # 5.1e-131, does not: the tail is 0, not a refusal
        (sample,) = heat_trace(hemisphere_cfg(), [100.0], omega_max=15.0)
        assert sample.value > 0.0
        assert sample.tail_bound == 0.0

    def test_bound_at_the_earliest_time_carries_to_the_later_ones(self):
        # each sample's tail is the bound at t_min carried by the cutoff's
        # heat weight: asked alone, a later time is bounded no worse
        cfg = hemisphere_cfg()
        channels = spectrum(2, math.pi / 2, 15.0)
        together = heat_trace(cfg, [0.4, 0.1, 0.2], omega_max=15.0,
                              channels=channels)
        for sample in together:
            (alone,) = heat_trace(cfg, [sample.t], omega_max=15.0,
                                  channels=channels)
            assert alone.value == sample.value
            assert alone.tail_bound <= sample.tail_bound
        assert together[1].tail_bound == heat_trace(
            cfg, [0.1], omega_max=15.0, channels=channels)[0].tail_bound


class TestFit:
    def test_recovers_synthetic_coefficients(self):
        big_d = 3
        c = [0.25, -0.1, 0.05, 0.01, -0.002]
        ts = np.geomspace(1e-3, 1e-2, 20)
        samples = [
            HeatTraceSample(
                t, sum(ck * t ** (0.5 * (k - big_d)) for k, ck in enumerate(c)), 0.0
            )
            for t in ts
        ]
        fit = fit_asymptotics(samples, big_d, 4)
        for got, want in zip(fit.coefficients, c):
            assert got == pytest.approx(want, rel=1e-6)
            assert type(got) is float  # FitResult's annotation, not numpy's
        assert type(fit.condition_number) is float

    def test_validations(self):
        samples = [HeatTraceSample(t, 1.0, 0.0) for t in np.geomspace(1e-3, 1e-2, 20)]
        with pytest.raises(ValidationError):
            fit_asymptotics(samples, 3, 5)
        with pytest.raises(ValidationError, match="n_fit must lie in 0..4"):
            fit_asymptotics(samples, 3, -1)
        # a non-integral n_fit used to fit np.arange(n_fit + 1) powers
        for n_fit in (1.5, 2.0, "2", None):
            with pytest.raises(ValidationError, match="n_fit must be an integer"):
                fit_asymptotics(samples, 3, n_fit)
        assert len(fit_asymptotics(samples, 3, np.int64(2)).coefficients) == 3
        with pytest.raises(ValidationError):
            fit_asymptotics(samples[:5], 3, 4)
        narrow = [HeatTraceSample(t, 1.0, 0.0) for t in np.linspace(1e-3, 2e-3, 20)]
        with pytest.raises(ValidationError):
            fit_asymptotics(narrow, 3, 4)

    @pytest.mark.parametrize("t_min,value,big_d", [
        (1e-300, 1.0, 3),  # u_ref^4 underflows: 0/0
        (1e-300, 1.0, 1),  # and c/0
        (1e10, 1e300, 10),  # the trace times t^(D/2) overflows
    ])
    def test_beyond_doubles_refused(self, t_min, value, big_d):
        samples = [HeatTraceSample(float(t), value, 0.0)
                   for t in np.geomspace(t_min, 10.0 * t_min, 12)]
        with pytest.raises(NumericalError, match="double"):
            fit_asymptotics(samples, big_d, 4)

    def test_matches_exact_least_squares(self):
        # the Jacobi SVD against the least-squares solution of the same
        # doubles in 50 digits, on the README verify's times with noisy
        # values (numpy's lstsq was off by up to 4.9e-9 here)
        big_d, c = 3, [0.25, -0.1, 0.05, 0.01, -0.002]
        rng = random.Random(7)
        samples = [
            HeatTraceSample(t, sum(ck * t ** (0.5 * (k - big_d))
                                   for k, ck in enumerate(c))
                            * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0)), 0.0)
            for t in map(float, np.geomspace(1.5e-3, 1.6e-2, 24))
        ]
        fit = fit_asymptotics(samples, big_d, 4)
        u = [math.sqrt(s.t) for s in samples]
        with mp.workdps(50):
            design = mp.matrix([[(x / max(u)) ** k for k in range(5)] for x in u])
            y = mp.matrix([s.value * s.t ** 1.5 for s in samples])
            exact = mp.lu_solve(design.T * design, design.T * y)
            for k, got in enumerate(fit.coefficients):
                want = exact[k] / mp.mpf(max(u)) ** k
                assert abs(got - want) <= 1e-8 * abs(want), k

    def test_svd_sweep_limit(self, monkeypatch):
        # the README verify's design needs 5 sweeps
        monkeypatch.setattr(spectral_oracle, "_MAX_SWEEPS", 1)
        samples = [HeatTraceSample(float(t), 1.0 / t, 0.0)
                   for t in np.geomspace(1.5e-3, 1.6e-2, 24)]
        with pytest.raises(NumericalError, match="did not converge in 1 sweeps"):
            fit_asymptotics(samples, 3, 4)

    def test_ill_conditioned_detected(self):
        # nearly coincident abscissas push the design matrix over the cap
        ts = np.concatenate([np.full(12, 1e-3) * (1 + 1e-12 * np.arange(12)), [1e-2]])
        samples = [HeatTraceSample(float(t), 1.0, 0.0) for t in ts]
        with pytest.raises(IllConditioned):
            fit_asymptotics(samples, 3, 4)
