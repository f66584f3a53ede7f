from __future__ import annotations

import hashlib
import math
import random
import re

import mpmath
import pytest

from capheat.errors import CapheatError, NumericalError, SlowConvergence, ValidationError
from capheat.legendre_asymptotics import StructuredOmega, chi, omega_structures
from capheat import special_eval
from capheat.special_eval import AngleParams, c1, f_total, gauss_2f1, recip_gamma

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def c1_double_series(theta0: float, d_minus_n: float, tol: float = 1e-15) -> float:
    """Double-series form of the leading angular factor.

    (1/sqrt(pi)) sum_k (2k)!/(2^{2k} (k!)^2)
        sum_j Gamma(j+k+1/2) Gamma(q+j) / (Gamma(j+1) Gamma(q))
            * sin^{2j+2k} * prod_{i=1}^{j+k} 2/(d_minus_n + 2i),
    with q = (d_minus_n - 1)/2.  Summed by shells in m = j + k with all terms
    in log space (the raw Gammas overflow long before convergence).
    """
    q = 0.5 * (d_minus_n - 1.0)
    log_sin2 = 2.0 * math.log(math.sin(theta0))
    total = 0.0
    quiet = 0
    for m in range(0, 4000):
        shell = 0.0
        # prod_{i=1}^{m} 2/(d_minus_n+2i) in log space
        log_prod = sum(
            math.log(2.0 / (d_minus_n + 2.0 * i)) for i in range(1, m + 1)
        )
        for k in range(0, m + 1):
            j = m - k
            log_term = (
                math.lgamma(2 * k + 1)
                - 2 * k * math.log(2.0)
                - 2.0 * math.lgamma(k + 1)
                + math.lgamma(j + k + 0.5)
                + math.lgamma(q + j)
                - math.lgamma(j + 1.0)
                - math.lgamma(q)
                + m * log_sin2
                + log_prod
            )
            shell += math.exp(log_term)
        total += shell
        if shell < tol * total:
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return total / SQRT_PI


def c4_direct_series(i, structure, angle, d_minus_n, tol=1e-15):
    """Alternating-series form of the mixed angular factor (the unrewritten
    hypergeometric): per (j, b) family,

    Gamma(A+b+j)/(Gamma(A) Gamma(b+i/2))
        * sum_r (-1)^r Gamma(r+b+i/2)/Gamma(r+b+j+i/2)
              cos^{2r} prod_{l<r}(s-l) / r!.
    """
    s = 0.5 * d_minus_n
    big_a = s + 0.5 * i
    total = 0.0
    for j in range(1, i + 1):
        for b in range(chi(i), i + 1):
            z = structure.z_coeffs[(b, j)]
            if z == 0:
                continue
            zt = float(z) * angle.cos_theta ** (i + 2 * b)
            pref = math.gamma(big_a + b + j) / (
                math.gamma(big_a) * math.gamma(b + 0.5 * i)
            )
            beta = b + 0.5 * i
            term = math.gamma(beta) / math.gamma(beta + j)
            inner = term
            r = 0
            while True:
                term *= (
                    -(s - r) * angle.cos2 * (r + beta) / ((r + beta + j) * (r + 1.0))
                )
                inner += term
                r += 1
                if term == 0.0 or (abs(term) < tol * abs(inner) and r > s):
                    break
                if r > 200_000:
                    raise AssertionError("oracle series failed to converge")
            total += zt * pref * inner
    return angle.sin_theta ** (-d_minus_n) * total


def bessel_limit_weight(i, structure, d_minus_n):
    """Cone-limit value of the order-i angular weight (cos -> 1 in the
    gamma-free family; the other families cancel by the sum rule)."""
    big_a = 0.5 * (d_minus_n + i)
    return sum(
        float(c)
        * math.gamma(big_a + b)
        / (math.gamma(big_a) * math.gamma(b + 0.5 * i))
        for b, c in structure.x_coeffs.items()
        if c != 0
    )


# ---------------------------------------------------------------------------
# gauss_2f1
# ---------------------------------------------------------------------------


# A grid through every branch of gauss_2f1's two shapes and its refusals:
# terminating a or b on both sides of x = 1/2, x = 0 and x = 1, the direct
# series and the connection formula for c - a - b away from an integer, and
# x = 1 - 2^-52; and the 16 triples of neither shape (c - a - b within 0.05
# of an integer, nothing terminating), which no package caller builds and
# which are refused.
GAUSS_A = (-4.0, -1.0, 0.0, 0.3, 1.5, 2.5, -2.5)
GAUSS_B = (-3.0, 0.5, 1.0, 2.25)
GAUSS_C = (0.5, 1.5, 2.0, 3.0, 3.7)
GAUSS_X = (0.0, 0.25, 0.5, 0.75, 0.9375, 1.0 - 2.0**-52, 1.0)
# sha256 of the float.hex of each value, or the name of the error it raises
GAUSS_DIGEST = "ad69ce2db99c0ab9d3898821820bfef34039d8894b7d8eb04ed2b36f7c9956c3"


def off_route(a, b, c) -> bool:
    """Neither of gauss_2f1's two shapes: nothing terminates and c - a - b
    lies within 0.05 of an integer."""
    w = c - a - b
    terminating = any(p <= 0.0 and p == math.floor(p) for p in (a, b))
    return not terminating and abs(w - round(w)) <= 0.05


def outcome(a, b, c, x) -> str:
    """float.hex of gauss_2f1's value, or the name of the error it raises."""
    try:
        return gauss_2f1(a, b, c, x).hex()
    except CapheatError as exc:
        return type(exc).__name__


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.7, -1.3, 2.2, 0.0) == 1.0

    @pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 2.0), (2.5, 1.0, 1.5), (0.3, 0.4, 3.72),
                                       (1e308, 1e308, 0.5)])
    def test_off_route_refused(self, a, b, c):
        # c - a - b = 0, -2 and 3.02, none terminating: the log closed form
        # -log(1 - x)/x, a terminating Euler transform, and neither; and
        # finite parameters whose c - a - b overflows to -inf, which raised
        # a bare OverflowError from rounding it
        with pytest.raises(ValidationError, match="neither terminates"):
            gauss_2f1(a, b, c, 0.3)

    def test_gauss_summation_at_one(self):
        assert gauss_2f1(0.5, 1.5, 2.5, 1.0) == pytest.approx(
            0.75 * math.pi, rel=1e-14
        )

    def test_parameter_pole(self):
        with pytest.raises(ValidationError, match="nonpositive integer"):
            gauss_2f1(0.5, 0.5, 0.0, 0.3)
        with pytest.raises(ValidationError, match="nonpositive integer"):
            gauss_2f1(0.5, 0.5, -2.0, 0.3)

    def test_divergent_at_one(self):
        with pytest.raises(ValidationError, match="c-a-b > 0"):
            gauss_2f1(0.5, 1.2, 1.5, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", ["a", "b", "c", "x"])
    def test_non_finite_refused(self, slot, value):
        # a NaN x used to pass the range check and run the series to its
        # term budget; an infinite or NaN parameter raised OverflowError or
        # ValueError from the plan's rounding
        args = {"a": 0.5, "b": 1.5, "c": 2.5, "x": 0.3, slot: value}
        match = "argument" if slot == "x" else "must be a finite double"
        with pytest.raises(ValidationError, match=match):
            gauss_2f1(**args)

    @pytest.mark.parametrize("a", [-2.5, 0.3, 1.7])
    @pytest.mark.parametrize("b", [0.4, 2.2])
    @pytest.mark.parametrize("c", [1.3, 3.7])
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.8, 0.95])
    def test_against_scipy(self, a, b, c, x):
        # two of the triples, c - a - b = 4 and 3, are of neither shape
        if off_route(a, b, c):
            with pytest.raises(ValidationError, match="neither terminates"):
                gauss_2f1(a, b, c, x)
            return
        from scipy.special import hyp2f1

        expected = float(hyp2f1(a, b, c, x))
        assert gauss_2f1(a, b, c, x) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("x", [0.3, 0.9])
    def test_terminating_series(self, x):
        from scipy.special import hyp2f1

        expected = float(hyp2f1(-3.0, 1.4, 2.2, x))
        assert gauss_2f1(-3.0, 1.4, 2.2, x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "a,b,c,x",
        [
            (0.5, 1.5, 2.5, 0.25),
            (-1.5, 2.0, 3.3, 0.6),
            (0.3, 0.7, 1.9, 0.85),
            (1.25, 2.5, 4.75, 0.5),
        ],
    )
    def test_symmetry_bit_for_bit(self, a, b, c, x):
        # (1.25, 2.5, 4.75) has c - a - b = 1: both orders are refused
        assert outcome(a, b, c, x) == outcome(b, a, c, x)
        assert off_route(a, b, c) == (outcome(a, b, c, x) == "ValidationError")

    @pytest.mark.parametrize(
        "a,b,c,x",
        [
            (0.3, 1.2, 2.75, 0.2),
            (0.3, 1.2, 2.75, 0.45),
            (0.6, 0.8, 2.9, 0.7),
            (0.25, 1.1, 3.15, 0.9),
        ],
    )
    def test_euler_identity(self, a, b, c, x):
        lhs = gauss_2f1(a, b, c, x)
        rhs = (1.0 - x) ** (c - a - b) * gauss_2f1(c - a, c - b, c, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gamma_overflow_raises_only_where_needed(self):
        # Gamma(200.3) overflows; the plan holds the connection formula's
        # Gamma factors, so the parameters are refused at every x, the
        # direct series' x = 0.3 too
        for x in (0.3, 0.9):
            with pytest.raises(OverflowError, match=r"2F1\(0\.5, 1\.0; 200\.3\)"):
                gauss_2f1(0.5, 1.0, 200.3, x)

    def test_argument_near_one_stays_accurate(self):
        # connection branch vs the Gauss value one ulp away from x = 1
        near = gauss_2f1(0.5, 1.5, 2.5, 1.0 - 2.0**-52)
        assert near == pytest.approx(0.75 * math.pi, rel=1e-7)

    def test_bits_are_pinned(self):
        # every value of the grid, bit for bit, and every refusal
        digest = hashlib.sha256()
        refused = set()
        for a in GAUSS_A:
            for b in GAUSS_B:
                for c in GAUSS_C:
                    for x in GAUSS_X:
                        result = outcome(a, b, c, x)
                        if off_route(a, b, c):
                            assert result == "ValidationError", (a, b, c, x)
                            refused.add((a, b, c))
                        digest.update(f"{a} {b} {c} {x} {result}\n".encode())
        assert len(refused) == 16
        assert digest.hexdigest() == GAUSS_DIGEST


class TestPlanCensus:
    """The two planned 2F1 shapes refuse nothing an accepted configuration
    builds, up to SuspensionConfig's limit D = 340: c1's plan for every
    D - n, and the z family's for every order i <= 16 that an index n of
    such a D reaches (i <= n - 1, so i + 1 + (D - n) <= 340), at the lowest
    and the highest D - n."""

    def test_c1_plans(self):
        for d_minus_n in range(1, 341):
            s = 0.5 * d_minus_n
            special_eval._hyp2f1_plan(0.5, s, s + 1.0)

    def test_weight_plans(self):
        structures = omega_structures(16)
        overflowed = 0
        for d_minus_n in (*range(1, 41), *range(320, 340)):
            s = 0.5 * d_minus_n
            for i in range(1, min(16, 339 - d_minus_n) + 1):
                structure = structures[i - 1]
                try:
                    special_eval._weight_plan(structure, float(d_minus_n))
                except OverflowError:
                    # a Gamma argument, at most s + 5i/2, past 171.6 where
                    # Gamma leaves the double range: not a 2F1 refusal; no
                    # accepted configuration builds this weight's 2F1s
                    assert s + 2.5 * i > 171.6, (d_minus_n, i)
                    overflowed += 1
                    continue
                for (b, j), z in structure.z_coeffs.items():
                    if z:
                        special_eval._hyp2f1_plan(-s, b + 0.5 * i, b + 0.5 * i + j)
        # all at D - n >= 320 (ROADMAP item 2's domain)
        assert overflowed == 138


class TestTerminatingCancellation:
    """2F1(-N, 1/2; 3/2; x) = int_0^1 (1 - x t^2)^N dt lies in (0, 1), but its
    series alternates, and the loss grows with N (gauss_2f1's docstring):
    where its own estimate of the loss exceeds 1e-10, gauss_2f1 refuses."""

    @staticmethod
    def exact(n, x):
        with mpmath.workdps(60):
            return mpmath.hyp2f1(-n, 0.5, 1.5, x), mpmath.hyp2f1(-n, 0.5, 1.5, -x)

    @staticmethod
    def unchecked(n, x):
        """The series value and the package's loss estimate for it."""
        plan = special_eval._hyp2f1_plan(-float(n), 0.5, 1.5)
        value = special_eval._hyp2f1_eval(plan, x, 1.0 - x)
        return value, special_eval._terminating_loss(plan[0], x, value)

    @pytest.mark.parametrize("n", [5, 9, 20, 40, 60, 100, 200])
    @pytest.mark.parametrize("x", [0.3, 0.5, 0.9, 0.99])
    def test_within_stated_bound(self, n, x):
        # relative error up to about u * sum|t_m| / |F|, with
        # sum|t_m| = 2F1(-N, b; c; -x) for b, c > 0
        value, abs_terms = self.exact(n, x)
        bound = float(2.0**-53 * abs_terms / value)
        computed, loss = self.unchecked(n, x)
        if loss > 1e-10:
            # refused, and the exact bound agrees to a factor 2; the estimate
            # itself may be far off here, as it divides by the ruined value
            assert bound > 0.5e-10
            with pytest.raises(NumericalError, match="cancellation"):
                gauss_2f1(-float(n), 0.5, 1.5, x)
            return
        assert 0.5 * bound <= loss <= 2.0 * bound
        assert gauss_2f1(-float(n), 0.5, 1.5, x) == computed
        assert abs((computed - value) / value) <= bound

    def test_long_series_against_closed_form(self):
        # the series gives 0.1337 against 0.1199, and -5318 against 0.114:
        # wrong in the first digit, so refused instead of returned
        for n, x in ((60, "0.9"), (200, "0.3")):
            with mpmath.workdps(30):
                closed = mpmath.quad(lambda t: (1 - mpmath.mpf(x) * t * t) ** n, [0, 1])
            computed, _ = self.unchecked(n, float(x))
            assert abs(computed - closed) > 0.1 * closed
            with pytest.raises(NumericalError, match="cancellation"):
                gauss_2f1(-float(n), 0.5, 1.5, float(x))


def builtin_max_series_2f1(a: float, b: float, c: float, x: float) -> float:
    """The series loop as it was before it dropped its interpreter overhead
    (a max() per series, an int term bound), kept verbatim as the reference
    for its bits, with the tolerance and term budget it had."""
    total, comp, term = 1.0, 0.0, 1.0
    # past this index the term signs are fixed; a terminating series meets
    # its zero term before it gets there
    settled = max(0.0, -a, -b)
    small_streak = 0
    tol, max_terms = 1e-13, 100_000
    m = 0.0  # a float counter: every index up to _MAX_TERMS is exact
    while m < max_terms:
        term *= (a + m) * (b + m) / ((c + m) * (1.0 + m)) * x
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
    raise SlowConvergence(
        f"hypergeometric series at x={x} not converged after {100_000} terms"
    )


# The series arguments: the edges of [0, 1] and the midpoint, and sin^2 and
# cos^2 of the assembly sweep's angles, where the plans run their series
SWEEP_THETAS = (1e-3, 1e-2, 0.1, 1.0, 2.0, 3.0, 3.1)
SERIES_X = sorted({0.0, 1e-12, 0.5, 1.0 - 2.0**-52} | {
    f(t) ** 2 for t in SWEEP_THETAS for f in (math.sin, math.cos)
})


def series_cases(per_x=112, seed=19):
    """Seeded (a, b, c, x): a or b terminating, both terminating in either
    order, both positive (settled is negative), and a nonterminating
    negative a down to -40, with b positive or negative (settled is the
    larger of -a and -b), where the terms can settle below the tolerance
    before their signs do; c at or near the half-integers the weight plans
    use, raised by max(a, b, 0) + max(a + b, 0) for x above 1/2 unless both
    a and b terminate, so that a series converges well within its budget."""
    rng = random.Random(seed)
    halves = [k / 2 for k in range(1, 41)]
    cases = []
    for x in SERIES_X:
        for _ in range(per_x):
            kind = rng.randrange(4)
            if kind == 0:
                a, b = -float(rng.randrange(13)), rng.choice(halves)
            elif kind == 1:
                a, b = -float(rng.randrange(13)), -float(rng.randrange(13))
            elif kind == 2:
                a, b = rng.uniform(0.01, 6.0), rng.uniform(0.01, 6.0)
            else:
                a = -rng.randrange(40) - rng.choice((0.5, 0.25, 1e-9, rng.random()))
                b = rng.choice(halves) if rng.random() < 0.7 else -rng.uniform(0.01, 8.0)
            if rng.random() < 0.5:
                a, b = b, a
            c = rng.choice(halves)
            if x > 0.5 and kind != 1:
                c += max(a, b, 0.0) + max(a + b, 0.0)
            c += rng.choice((0.0, 0.0, 2.0**-40, -(2.0**-40), rng.uniform(-0.05, 0.05)))
            cases.append((a, b, c, x))
    return cases


class CountingArgument(float):
    """A series argument that counts the terms: each multiplies by it once."""

    terms = 0

    def __rmul__(self, other):
        self.terms += 1
        return float(other) * float(self)


def recomputed_ratios(series) -> list[str]:
    """The float.hex of the term ratios a series' cached prefix must hold,
    computed from scratch with the expression of the reference loop."""
    a, b, c = series.a, series.b, series.c
    return [((a + m) * (b + m) / ((c + m) * (1.0 + m))).hex()
            for m in map(float, range(len(series.ratios)))]


class TestSeriesBits:
    """The series loop keeps the bits of its reference, builtin_max_series_2f1,
    whatever term ratios its series has cached."""

    @staticmethod
    def outcome(evaluate):
        try:
            return evaluate().hex()
        except (ArithmeticError, CapheatError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def test_grid_matches_reference(self):
        # every case through a fresh series, which computes all its ratios
        cases = series_cases()
        assert len(cases) >= 2000
        for a, b, c, x in cases:
            assert self.outcome(
                lambda: special_eval._series_2f1(special_eval._Series(a, b, c), x)
            ) == self.outcome(lambda: builtin_max_series_2f1(a, b, c, x)), (a, b, c, x)

    def test_shared_series_match_reference(self):
        # the cases of one (a, b, c) share a series and run their arguments
        # in shuffled order, each from the ratios the others left cached.
        # Few cases share parameters, so each series also runs at every
        # grid argument up to 1/2, where all of them converge quickly: the
        # series then meet prefixes both shorter and longer than they need.
        low = [x for x in SERIES_X if x <= 0.5]
        groups = {}
        for a, b, c, x in series_cases():
            groups.setdefault((a, b, c), set(low)).add(x)
        rng = random.Random(20)
        lengths = set()
        for (a, b, c), xs in groups.items():
            series = special_eval._Series(a, b, c)
            for x in rng.sample(sorted(xs), len(xs)):
                assert self.outcome(
                    lambda: special_eval._series_2f1(series, x)
                ) == self.outcome(lambda: builtin_max_series_2f1(a, b, c, x)), (a, b, c, x)
            lengths.add(len(series.ratios))
            assert [r.hex() for r in series.ratios] == recomputed_ratios(series)
        assert max(lengths) == special_eval._PREFIX_CAP
        assert len(lengths) > 30

    def test_slow_series_spends_the_same_budget(self):
        # 2F1(1, 1; 2; x) = -log(1 - x)/x: near x = 1 its terms fall like
        # 1/m, so 100000 terms do not settle it.  The shared series runs
        # twice: once computing every ratio, once from its cached prefix.
        shared = special_eval._Series(1.0, 1.0, 2.0)
        runs = (
            lambda x: special_eval._series_2f1(shared, x),
            lambda x: special_eval._series_2f1(shared, x),
            lambda x: builtin_max_series_2f1(1.0, 1.0, 2.0, x),
        )
        messages = []
        for series in runs:
            x = CountingArgument(1.0 - 2.0**-52)
            with pytest.raises(SlowConvergence) as raised:
                series(x)
            assert x.terms == 100_000
            messages.append(str(raised.value))
            # the prefix stops at the cap instead of keeping 100000 ratios
            assert len(shared.ratios) == special_eval._PREFIX_CAP
        assert [r.hex() for r in shared.ratios] == recomputed_ratios(shared)
        assert messages == [
            "hypergeometric series at x=0.9999999999999998 not converged "
            "after 100000 terms"
        ] * 3


class TestRecipGamma:
    def test_poles_vanish(self):
        assert recip_gamma(0.0) == 0.0
        assert recip_gamma(-3.0) == 0.0

    def test_gamma_overflow_gives_zero(self):
        # Gamma(200) overflows a double, and its reciprocal is below them
        assert recip_gamma(200.0) == 0.0

    def test_regular_values(self):
        assert recip_gamma(0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-15)
        assert recip_gamma(4.0) == pytest.approx(1.0 / 6.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Angular factors
# ---------------------------------------------------------------------------


STRUCTS = omega_structures(9)
FAMILIES = ("x_coeffs", "z0_coeffs", "z_coeffs")


def structure(i):
    return STRUCTS[i - 1]


def family_weight(family, i, angle, d_minus_n):
    """f_total over structure(i) with every coefficient family but
    ``family`` zeroed: the weight of that family (x, z0 or z) alone."""
    s = structure(i)
    families = {f: dict.fromkeys(getattr(s, f), 0) for f in FAMILIES}
    families[family] = getattr(s, family)
    return f_total(StructuredOmega(i, **families), angle, d_minus_n)


class TestC1:
    def test_angle_zero_limit(self):
        angle = AngleParams.from_theta0(1e-8)
        assert c1(angle, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_equator_gauss_value(self):
        angle = AngleParams.from_theta0(math.pi / 2)
        assert c1(angle, 3.0) == pytest.approx(0.75 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("theta0", [0.3, 0.7, 1.2])
    @pytest.mark.parametrize("d_minus_n", [2.0, 3.0, 5.0])
    def test_against_double_series(self, theta0, d_minus_n):
        angle = AngleParams.from_theta0(theta0)
        oracle = c1_double_series(theta0, d_minus_n)
        assert abs(c1(angle, d_minus_n) - oracle) <= 1e-10


    @pytest.mark.parametrize("theta0,first", [
        (1.0, 150), (math.pi / 3, 179), (2.0, 275), (2.2, 121),
    ])
    def test_value_outside_its_range_refused(self, theta0, first):
        # 2F1(1/2, s; s+1; x) lies in [1, (1 - x)^(-1/2)]; the connection
        # formula's cancellation leaves that range from D - n = ``first``
        angle = AngleParams.from_theta0(theta0)
        assert 1.0 <= c1(angle, first - 1.0) <= 1.0 / abs(angle.cos_theta)
        with pytest.raises(NumericalError, match=re.escape(
                f"at theta0={theta0}, D-n={first}: the connection formula")):
            c1(angle, float(first))

    @pytest.mark.parametrize("theta0", [0.5, 1.2, 1.4, math.pi / 2])
    def test_in_range_where_accurate(self, theta0):
        angle = AngleParams.from_theta0(theta0)
        for d_minus_n in range(1, 341):
            c1(angle, float(d_minus_n))


class TestC2:
    """The gamma-free family x of f_total."""

    def test_equator_vanishes(self):
        angle = AngleParams.from_theta0(math.pi / 2)
        assert abs(family_weight("x_coeffs", 1, angle, 2.0)) < 1e-15

    def test_hand_sum_order_one(self):
        theta0 = 0.5
        angle = AngleParams.from_theta0(theta0)
        ct = math.cos(theta0)
        expected = ct / (8.0 * SQRT_PI) - (5.0 / 8.0) * ct**3 / SQRT_PI
        value = family_weight("x_coeffs", 1, angle, 2.0)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_b_range_of_order_two(self):
        assert set(structure(2).x_coeffs) == {0, 1, 2}


class TestC3:
    """The constant family z0 of f_total."""

    def test_order_one_single_term(self):
        angle = AngleParams.from_theta0(0.9)
        d_minus_n = 3.0
        s = 0.5 * d_minus_n
        expected = (
            math.sin(0.9) ** (-d_minus_n)
            * (1.0 / 24.0)
            * math.gamma(s + 1.0)
            / math.gamma(s + 0.5)
        )
        assert family_weight("z0_coeffs", 1, angle, d_minus_n) == pytest.approx(
            expected, rel=1e-13
        )

    def test_order_three_j1_constant_vanishes(self):
        assert structure(3).z0_coeffs[1] == 0

    def test_all_zero_constants_gives_zero(self):
        silenced = StructuredOmega(1, {0: 0, 1: 0}, {1: 0}, {(0, 1): 0, (1, 1): 0})
        angle = AngleParams.from_theta0(0.8)
        assert f_total(silenced, angle, 2.0) == 0.0


class TestC4:
    """The hypergeometric family z of f_total."""

    def test_equator_vanishes(self):
        angle = AngleParams.from_theta0(math.pi / 2)
        assert abs(family_weight("z_coeffs", 1, angle, 2.0)) < 1e-15
        assert abs(family_weight("z_coeffs", 2, angle, 3.0)) < 1e-15

    def test_underflowed_sine_overflows(self):
        angle = AngleParams.from_theta0(1e-300)
        assert angle.sin2 == 0.0
        with pytest.raises(OverflowError):
            family_weight("z0_coeffs", 1, angle, 2.0)
        with pytest.raises(OverflowError):
            family_weight("z_coeffs", 1, angle, 2.0)

    def test_order_one_index_ranges(self):
        s = structure(1)
        assert set(j for (_, j) in s.z_coeffs) == {1}
        assert set(b for (b, _) in s.z_coeffs) == {0, 1}

    @pytest.mark.parametrize(
        "i,d_minus_n,theta0",
        [
            (1, 2.0, 0.8),
            (2, 3.0, 0.8),
            (2, 2.0, 1.2),
            (3, 5.0, 0.6),
            (4, 3.0, 1.0),
        ],
    )
    def test_against_direct_series(self, i, d_minus_n, theta0):
        angle = AngleParams.from_theta0(theta0)
        oracle = c4_direct_series(i, structure(i), angle, d_minus_n)
        value = family_weight("z_coeffs", i, angle, d_minus_n)
        assert abs(value - oracle) <= 1e-10 * max(1.0, abs(oracle))


class TestFTotal:
    def test_is_sum_of_parts(self):
        angle = AngleParams.from_theta0(0.9)
        parts = (
            family_weight("x_coeffs", 2, angle, 3.0)
            + family_weight("z0_coeffs", 2, angle, 3.0)
            + family_weight("z_coeffs", 2, angle, 3.0)
        )
        assert f_total(structure(2), angle, 3.0) == parts

    def test_equator_order_one_value(self):
        # At the equator only the gamma-free-constant family survives:
        # F_1 = z0^{(1,1)} Gamma(s+1)/Gamma(s+1/2).
        angle = AngleParams.from_theta0(math.pi / 2)
        for d_minus_n in (1.0, 2.0, 4.0):
            s = 0.5 * d_minus_n
            expected = (1.0 / 24.0) * math.gamma(s + 1.0) / math.gamma(s + 0.5)
            assert f_total(structure(1), angle, d_minus_n) == pytest.approx(
                expected, rel=1e-12
            )

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_finite_in_cone_limit(self, i):
        # The individually divergent families cancel through the sum rule.
        limit = bessel_limit_weight(i, structure(i), 3.0)
        for theta0 in (1e-3, 2e-3):
            angle = AngleParams.from_theta0(theta0)
            value = f_total(structure(i), angle, 3.0)
            assert math.isfinite(value)
            assert abs(value) <= 2.0 * (abs(limit) + 1.0)

    def test_plans_follow_their_structure(self):
        # two structures of one order with different coefficients, evaluated
        # alternately, each give the weight of a fresh evaluation: no plan is
        # shared between instances by order alone
        def fresh(scale):
            return StructuredOmega(3, **{
                f: {k: scale * c for k, c in getattr(structure(3), f).items()}
                for f in FAMILIES
            })

        angles = [AngleParams.from_theta0(t) for t in (0.3, 2.0)]
        points = [(angle, d) for angle in angles for d in (2.0, 5.0)]
        expected = {(scale, k): f_total(fresh(scale), angle, d)
                    for scale in (1, 3) for k, (angle, d) in enumerate(points)}
        one, three = fresh(1), fresh(3)
        for _ in range(2):
            for k, (angle, d) in enumerate(points):
                assert f_total(one, angle, d) == expected[1, k]
                assert f_total(three, angle, d) == expected[3, k]
        assert expected[1, 0] != expected[3, 0]

    def test_plans_stay_bounded(self):
        # a sweep over d_minus_n longer than the plan cache evicts the oldest
        # plans instead of keeping one per value; the weights do not change
        def fresh():
            return StructuredOmega(2, **{f: getattr(structure(2), f) for f in FAMILIES})

        angle = AngleParams.from_theta0(1.0)
        swept = fresh()
        maxsize = special_eval._weight_plan.cache_info().maxsize
        # (D - n)/2 stays more than 0.05 from an integer: nearer, the z
        # family's 2F1s take neither planned shape and are refused
        sweep = [1.2 + k / 2048 for k in range(maxsize + 64)]
        values = [f_total(swept, angle, d) for d in sweep]
        assert 0 < special_eval._weight_plan.cache_info().currsize <= maxsize
        assert values == [f_total(fresh(), angle, d) for d in sweep]

    @pytest.mark.parametrize("i", range(1, 10))
    @pytest.mark.parametrize("theta0", [0.4, 1.0, 1.6, 2.0])
    def test_finite_on_grid(self, i, theta0):
        angle = AngleParams.from_theta0(theta0)
        for d_minus_n in range(1, 13):
            value = f_total(structure(i), angle, float(d_minus_n))
            assert math.isfinite(value)
            assert math.isfinite(c1(angle, float(d_minus_n)))


class TestAngleParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AngleParams.from_theta0(0.0)
        with pytest.raises(ValueError):
            AngleParams.from_theta0(math.pi)
        # the angle is the only field: sin2 and cos2 are derived from it
        with pytest.raises(TypeError):
            AngleParams(0.5, 0.9, 0.1)

    def test_consistency(self):
        angle = AngleParams.from_theta0(1.1)
        assert angle.sin2 + angle.cos2 == pytest.approx(1.0, abs=1e-15)
        assert angle.cos_theta == pytest.approx(math.cos(1.1), rel=1e-15)
