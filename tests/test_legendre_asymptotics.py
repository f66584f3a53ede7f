from __future__ import annotations

import ast
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from capheat import legendre_asymptotics
from capheat.errors import StructureViolation, ValidationError
from capheat.legendre_asymptotics import (
    _MAX_ORDER,
    NuGPolynomial,
    bernoulli,
    chi,
    extract_structure,
    omega,
    omega_structures,
)

from omega_reference import REFERENCE, bessel_d_polynomial, polyadd, trim
from sphere_reference import phi, phi_step, reconstruct

F = Fraction


def const(c) -> NuGPolynomial:
    """The constant polynomial c."""
    return NuGPolynomial.from_monomials({(0, 0): c})


N_MAX = 10

# sha256 of canonical_dump(16), recorded from the nested NuPolynomial /
# GammaStructuredFunction algebra this ring replaced
ORDER_16_DIGEST = "b826b42406b2656d53a61486b036486516da9e295fa0cddd7391ae434845d513"


def table(p: NuGPolynomial) -> dict[int, dict[int, F]]:
    """The REFERENCE layout of p: j -> {e: coefficient of g^j v^e}."""
    out: dict[int, dict[int, F]] = {}
    for (j, e), c in p.monomials():
        out.setdefault(j, {})[e] = c
    return out


def part(p: NuGPolynomial, j: int) -> tuple[F, ...]:
    """The g^j part of p as a coefficient tuple in v."""
    mono = table(p).get(j, {})
    return trim(mono.get(e, 0) for e in range(max(mono, default=-1) + 1))


def canonical_dump(order: int) -> str:
    """One line per coefficient of omega(order) and omega_structures(order)."""
    lines = [
        f"{i} {j} {e} {c}"
        for i, om in enumerate(omega(order), start=1)
        for (j, e), c in om.monomials()
    ]
    for s in omega_structures(order):
        i = s.order
        lines += [f"{i} x {b} {c}" for b, c in sorted(s.x_coeffs.items())]
        lines += [f"{i} z0 {j} {c}" for j, c in sorted(s.z0_coeffs.items())]
        lines += [f"{i} z {b} {j} {c}" for (b, j), c in sorted(s.z_coeffs.items())]
    return "\n".join(lines)


class TestNuGPolynomial:
    def test_zeros_dropped_and_reduced(self):
        p = NuGPolynomial.from_monomials({(0, 0): F(1, 2), (1, 3): F(-3, 4)})
        assert (p.num, p.den) == ({(0, 0): 2, (1, 3): -3}, 4)
        q = p * const(6) * const(F(1, 6))
        assert (q.num, q.den) == (p.num, p.den)
        zero = p + p * const(-1)
        assert (zero.num, zero.den) == ({}, 1)
        assert list((p * zero).monomials()) == []

    def test_multiply(self):
        # (1 + g v)(1 - g v) = 1 - g^2 v^2
        a = NuGPolynomial.from_monomials({(0, 0): 1, (1, 1): 1})
        b = NuGPolynomial.from_monomials({(0, 0): 1, (1, 1): -1})
        assert list((a * b).monomials()) == [((0, 0), F(1)), ((2, 2), F(-1))]

    def test_derivative(self):
        # d/dv (3 + g v^2 - 2 g^2 v^5 / 7) = 2 g v - (10/7) g^2 v^4
        p = NuGPolynomial.from_monomials({(0, 0): 3, (1, 2): 1, (2, 5): F(-2, 7)})
        assert table(p.derivative()) == {1: {1: F(2)}, 2: {4: F(-10, 7)}}
        assert list(const(5).derivative().monomials()) == []

    def test_antiderivative_vanishes_at_one(self):
        # int_1^v (1 + 3 g t^2 - g^2 t^4 / 2) dt
        #   = (v - 1) + g (v^3 - 1) - g^2 (v^5 - 1) / 10
        p = NuGPolynomial.from_monomials({(0, 0): 1, (1, 2): 3, (2, 4): F(-1, 2)})
        antiderivative = p.integral_from_one()
        assert table(antiderivative) == {
            0: {0: F(-1), 1: F(1)},
            1: {0: F(-1), 3: F(1)},
            2: {0: F(1, 10), 5: F(-1, 10)},
        }
        d = antiderivative.derivative()
        assert (d.num, d.den) == (p.num, p.den)

    def test_integral_from_one(self):
        # For f = v^2: derivative part v^3 (1 - v^2) + g v (1 - v^2)^2, and
        # -(1/8) int_1^v (5 t^4 - t^2) dt = -(v^5 - v^3/3 - 2/3)/8,
        # -(g/8) int_1^v (2 t^2 - 5 t^4) dt = -g (2 v^3/3 - v^5 + 1/3)/8.
        step = phi_step(NuGPolynomial.from_monomials({(0, 2): 1}))
        assert table(step) == {
            0: {0: F(1, 12), 3: 1 + F(1, 24), 5: -1 - F(1, 8)},
            1: {0: F(-1, 24), 1: F(1), 3: -2 - F(1, 12), 5: 1 + F(1, 8)},
        }


class TestChi:
    @pytest.mark.parametrize("i,expected", [(1, 0), (2, 0), (3, -1), (4, -1), (5, -2), (6, -2)])
    def test_values(self, i, expected):
        assert chi(i) == expected


class TestPhi:
    def test_seed(self):
        assert table(phi(0)) == {0: {0: F(1)}}

    def test_order_one(self):
        assert table(phi(1)) == {
            0: {0: F(1, 12), 1: F(1, 8), 3: F(-5, 24)},
            1: {0: F(1, 24), 1: F(-1, 4), 3: F(5, 24)},
        }

    def test_bessel_limit_of_order_one(self):
        # Dropping the j >= 1 parts must leave the Bessel cumulant D_1 plus
        # the soon-to-cancel constant 1/12.
        assert part(phi(1), 0) == polyadd(bessel_d_polynomial(1), (F(1, 12),))


class TestOmegaTables:
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_matches_reference(self, i):
        assert table(omega(5)[i - 1]) == REFERENCE[i]

    def test_omega5_top_coefficient(self):
        assert part(omega(5)[4], 0)[15] == F(-82825, 3072)

    def test_orders_up_to_16_digest(self):
        dump = canonical_dump(_MAX_ORDER)
        assert hashlib.sha256(dump.encode()).hexdigest() == ORDER_16_DIGEST


class TestStructure:
    def test_order_two_constants(self):
        s = extract_structure(omega(2)[1], 2)
        assert s.z0_coeffs[1] == F(1, 16)
        assert s.z0_coeffs[2] == F(-1, 8)

    def test_order_three_j1(self):
        s = extract_structure(omega(3)[2], 3)
        assert s.z0_coeffs[1] == 0
        exponents = set(table(omega(3)[2])[1])
        assert exponents == {1, 3, 5, 7, 9}
        assert set(b for (b, j) in s.z_coeffs if j == 1) == set(range(-1, 4))

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_sum_rule(self, i):
        s = omega_structures(N_MAX)[i - 1]
        for j in range(1, i + 1):
            total = s.z0_coeffs[j] + sum(
                s.z_coeffs[(b, j)] for b in range(chi(i), i + 1)
            )
            assert total == 0

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_value_at_one_matches_bessel(self, i):
        gamma_free_sum = sum(part(omega(N_MAX)[i - 1], 0))
        assert gamma_free_sum == sum(bessel_d_polynomial(i))

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_gamma_free_part_is_bessel_cumulant(self, i):
        assert part(omega(N_MAX)[i - 1], 0) == bessel_d_polynomial(i)

    @pytest.mark.parametrize("i", range(1, N_MAX + 1))
    def test_round_trip(self, i):
        om = omega(N_MAX)[i - 1]
        assert table(reconstruct(extract_structure(om, i))) == table(om)

    def test_lower_orders_share_the_cache(self):
        high = omega_structures(N_MAX)
        low = omega_structures(6)
        assert len(low) == 6
        for i in range(6):
            assert low[i] is high[i]

    def test_order_limit_refused_before_any_algebra(self, monkeypatch):
        def fail(n):
            raise AssertionError(f"cumulant order {n} computed")

        monkeypatch.setattr(legendre_asymptotics, "_omega", fail)
        with pytest.raises(ValidationError, match="above the limit"):
            omega(_MAX_ORDER + 1)
        with pytest.raises(ValidationError, match="above the limit"):
            omega_structures(_MAX_ORDER + 1)

    def test_violation_detected(self):
        # stray v^3 in an even family
        bad = NuGPolynomial.from_monomials({(0, 2): F(1, 16), (0, 3): F(1)})
        with pytest.raises(StructureViolation):
            extract_structure(bad, 2)

    @pytest.mark.parametrize("monomial,message", [
        ((3, 2), "inverse-gamma power outside 0..2"),
        ((1, 3), "monomial v\\^3 at inverse-gamma power 1 outside pattern"),
    ])
    def test_violation_in_the_gamma_families(self, monomial, message):
        # order 2 has inverse-gamma powers up to 2, and at power 1 only
        # the even exponents v^(2 + 2b)
        bad = NuGPolynomial.from_monomials({(1, 2): F(1, 16), monomial: F(1)})
        with pytest.raises(StructureViolation, match=message):
            extract_structure(bad, 2)


class TestPsi:
    def test_exponential_relation(self):
        # The amplitude functions Psi_m = [x^m] exp(sum_n Omega_n x^n) must
        # equal the raw phi series times the Bernoulli prefactor
        # exp(-sum_l B_{2l}/(2l(2l-1)) x^{2l-1}), in every j-part.  The phi
        # series comes from the defining recurrence in sphere_reference, the
        # Omega_n from the package's Riccati recurrence: two derivations.
        n = _MAX_ORDER
        zero = NuGPolynomial({})
        oms = [zero] + omega(n)
        psis = [NuGPolynomial({(0, 0): 1})]
        for m in range(1, n + 1):
            acc = zero
            for k in range(1, m + 1):
                acc = acc + oms[k] * psis[m - k] * const(F(k, m))
            psis.append(acc)
        phis = [phi(k) for k in range(n + 1)]
        # exp(-sum B_{2l}/(2l(2l-1)) x^{2l-1}) as a plain rational series
        expo = [F(0)] * (n + 1)
        for l in range(1, n // 2 + 2):
            if 2 * l - 1 <= n:
                expo[2 * l - 1] = -bernoulli(2 * l) / (2 * l * (2 * l - 1))
        pref = [F(0)] * (n + 1)
        pref[0] = F(1)
        for m in range(1, n + 1):
            pref[m] = (
                sum((F(k) * expo[k] * pref[m - k] for k in range(1, m + 1)), F(0)) / m
            )
        for m in range(n + 1):
            expected = zero
            for k in range(m + 1):
                expected = expected + phis[m - k] * const(pref[k])
            assert table(psis[m]) == table(expected)


# the modules that evaluate in floating point, and the CLI above them
FLOAT_LAYERS = {"special_eval", "heat_coeffs", "spectral_oracle", "cli"}

# The capheat modules each src module may import at module level.  The two
# pipelines meet only in errors: the oracle imports nothing of the assembly
# it verifies, and the CLI loads each command's modules when it runs.
ALLOWED_IMPORTS = {
    "__init__": set(),
    "errors": set(),
    "legendre_asymptotics": {"errors"},
    "special_eval": {"errors", "legendre_asymptotics"},
    "heat_coeffs": {"errors", "legendre_asymptotics", "special_eval"},
    "spectral_oracle": {"errors"},
    "cli": {"errors"},
}


def package_imports(module: str) -> set[str]:
    """The capheat modules that ``module``'s source names in a module-level
    import; imports inside a function or an ``if`` block (such as ``if
    TYPE_CHECKING:``) are not counted."""
    path = Path(legendre_asymptotics.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, "import from outside the package"
            parts = ["capheat" if node.level else None, node.module]
            base = ".".join(filter(None, parts))
            imported += [f"{base}.{alias.name}" for alias in node.names]
    assert imported
    return {
        name.split(".")[1] for name in imported if name.split(".")[0] == "capheat"
    }


@pytest.mark.parametrize("module", ["legendre_asymptotics"])
def test_exact_algebra_imports_no_float_layer(module):
    # the exact algebra stays exact: what converts its Fractions to floats
    # lives in the layers above it, which import it, never the reverse
    assert not package_imports(module) & FLOAT_LAYERS


def test_every_module_is_pinned():
    src = Path(legendre_asymptotics.__file__).parent
    assert {p.stem for p in src.glob("*.py")} == set(ALLOWED_IMPORTS)


@pytest.mark.parametrize("module", sorted(ALLOWED_IMPORTS))
def test_module_imports_are_pinned(module):
    # a module that re-couples the pipelines, say the oracle importing the
    # assembly, fails here
    assert package_imports(module) <= ALLOWED_IMPORTS[module]
