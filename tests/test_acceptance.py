"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
oracle-agreement criterion, the heaviest, takes about 0.15 s.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import pytest

from capheat.cli import _time_grid
from capheat.heat_coeffs import (
    SphereBase,
    SuspensionConfig,
    _exp_shift,
    assemble_script_A,
    compute_table,
    sphere_heat_coefficient,
)
from capheat.legendre_asymptotics import chi, omega, omega_structures
from capheat.special_eval import AngleParams, c1, f_total
from capheat.spectral_oracle import (
    degeneracy,
    dirichlet_roots,
    fit_asymptotics,
    heat_trace,
)

from omega_reference import REFERENCE, bessel_d_polynomial
from sphere_reference import (
    explicit_table_check,
    sphere_surface_area,
    suspension_coefficient_direct,
)
from test_special_eval import bessel_limit_weight, c1_double_series

SQRT_PI = math.sqrt(math.pi)


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def sphere_config(d: int, theta0: float, n_max: int) -> SuspensionConfig:
    return SuspensionConfig(
        D=d + 1,
        angle=AngleParams.from_theta0(theta0),
        base=SphereBase(d),
        n_max=n_max,
    )


def test_criterion_1_reference_table_regeneration(capsys):
    """CLI cumulant tables match the stored reference by exact rational
    equality, in under five seconds."""
    from capheat.cli import run

    start = time.time()
    code = run(["omega", "--order", "5", "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    ok = code == 0
    payload = json.loads(out)
    for fn in payload["functions"]:
        i = fn["i"]
        parts = {p["j"]: p["coefficients"] for p in fn["parts"]}
        expected = REFERENCE[i]
        ok = ok and set(parts) == set(expected)
        for j, mono in expected.items():
            got = {int(e): Fraction(c) for e, c in parts[j].items()}
            ok = ok and got == mono
    ok = ok and elapsed < 5.0
    with capsys.disabled():
        report(1, f"reference tables regenerated exactly in {elapsed:.2f}s", ok)


def test_criterion_2_sum_rules():
    """Coefficient sum rules and the Bessel-value identity hold exactly for
    every order up to ten, in under thirty seconds."""
    start = time.time()
    ok = True
    structures = omega_structures(10)
    functions = omega(10)
    for i in range(1, 11):
        s = structures[i - 1]
        for j in range(1, i + 1):
            total = s.z0_coeffs[j] + sum(
                s.z_coeffs[(b, j)] for b in range(chi(i), i + 1)
            )
            ok = ok and total == 0
        at_one = sum(
            (c for (j, _), c in functions[i - 1].monomials() if j == 0), Fraction(0)
        )
        ok = ok and at_one == sum(bessel_d_polynomial(i))
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    report(2, f"sum rules exact through order 10 in {elapsed:.2f}s", ok)


def test_criterion_3_closed_form_vs_double_series():
    """Closed hypergeometric form of the leading angular factor agrees with
    its defining double series to 1e-10 on the grid."""
    worst = 0.0
    for theta0 in (0.3, 0.7, 1.2):
        angle = AngleParams.from_theta0(theta0)
        for d_minus_n in (2.0, 3.0, 5.0):
            closed = c1(angle, d_minus_n)
            series = c1_double_series(theta0, d_minus_n)
            worst = max(worst, abs(closed - series))
    report(3, f"closed form vs double series, worst |diff| = {worst:.2e}", worst <= 1e-10)


def test_criterion_4_hemisphere_exact_checks():
    """Hemisphere of the three-sphere: volume coefficient, scaled half-index
    coefficient, and closed-form eigenvalue roots."""
    ok = True
    cfg = sphere_config(2, math.pi / 2, 1)
    table = compute_table(cfg)
    vol_err = abs(table.entries[0].cal_A - SQRT_PI / 8.0)
    ok = ok and vol_err <= 1e-12

    scaled = (
        table.entries[1].script_A
        * (4.0 * math.pi)
        / (math.sin(math.pi / 2) ** 2 * sphere_surface_area(2))
    )
    half_err = abs(scaled - (-0.25))
    ok = ok and half_err <= 1e-12

    worst_root = 0.0
    for mu in (0.5, 1.5, 2.5):
        roots = dirichlet_roots(mu, math.pi / 2, mu + 1.5 + 2 * 20 + 0.5)
        expected = [mu + 1.5 + 2 * j for j in range(21)]
        ok = ok and len(roots) >= 21
        for r, e in zip(roots[:21], expected):
            worst_root = max(worst_root, abs(r - e))
    ok = ok and worst_root <= 1e-8
    report(
        4,
        f"hemisphere: |vol err| = {vol_err:.1e}, |scaled half err| = "
        f"{half_err:.1e}, worst root err = {worst_root:.1e}",
        ok,
    )


def test_criterion_5_two_path_equality():
    """Direct sphere formula and the generic assembly agree to 1e-10; the
    curated low-order closed forms match the pipeline to 1e-10."""
    worst_direct = 0.0
    theta0 = 0.8
    angle = AngleParams.from_theta0(theta0)
    for d in range(2, 7):
        n_top = min(6, d)
        cfg = sphere_config(d, theta0, n_top)
        for n in range(n_top + 1):
            direct = suspension_coefficient_direct(n, d, angle)
            generic = assemble_script_A(cfg, n)
            worst_direct = max(
                worst_direct, abs(direct - generic) / max(1.0, abs(generic))
            )

    worst_table = 0.0
    for d in range(2, 7):
        for theta0 in (0.6, 1.2):
            angle = AngleParams.from_theta0(theta0)
            n_top = min(6, d)
            cfg = sphere_config(d, theta0, n_top)
            script = {n: assemble_script_A(cfg, n) for n in range(n_top + 1)}
            cal = _exp_shift(script, (0.5 * d) ** 2)
            for n in range(n_top + 1):
                tabulated = explicit_table_check(n, d, angle)
                worst_table = max(
                    worst_table, abs(tabulated - cal[n]) / max(1.0, abs(cal[n]))
                )
    ok = worst_direct <= 1e-10 and worst_table <= 1e-10
    report(
        5,
        f"two-path worst = {worst_direct:.2e}, explicit-table worst = "
        f"{worst_table:.2e}",
        ok,
    )


def test_criterion_6_oracle_agreement():
    """Eigenvalue-oracle heat trace fit reproduces the first three predicted
    coefficients within 2 percent, in under five minutes."""
    start = time.time()
    d, theta0 = 2, math.pi / 3
    cfg = sphere_config(d, theta0, 2)
    ts = _time_grid(1.5e-3, 1.6e-2, 24)  # capheat verify's own times
    samples = heat_trace(cfg, ts, tolerance=1e-6, omega_max=120.0)
    fit = fit_asymptotics(samples, cfg.D, 4)
    predicted = [e.cal_A for e in compute_table(cfg).entries]
    rel_errors = [
        abs(fit.coefficients[k] - predicted[k]) / abs(predicted[k]) for k in range(3)
    ]
    elapsed = time.time() - start
    ok = max(rel_errors) <= 0.02 and elapsed < 300.0
    report(
        6,
        "oracle fit rel errors = "
        + ", ".join(f"{e:.2e}" for e in rel_errors)
        + f" in {elapsed:.0f}s",
        ok,
    )


def test_criterion_7_cone_limit_scaling():
    """Small-angle deviations of the angular factors scale as theta0^2:
    halving the angle divides them by 4 +/- 0.5."""
    ok = True
    worst = 0.0
    angles = {t: AngleParams.from_theta0(t) for t in (1e-2, 5e-3)}
    for d_minus_n in (2.0, 3.0, 5.0):
        dev = [c1(angles[t], d_minus_n) - 1.0 for t in (1e-2, 5e-3)]
        ratio = dev[0] / dev[1]
        worst = max(worst, abs(ratio - 4.0))
        ok = ok and 3.5 <= ratio <= 4.5
    structures = omega_structures(3)
    # the i-weights are compared at moderate inverse powers; beyond that the
    # double-precision cancellation of the sine-power families exceeds the
    # theta0^2 signal itself
    for i in (1, 2, 3):
        for d_minus_n in (2.0, 3.0):
            limit = bessel_limit_weight(i, structures[i - 1], d_minus_n)
            dev = [
                f_total(structures[i - 1], angles[t], d_minus_n) - limit
                for t in (1e-2, 5e-3)
            ]
            ratio = dev[0] / dev[1]
            worst = max(worst, abs(ratio - 4.0))
            ok = ok and 3.5 <= ratio <= 4.5
    report(7, f"cone-limit halving ratios within 4 +/- {worst:.3f}", ok)


def test_criterion_8_base_sanity():
    """Sphere base closed forms: low-order heat coefficients and the
    three-sphere degeneracy law."""
    ok = True
    ok = ok and abs(sphere_heat_coefficient(0, 2) - 1.0) <= 1e-12
    ok = ok and sphere_heat_coefficient(1, 2) == 0.0
    ok = ok and abs(sphere_heat_coefficient(2, 2) - 1.0 / 12.0) <= 1e-12
    for k in range(51):
        ok = ok and degeneracy(k, 3) == (k + 1) ** 2
    report(8, "sphere base closed forms exact", ok)
