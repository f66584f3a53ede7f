"""Package names the benchmark relies on.

``bench/workloads.py`` wraps four cross-layer calls by module attribute for
the spans of its ``--trace 1`` run, probes ``gauss_2f1``, ``ferrers_p`` and
``dirichlet_roots``, and reads a few fields directly.  A refactor that folds
or renames one of them would leave a span silently empty, so the calls are
checked here by counting wrappers, and the probes by calling them.
"""

from __future__ import annotations

import math

import pytest

import capheat.heat_coeffs
import capheat.spectral_oracle
from capheat import (
    AngleParams,
    SphereBase,
    SuspensionConfig,
    compute_table,
    dirichlet_roots,
    ferrers_p,
    gauss_2f1,
    spectrum,
)
from capheat.heat_coeffs import base_coefficient
from capheat.legendre_asymptotics import omega_structures
from test_heat_coeffs import SWEEP_THETAS, user_base

ASSEMBLY = (capheat.heat_coeffs, ("c1", "f_total", "omega_structures"))
ORACLE = (capheat.spectral_oracle, ("dirichlet_roots",))


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_compute_table_calls_wrapped_attributes(monkeypatch):
    calls = count_calls(monkeypatch, *ASSEMBLY)
    cfg = SuspensionConfig(
        D=5, angle=AngleParams.from_theta0(1.0), base=SphereBase(4), n_max=4
    )
    compute_table(cfg)
    assert all(calls.values()), calls


@pytest.mark.parametrize("base,f_total_calls", [
    pytest.param(SphereBase(11), 30, id="sphere"),
    pytest.param(user_base(11), 55, id="user"),
])
def test_compute_table_boundary_counts(monkeypatch, base, f_total_calls):
    # The traced benchmark divides span time by these call counts, so they
    # must not change with internal sharing: c1 once per index n, f_total
    # once per order i of index n whose base coefficient is nonzero.  The
    # literals are the counts recorded before the orders of one index began
    # sharing their 2F1 values.
    calls = count_calls(monkeypatch, capheat.heat_coeffs, ("c1", "f_total"))
    cfg = SuspensionConfig(
        D=12, angle=AngleParams.from_theta0(1.0), base=base, n_max=11
    )
    compute_table(cfg)
    expected = sum(
        base_coefficient(base, n - i - 1) != 0.0
        for n in range(2, cfg.n_max + 1)
        for i in range(1, n)
    )
    assert calls == {"c1": cfg.n_max + 1, "f_total": expected}
    assert expected == f_total_calls


def test_spectrum_calls_wrapped_attribute(monkeypatch):
    calls = count_calls(monkeypatch, *ORACLE)
    channels = spectrum(2, 1.0, 10.0)
    # only channel 0 is scanned; the others are bracketed by interlacing
    assert len(channels) > 1
    assert calls["dirichlet_roots"] == 1


def test_gauss_2f1_probe():
    # bench/workloads.probe_fixed times gauss_2f1 at c1's parameters
    # (1/2, s; s + 1) on every workload, at the assembly sweep's angles and
    # 2s = 1..12: a narrowing of gauss_2f1 that refuses them fails here
    for theta0 in SWEEP_THETAS:
        angle = AngleParams.from_theta0(theta0)
        for two_s in range(1, 13):
            s = 0.5 * two_s
            assert math.isfinite(gauss_2f1(0.5, s, s + 1.0, angle.sin2))


def test_oracle_probe():
    # bench/workloads.probe_fixed times ferrers_p(0.5, 2.5k, cos(pi/3)) for
    # k = 1..16 and dirichlet_roots(0.5, pi/3, 40) on every workload: a
    # change to the Ferrers factor that refuses them or finds no root fails
    # here instead of leaving those spans empty
    x = math.cos(math.pi / 3)
    for k in range(1, 17):
        assert math.isfinite(ferrers_p(0.5, 2.5 * k, x))
    roots = dirichlet_roots(0.5, math.pi / 3, 40.0)
    assert roots and all(map(math.isfinite, roots))


@pytest.mark.parametrize("theta0", [0.5, 2.0])
def test_read_fields(theta0):
    s = math.sin(theta0)
    assert AngleParams.from_theta0(theta0).sin2 == s * s
    # the cold-algebra probe counts the nonzero coefficients of all three
    for structure in omega_structures(3):
        families = (structure.x_coeffs, structure.z0_coeffs, structure.z_coeffs)
        assert all(any(c != 0 for c in f.values()) for f in families)
