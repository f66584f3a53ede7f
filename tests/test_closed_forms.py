"""The assembly against closed forms that share none of its formulas.

Every cell compares one ``cal_A`` entry of ``compute_table`` (sphere base)
with ``closed_forms``: the Branson-Gilkey invariants for indices 0..4 on the
grid D 3..18, 24, 40, 80 x ten opening angles x mass {0, 0.5}, and the
exact hemisphere for every index n < D up to D = 18.  The error is relative
to the sum of the absolute values of the reference's terms and is bounded
by 1e-10.

Two known defects fail part of the grid, and ``known_defects`` marks their
cells and names the one table, D = 80 at theta0 = 1e-3, that is refused.
"""

from __future__ import annotations

import ast
import math
from functools import lru_cache
from pathlib import Path

import pytest

from capheat.heat_coeffs import SphereBase, SuspensionConfig, compute_table
from capheat.special_eval import AngleParams

from closed_forms import branson_gilkey, hemisphere
from known_defects import ASSEMBLY_REFUSED, assembly_defect, xfail

HERE = Path(__file__).resolve().parent

BOUND = 1e-10
DIMS = (*range(3, 19), 24, 40, 80)
# the hemisphere's n runs to D - 1, and a table's n_max stops at 17
HEMISPHERE_DIMS = range(3, 19)
THETAS = (1e-3, 1e-2, 0.1, 0.5, 1.0, math.pi / 2, 1.8, 2.2, 3.0, 3.1)
MASSES = (0.0, 0.5)


def cell_id(big_d: int, theta0: float, mass: float, n: int) -> str:
    return f"D{big_d}-theta{theta0:g}-m{mass:g}-n{n}"


def bg_cells():
    for big_d in DIMS:
        for theta0 in THETAS:
            if (big_d, theta0) in ASSEMBLY_REFUSED:
                continue
            for mass in MASSES:
                for n in range(min(5, big_d)):
                    yield big_d, theta0, mass, n


def hemisphere_cells():
    for big_d in HEMISPHERE_DIMS:
        for mass in MASSES:
            for n in range(big_d):
                yield big_d, mass, n


@lru_cache(maxsize=None)
def assembled(big_d: int, theta0: float, mass: float, n_max: int) -> tuple[float, ...]:
    cfg = SuspensionConfig(
        D=big_d,
        angle=AngleParams.from_theta0(theta0),
        base=SphereBase(big_d - 1),
        n_max=n_max,
        mass=mass,
    )
    return tuple(e.cal_A for e in compute_table(cfg).entries)


def bg_error(big_d: int, theta0: float, mass: float, n: int) -> float:
    value, scale = branson_gilkey(big_d, theta0, mass)[n]
    got = assembled(big_d, theta0, mass, min(4, big_d - 1))[n]
    return abs(got - value) / scale


def hemisphere_error(big_d: int, mass: float, n: int) -> float:
    value, scale = hemisphere(big_d, mass)[n]
    got = assembled(big_d, math.pi / 2, mass, big_d - 1)[n]
    return abs(got - value) / scale


def check(err: float) -> None:
    # a cell's traceback says nothing its error does not, and formatting one
    # for each known-defect cell would double the module's run time
    if not err <= BOUND:
        pytest.fail(f"relative error {err:.2e} above {BOUND:.0e}", pytrace=False)


def bg_params():
    for cell in bg_cells():
        big_d, theta0, _, n = cell
        marks = xfail(assembly_defect(big_d, theta0, n), lambda: bg_error(*cell))
        yield pytest.param(*cell, id=cell_id(*cell), marks=marks)


@pytest.mark.parametrize("big_d,theta0,mass,n", bg_params())
def test_branson_gilkey(big_d, theta0, mass, n):
    check(bg_error(big_d, theta0, mass, n))


@pytest.mark.parametrize(
    "big_d,mass,n",
    [
        pytest.param(*cell, id=cell_id(cell[0], math.pi / 2, cell[1], cell[2]))
        for cell in hemisphere_cells()
    ],
)
def test_hemisphere(big_d, mass, n):
    check(hemisphere_error(big_d, mass, n))


@pytest.mark.parametrize("big_d", [3, 4, 7, 12, 18])
def test_references_agree_on_the_hemisphere(big_d):
    # the two references share no formula either: curvature invariants
    # against the exact spectrum
    for mass in MASSES:
        exact = hemisphere(big_d, mass)
        for n, (value, scale) in enumerate(branson_gilkey(big_d, math.pi / 2, mass)):
            assert abs(value - exact[n][0]) <= 1e-14 * scale


def test_references_import_nothing_from_capheat():
    # a formula shared between the package and its check hides the errors
    # they have in common
    tree = ast.parse((HERE / "closed_forms.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.append(node.module)
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "capheat"]
