"""The odd-index complement identity over the sphere base and over a closed
user base.

The caps of opening theta0 and pi - theta0 glue into the whole suspension.
Heat invariants are local, and reversing the normal flips the sign of the
boundary integrand of index n/2 by (-1)^(n-1).  Over a closed base, then,
A_(n/2)(theta0) = A_(n/2)(pi - theta0) for every odd n.  It holds for every
D, index and closed base, where the closed-form grid stops at index 4
beyond D = 18 and has no user base.  Even n waits for the volume term over
obtuse caps to be mended.

Every cell compares ``script_A`` at the two openings, relative to the larger
magnitude.  ``known_defects`` marks the cells above the bound, with their
deviation measured at collection, and names the tables that are refused.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import pytest

from capheat.heat_coeffs import SphereBase, SuspensionConfig, UserBase, compute_table
from capheat.special_eval import AngleParams

from known_defects import COMPLEMENT_REFUSED, complement_defect, xfail

BOUND = 1e-9
DIMS = (*range(3, 19), 24, 40, 80, 160, 254)
THETAS = (0.3, 0.7, 1.2, 1.5)

# A closed base that is not the sphere: seeded even-index coefficients in
# [-2, 2], and zero odd-index ones.
_rng = random.Random(3)
USER_COEFFICIENTS = {n: _rng.uniform(-2.0, 2.0) if n % 2 == 0 else 0.0
                     for n in range(18)}
USER_DIMS = tuple(range(3, 19))


def config(big_d: int, theta0: float, user: bool = False) -> SuspensionConfig:
    return SuspensionConfig(
        D=big_d,
        angle=AngleParams.from_theta0(theta0),
        base=UserBase(big_d - 1, USER_COEFFICIENTS) if user else SphereBase(big_d - 1),
        n_max=min(big_d - 1, 17),
    )


@lru_cache(maxsize=None)
def script(big_d: int, theta0: float, user: bool = False) -> tuple[float, ...]:
    table = compute_table(config(big_d, theta0, user))
    return tuple(e.script_A for e in table.entries)


def deviation(big_d: int, theta0: float, n: int, user: bool = False) -> float:
    a = script(big_d, theta0, user)[n]
    b = script(big_d, math.pi - theta0, user)[n]
    return abs(a - b) / max(abs(a), abs(b))


def cells(dims, user=False):
    for big_d in dims:
        for theta0 in THETAS:
            if (big_d, theta0) in COMPLEMENT_REFUSED:
                continue
            for n in range(1, min(big_d - 1, 17) + 1, 2):
                cause = complement_defect(big_d, theta0, n, user)
                yield pytest.param(
                    big_d, theta0, n, id=f"D{big_d}-theta{theta0:g}-n{n}",
                    marks=xfail(cause, lambda: deviation(big_d, theta0, n, user)),
                )


def assert_complement(big_d, theta0, n, user=False):
    err = deviation(big_d, theta0, n, user)
    if not err <= BOUND:
        # a cell's traceback says nothing its deviation does not
        pytest.fail(f"relative deviation {err:.2e}", pytrace=False)


@pytest.mark.parametrize("big_d,theta0,n", cells(DIMS))
def test_odd_index_complement(big_d, theta0, n):
    assert_complement(big_d, theta0, n)


@pytest.mark.parametrize("big_d,theta0,n", cells(USER_DIMS, user=True))
def test_odd_index_complement_user_base(big_d, theta0, n):
    assert_complement(big_d, theta0, n, user=True)


@pytest.mark.parametrize("big_d,theta0", COMPLEMENT_REFUSED)
def test_refused_tables(big_d, theta0):
    with pytest.raises(OverflowError, match="underflows"):
        compute_table(config(big_d, theta0))
