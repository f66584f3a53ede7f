"""Every known wrong output of the suite, stated once.

Two causes make coefficients wrong today, each retired by one ROADMAP item:
the obtuse volume term (item 1) and the double-precision angular weights
(item 15).  Their cells are written as thresholds on the suites' grids, and
``xfail`` marks each such cell strict, with its error measured at
collection, so a mend makes the cells XPASS until its rows here go.
"""

from __future__ import annotations

import math

import pytest

OBTUSE = (
    "obtuse cap (ROADMAP item 1): c1 integrates sin^(D-n-1) over "
    "[0, pi - theta0], so every even index is wrong for theta0 > pi/2"
)
WEIGHTS = (
    "angular weights (ROADMAP item 15): the double-precision 2F1 sums lose "
    "accuracy toward the cones and as D grows"
)

# test_closed_forms: (theta0, n) -> the first failing D, the same at both
# masses; every D of the grid from there on fails
ASSEMBLY_FIRST_D = {
    (1e-3, 2): 4, (1e-3, 3): 5, (1e-3, 4): 6,
    (1e-2, 2): 6, (1e-2, 3): 7, (1e-2, 4): 7,
    (0.1, 2): 8, (0.1, 3): 10, (0.1, 4): 9,
    (0.5, 2): 18, (0.5, 3): 24, (0.5, 4): 17,
    (1.0, 0): 80, (1.0, 2): 80, (1.0, 3): 80, (1.0, 4): 80,
    (2.2, 3): 80, (3.0, 3): 9, (3.1, 3): 7,
}

# test_complement: (D, theta0) -> the first failing odd n, per base; every
# odd n of the grid from there on fails
COMPLEMENT_FIRST_N = {
    "sphere": {
        (10, 0.7): 9, (12, 0.7): 9, (13, 0.7): 11, (14, 0.7): 9,
        (15, 0.7): 11, (16, 0.7): 9, (17, 0.7): 11, (18, 0.7): 11,
        (24, 0.7): 11, (40, 0.7): 3, (80, 0.7): 3, (160, 0.7): 3,
        (18, 1.2): 17, (160, 1.2): 3, (254, 1.2): 3,
    },
    "user": {
        (8, 0.7): 7, (10, 0.7): 7, (11, 0.7): 9, (12, 0.7): 9, (13, 0.7): 9,
        (14, 0.7): 9, (15, 0.7): 9, (16, 0.7): 9, (17, 0.7): 9, (18, 0.7): 9,
        (16, 1.2): 15, (17, 1.2): 15, (18, 1.2): 15,
    },
}

# (D, theta0) of the sphere-base tables that each suite pins as refused:
# compute_table raises OverflowError, as a term of index 0 underflows
ASSEMBLY_REFUSED = ((80, 1e-3),)
COMPLEMENT_REFUSED = ((254, 0.3), (254, 0.7))


def assembly_defect(big_d: int, theta0: float, n: int) -> str | None:
    """The cause that makes a sphere-base ``cal_A`` at index n/2 wrong."""
    if theta0 > math.pi / 2 and n % 2 == 0:
        return OBTUSE
    if big_d >= ASSEMBLY_FIRST_D.get((theta0, n), math.inf):
        return WEIGHTS
    return None


def complement_defect(big_d: int, theta0: float, n: int, user: bool) -> str | None:
    """The cause that breaks the odd-n complement identity at a cell."""
    first = COMPLEMENT_FIRST_N["user" if user else "sphere"]
    if n >= first.get((big_d, theta0), math.inf):
        return WEIGHTS
    return None


def xfail(cause: str | None, measure) -> tuple | pytest.MarkDecorator:
    """A cell's marks: none, or a strict xfail whose reason gives the cause
    and the error that ``measure()`` returns now, at collection."""
    if cause is None:
        return ()
    return pytest.mark.xfail(strict=True, reason=f"{cause}; measured {measure():.2e}")
