"""``known_defects`` is the one place a known wrong output is stated."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import known_defects
import test_closed_forms as closed
import test_complement as complement

HERE = Path(__file__).resolve().parent


def xfail_sites(path: Path) -> list:
    """The lines of ``path`` that name an xfail."""
    return [node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "xfail"]


def test_the_table_states_each_known_defect():
    # no suite marks a cell wrong by hand
    assert [path.name for path in sorted(HERE.glob("*.py"))
            if xfail_sites(path)] == ["known_defects.py"]
    # each threshold and refused table lies on its suite's grid, so it
    # names cells that run: strict xfail then holds each of them wrong
    for (theta0, n), big_d in known_defects.ASSEMBLY_FIRST_D.items():
        assert big_d in closed.DIMS and theta0 in closed.THETAS and n < min(5, big_d)
    for base, dims in (("sphere", complement.DIMS), ("user", complement.USER_DIMS)):
        for (big_d, theta0), n in known_defects.COMPLEMENT_FIRST_N[base].items():
            assert big_d in dims and theta0 in complement.THETAS
            assert n % 2 and n <= min(big_d - 1, 17)
    for big_d, theta0 in known_defects.COMPLEMENT_REFUSED:
        assert big_d in complement.DIMS and theta0 in complement.THETAS
    # each table refused on the closed-form grid still is, as
    # test_complement::test_refused_tables holds the complement's
    for big_d, theta0 in known_defects.ASSEMBLY_REFUSED:
        assert big_d in closed.DIMS and theta0 in closed.THETAS
        for mass in closed.MASSES:
            with pytest.raises(OverflowError, match="underflows"):
                closed.assembled(big_d, theta0, mass, 4)
