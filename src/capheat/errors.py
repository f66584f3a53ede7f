"""Exception hierarchy shared across the package."""

from __future__ import annotations

import operator
from numbers import Real


class CapheatError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CapheatError):
    """Bad arguments or configuration, detected before any computation."""


def _index(value, name: str) -> int:
    """``value`` as an int; ValidationError for what operator.index refuses."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str):
    """``value`` itself; ValidationError unless a real number (a bool is
    not).  Run before any comparison, which a wrong type would fail with a
    bare TypeError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return value


class StructureViolation(CapheatError):
    """A cumulant function contains a monomial outside its expected shape."""


class InsufficientBaseData(ValidationError):
    """A base-manifold heat coefficient needed by the assembly is missing."""


class NumericalError(CapheatError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class SlowConvergence(NumericalError):
    """A series needed more terms than the configured maximum."""


class MissedRootSuspicion(NumericalError):
    """Gap between consecutive eigenvalue roots exceeds the plausible spacing."""


class TailTooLarge(NumericalError):
    """Heat-trace truncation tail above the requested tolerance."""


class IllConditioned(NumericalError):
    """Least-squares design matrix condition number above the safety cap."""


class AssumptionViolation(NumericalError):
    """An eigenvalue below the spectral positivity threshold was found."""
