"""Exception hierarchy shared across the package, and the input rules: each
public entry converts every number it takes once, with ``_index``, ``_real``,
``_finite`` or ``_positive``, and checks every object it takes with
``_instance`` or ``_collection``; all of them refuse with ``ValidationError``
(a ValueError)."""

from __future__ import annotations

import math
import operator
from collections.abc import Collection
from numbers import Real


class CapheatError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CapheatError, ValueError):
    """Bad arguments or configuration, detected before any computation."""


def _index(value, name: str) -> int:
    """``value`` as an int; ValidationError for a bool, for what
    operator.index refuses and for an int that no double holds."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            _real(index, name)  # the float math behind would overflow
            return index
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a double; ValidationError unless a real number (a bool is
    not) that a double holds.  Run before any comparison, which a wrong type
    would fail with a bare TypeError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} lies outside the range of a double") from None


def _finite(value, name: str) -> float:
    """``value`` as a finite double, else ValidationError."""
    number = _real(value, name)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be a finite double")
    return number


def _positive(value, name: str) -> float:
    """``value`` as a positive finite double, else ValidationError."""
    number = _real(value, name)
    if not 0.0 < number < math.inf:
        raise ValidationError(f"{name} must be finite and positive")
    return number


def _instance(value, kinds, name: str):
    """``value`` itself if an instance of ``kinds``, a class (an ABC such as
    Mapping too) or a tuple of them; else ValidationError naming them."""
    if isinstance(value, kinds):
        return value
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    names = " or ".join(kind.__name__ for kind in kinds)
    raise ValidationError(f"{name} must be {names}, got {value!r}")


def _collection(value, name: str):
    """``value`` itself if a Collection with a length, else ValidationError:
    a 0-d numpy array has the methods of one, but len() refuses it."""
    try:
        len(_instance(value, Collection, name))
    except TypeError:
        raise ValidationError(f"{name} must be a Collection with a length, "
                              f"got {value!r}") from None
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
