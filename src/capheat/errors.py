"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CapheatError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CapheatError):
    """Bad arguments or configuration, detected before any computation."""


class StructureViolation(CapheatError):
    """A cumulant function contains a monomial outside its expected shape."""


class ParameterPole(CapheatError):
    """Hypergeometric lower parameter is a nonpositive integer."""


class DivergentAtOne(CapheatError):
    """Hypergeometric series does not converge at unit argument."""


class GammaPole(CapheatError):
    """Gamma function evaluated at a nonpositive integer in a numerator."""


class InsufficientBaseData(ValidationError):
    """A base-manifold heat coefficient needed by the assembly is missing."""


class IndexOutOfRange(ValidationError):
    """Coefficient index outside the validity range of the assembly."""


class DomainError(ValidationError):
    """Closed-form residue requested outside its validity range."""


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
