"""Exception taxonomy shared by all modules.

Every failure mode surfaced by the library maps onto one of these classes,
and the CLI maps them onto documented exit codes (domain errors and
resource limits -> 2, convergence failures -> 3).
"""

from __future__ import annotations

__all__ = [
    "DyckAreaError",
    "DomainError",
    "BranchCutError",
    "PoleProximityError",
    "InconsistentBranchError",
    "ResourceLimitError",
    "NonConvergenceError",
    "DivergenceError",
    "AccuracyError",
    "SearchFailureError",
]


class DyckAreaError(Exception):
    """Base class for all library errors."""


class DomainError(DyckAreaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BranchCutError(DomainError):
    """The argument touches a branch cut of a multivalued function."""


class PoleProximityError(DomainError):
    """Evaluation too close to a pole or a zero of a denominator.

    The optional attribute ``nearest`` carries the closest known pole
    location when the caller can name one.
    """

    def __init__(self, message: str, nearest: float | complex | None = None):
        super().__init__(message)
        self.nearest = nearest


class InconsistentBranchError(DomainError):
    """Saddle-point branch data violate the continuity conventions."""


class ResourceLimitError(DyckAreaError):
    """A requested table or search would exceed the configured budget."""


class NonConvergenceError(DyckAreaError, RuntimeError):
    """An iteration hit its term or depth cap before stabilising.

    ``last_term`` records the magnitude of the final increment so that the
    caller can judge how far from convergence the run stopped.
    """

    def __init__(self, message: str, last_term: float | None = None):
        super().__init__(message)
        self.last_term = last_term


class DivergenceError(NonConvergenceError):
    """A truncated series shows a non-decaying tail at the truncation point."""


class AccuracyError(NonConvergenceError):
    """A quadrature or expansion cannot reach the requested tolerance."""


class SearchFailureError(NonConvergenceError):
    """A bracketing search found no sign change in its interval."""
