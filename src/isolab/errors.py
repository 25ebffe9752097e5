"""Exception taxonomy shared by every isolab module.

All failures that a caller can reasonably branch on get their own class.
Everything derives from :class:`IsolabError`, so CLI code can catch one
base type and turn it into an exit code without masking genuine bugs
(plain ``ValueError``/``TypeError`` still mean "caller misused the API").
"""

from __future__ import annotations


class IsolabError(Exception):
    """Base class for all domain failures raised by isolab."""


class DomainError(IsolabError):
    """Input is outside the mathematical domain of the operation."""


class DegenerateSpectrumError(DomainError):
    """Eigenvalues coincide (or nearly coincide) where distinctness is required."""


class GammaPoleError(DomainError):
    """A Gamma-function argument sits on (or numerically at) a nonpositive integer.

    ``nearest_pole`` records the offending integer so callers can report
    which genericity condition failed.
    """

    def __init__(self, message: str, nearest_pole: int):
        super().__init__(message)
        self.nearest_pole = nearest_pole


class DisambiguationError(DomainError):
    """A discrete reconstruction choice could not be resolved uniquely."""


class SingularityError(IsolabError):
    """The integrator ran into a (movable) singularity.

    ``location`` is the best available estimate of the singular abscissa.
    """

    def __init__(self, message: str, location: complex):
        super().__init__(message)
        self.location = location


class BudgetError(IsolabError):
    """Step or work budget exhausted before reaching the requested endpoint."""


class AccuracyError(IsolabError):
    """A computed object failed its internal consistency residual.

    ``residual`` carries the offending residual magnitude.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ScalingError(IsolabError):
    """An internal quantity left the representable floating-point range."""


class ConvergenceError(IsolabError):
    """An iterative solve (Newton, fit) failed to converge."""


class ConfigError(IsolabError):
    """Invalid run configuration (CLI flags, sampler settings)."""
