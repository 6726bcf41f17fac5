"""Exception types shared across the package."""

__all__ = ["ParameterError", "DomainError", "SamplingError"]


class ParameterError(ValueError):
    """A constructor or command received an out-of-range parameter."""


class DomainError(ValueError):
    """An evaluation point (or a finite-difference stencil around it) left
    the domain where the object is defined."""


class SamplingError(RuntimeError):
    """Every node of a requested grid failed to evaluate."""
