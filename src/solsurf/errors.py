"""Exception types shared across the package."""

__all__ = ["ParameterError", "DomainError"]


class ParameterError(ValueError):
    """A constructor or command received an out-of-range parameter."""


class DomainError(ValueError):
    """An evaluation point (or a finite-difference stencil around it) left
    its domain or gave no finite value."""
