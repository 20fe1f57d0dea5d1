"""Exception types shared across the package."""

__all__ = [
    "StopgainError",
    "ParameterError",
    "DomainError",
    "ResourceError",
    "EmptySampleError",
]


class StopgainError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(StopgainError, ValueError):
    """A model parameter violates its declared constraint."""


class DomainError(StopgainError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ResourceError(StopgainError, RuntimeError):
    """A batch does not fit the configured working-memory budget."""


class EmptySampleError(StopgainError, ValueError):
    """An empirical estimate was requested from zero samples."""
