"""Exception types shared across the package."""

__all__ = ["SaranFKError", "DomainError", "PoleError", "ConvergenceError", "ConfigError"]


class SaranFKError(Exception):
    """Base class for all package errors."""


class DomainError(SaranFKError, ValueError):
    """Argument lies outside the convergence region of a series or integral."""


class PoleError(SaranFKError, ValueError):
    """A parameter sits on (or within tolerance of) a pole configuration."""


class ConvergenceError(SaranFKError, ArithmeticError):
    """A truncated evaluation failed its tail or stability check."""


class ConfigError(SaranFKError, ValueError):
    """Invalid run configuration (unknown identity id, bad flag value, ...)."""
