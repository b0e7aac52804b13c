"""Exception types shared across the package."""

__all__ = ["MagswimError", "IntegrationError", "ConfigError",
           "AnalysisError"]


class MagswimError(Exception):
    """Base class for package-specific failures."""


class IntegrationError(MagswimError):
    """Time integration aborted (non-finite state or singular solve)."""


class ConfigError(MagswimError):
    """Run configuration file is malformed or violates the schema."""


class AnalysisError(MagswimError):
    """An analysis-level assertion failed (e.g. cross-check mismatch)."""
