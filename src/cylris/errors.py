"""Exception types shared across the package."""


class CylrisError(Exception):
    """Base class for package errors."""


class ConfigError(CylrisError, ValueError):
    """Invalid or inconsistent run configuration, or a library argument that
    breaks its config key's rule."""


class BudgetExceededError(CylrisError):
    """Requested enumeration exceeds the configured evaluation budget."""


class NumericalError(CylrisError):
    """A numerical step failed (singular system, non-finite values, ...)."""
