"""Exception hierarchy shared across the package.

Each class carries the process exit code used by the CLI, so library code
raises the same errors the command line reports.
"""

__all__ = [
    "DimWitnessError",
    "ConfigError",
    "InvalidModeSetError",
    "InvalidStateError",
    "IngestionError",
    "CapacityError",
    "IntegrityError",
]


class DimWitnessError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(DimWitnessError):
    """Invalid configuration, arguments or domain violations."""

    exit_code = 2


class InvalidModeSetError(ConfigError):
    """Duplicate or otherwise malformed mode set."""


class InvalidStateError(ConfigError):
    """State construction input that cannot yield a valid density matrix."""


class IngestionError(DimWitnessError):
    """Missing or malformed entries in ingested data files."""

    exit_code = 3


class CapacityError(DimWitnessError):
    """Request exceeds the configured small-dimension cap for full-matrix work."""

    exit_code = 4


class IntegrityError(DimWitnessError):
    """Data that violates a hard mathematical cap, e.g. W above its global maximum."""

    exit_code = 5
