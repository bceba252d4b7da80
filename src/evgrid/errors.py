"""Exception hierarchy shared across the package, and the JSON value checks
the file readers use before raising them."""

import math


class EvgridError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EvgridError, ValueError):
    """An argument violates a documented precondition (bad evidence,
    degenerate probability, total conflict, empty sample set, ...)."""


class ConfigError(EvgridError, ValueError):
    """A configuration document is malformed or contains unknown keys."""


class TrainingDiverged(EvgridError, RuntimeError):
    """Training produced a non-finite loss; aborted with diagnostics."""


def is_int(value) -> bool:
    """A JSON integer (bool excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite JSON number (bool excluded)."""
    return (is_int(value) or isinstance(value, float)) and math.isfinite(value)
