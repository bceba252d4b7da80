"""Exception hierarchy shared across the package, the JSON value checks the
file readers use before raising them, and the atomic writer of output files."""

import contextlib
import math
import os
from pathlib import Path


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


def write_atomic(path, data: bytes | str, what: str) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same directory
    and ``os.replace``, so a failed or interrupted write never leaves a partial
    file at ``path``. No fsync: this guards against a killed run, not against a
    power cut. An OSError becomes an EvgridError naming ``what`` and the path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise EvgridError(f"cannot write {what} {path}: {exc}") from exc
        raise
