"""Exception hierarchy shared across the package, the JSON value checks the
file readers use, the one reader of input files and writer of outputs, and
the one way a command's output directory comes into place."""

import contextlib
import math
import os
import re
import shutil
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
    """A finite JSON number (bool excluded); an int too large for a float is not one."""
    try:
        return (is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


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


def read_input(path, what: str, parse):
    """``parse`` applied to the bytes of the input file ``path``. An OSError becomes
    "cannot read <what> <path>: ..." and an EvgridError from ``parse`` becomes
    "<what> <path>: ...", so every failure names the file; so does JSON nested
    too deeply for ``json.loads``, which raises RecursionError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise EvgridError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(blob)
    except EvgridError as exc:
        raise EvgridError(f"{what} {path}: {exc}") from exc
    except RecursionError as exc:
        raise EvgridError(f"{what} {path}: JSON nested too deeply") from exc


def _running(pid: int) -> bool:
    """Whether another process has the pid; one signal 0 may not reach is another user's."""
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):  # no such process, or no pid that large
        return False
    except PermissionError:
        pass
    return pid != os.getpid()


@contextlib.contextmanager
def output_dir(out, inputs=()):
    """Yield a staging directory, the hidden sibling ``.<name>.<pid>.new``, that
    replaces the directory ``out`` whole once the block succeeds: the old tree is
    renamed aside, the new one in, and only then is the old one deleted. On any
    failure, KeyboardInterrupt included, ``out`` is left as it was. An ``out``
    that holds an input, or is neither empty nor an earlier output (one with a
    config.json), is refused first: replacing it would delete what it holds.
    A staging directory of ``out`` that no running process builds, as a run
    killed by SIGKILL leaves, is deleted before this run's is made."""
    out = Path(out).resolve()
    if any(out == path or out in path.parents for path in (Path(p).resolve() for p in inputs)):
        raise ConfigError(f"output directory {out} holds an input of the command")
    if out.exists() and not (out.is_dir() and (not os.listdir(out) or (out / "config.json").is_file())):
        raise ConfigError(f"output directory {out} is not an earlier output; refusing to replace it")
    stage, aside = (out.with_name(f".{out.name}.{os.getpid()}.{end}") for end in ("new", "old"))
    stale = re.compile(rf"\.{re.escape(out.name)}\.([0-9]+)\.new")
    for path in out.parent.iterdir() if out.parent.is_dir() else ():
        match = stale.fullmatch(path.name)
        if match and not _running(int(match[1])):
            shutil.rmtree(path, ignore_errors=True)
    try:
        stage.mkdir(parents=True)
    except OSError as exc:
        raise EvgridError(f"cannot create output directory {stage}: {exc}") from exc
    try:
        yield stage
        try:
            if out.exists():
                os.rename(out, aside)
            os.rename(stage, out)
        except OSError as exc:
            if aside.exists() and not out.exists():  # put the old tree back
                os.rename(aside, out)
            raise EvgridError(f"cannot move output directory {stage} to {out}: {exc}") from exc
    finally:
        shutil.rmtree(stage, ignore_errors=True)  # already gone after a success
    shutil.rmtree(aside, ignore_errors=True)
