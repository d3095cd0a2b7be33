"""Exception hierarchy shared across the package, and the argument checks
every module applies before it uses a count, a dim, a seed or row indices.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, StageError -> 4.
"""

import numpy as np


class RelidistillError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RelidistillError):
    """An invalid config value or flag, or a violated call precondition."""


class DataError(RelidistillError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """A file could not be parsed; the message carries file/line context."""


class ShapeMismatchError(DataError):
    """Operands have incompatible dimensions."""


class LookupMissError(DataError):
    """Text is not a key of a precomputed embedding table."""


class UndefinedSimilarityError(DataError):
    """Cosine similarity was requested against an all-zero or non-finite vector."""


class UnlabeledSampleError(DataError):
    """A teacher record could not be mapped to any class."""


class InvalidRowError(DataError):
    """A pseudo-label row is empty or contains a negative label."""


class StageError(RelidistillError):
    """A curriculum stage cannot run, e.g. its sample subset is empty."""


def check_int(value, name: str, minimum: int = 0) -> int:
    """``value``, a Python or numpy integer >= ``minimum``, as an ``int``; a bool,
    a float (even ``2.0``) or anything else raises ConfigError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_rows(rows, n: int | None = None) -> np.ndarray:
    """``rows`` as a 1-D integer array of indices in 0..n-1 (any
    non-negative index when ``n`` is None), or ConfigError."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ConfigError("rows must be a 1-D array of row indices")
    if rows.size and (rows.min() < 0 or (n is not None and rows.max() >= n)):
        bound = "be non-negative" if n is None else f"lie in 0..{n - 1}"
        raise ConfigError(f"row indices must {bound}")
    return rows
