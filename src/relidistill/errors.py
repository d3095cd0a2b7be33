"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, StageError -> 4.
"""


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
