"""Exception hierarchy shared across the package.

Three broad classes, mirrored in the CLI exit codes: configuration /
parameter problems, IO problems, and numerical-validation problems.
"""

from __future__ import annotations


class SynthSeriesError(Exception):
    """Base class for all package errors."""


class ConfigError(SynthSeriesError):
    """Invalid parameters or configuration."""


class IOErrorSS(SynthSeriesError):
    """File ingestion / serialization problems."""


class ValidationError(SynthSeriesError):
    """Numerical or data-content validation failures."""


# --- ingestion ---------------------------------------------------------


class MissingColumn(IOErrorSS):
    pass


class EmptyFile(IOErrorSS):
    pass


class UndecodableFile(IOErrorSS):
    """A series file that is not UTF-8 text."""


class UnparseableValue(IOErrorSS):
    """A value cell failed to parse; carries the 1-based data row number."""

    def __init__(self, row: int, detail: str = ""):
        self.row = row
        super().__init__(f"unparseable value at data row {row}" + (f": {detail}" if detail else ""))


# --- series / chunking -------------------------------------------------


class InvalidChunkLength(ConfigError):
    pass


class SeriesTooShort(ConfigError):
    pass


class LengthMismatch(ValidationError):
    pass


# --- resampling --------------------------------------------------------


class InvalidLag(ConfigError):
    pass


class KTooLarge(ConfigError):
    key = "k"


class InvalidSash(ConfigError):
    pass


class PTooLarge(ConfigError):
    key = "p"


# --- ensembles ---------------------------------------------------------


class MalformedManifest(IOErrorSS):
    """An ensemble manifest that is not JSON or lacks a required field."""


class ChecksumMismatch(ValidationError):
    """Data that does not match the checksum recorded for it."""


# --- perturbation ------------------------------------------------------


class InvalidDistributionParams(ConfigError):
    pass


class InvalidProbability(ConfigError):
    pass


# --- adequacy ----------------------------------------------------------


class ZeroLoad(ValidationError):
    pass


class EmptyGrid(ConfigError):
    pass


class OutOfRange(ConfigError):
    pass
