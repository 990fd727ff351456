"""Hourly series data model: circular indexing, chunking, CSV in/out.

Series are immutable after construction and safe to share across threads.
Indexing is 0-based internally; the time series is treated as circular,
so the predecessor of the first hour is the last hour.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyFile,
    InvalidChunkLength,
    MissingColumn,
    UndecodableFile,
    UnparseableValue,
    ValidationError,
)


@dataclass(frozen=True)
class HourlySeries:
    """Ordered hourly observations (MW or MWh/h)."""

    values: np.ndarray
    label: str = ""
    start_timestamp: str | None = None
    timestamps: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValidationError("series must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("series contains NaN or infinite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    def require_non_negative(self) -> "HourlySeries":
        if np.any(self.values < 0):
            raise ValidationError(f"series {self.label!r} has negative values")
        return self

    def checksum(self) -> str:
        """sha256 over the raw float64 buffer; stable across runs."""
        return hashlib.sha256(self.values.tobytes()).hexdigest()

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class ChunkedSeries:
    """Fixed-length sequential blocks of a series, wrap-padded at the end."""

    chunks: np.ndarray  # (n_chunks, chunk_length)
    chunk_length: int
    source_length: int
    wrapped: bool

    def sums(self) -> np.ndarray:
        return self.chunks.sum(axis=1)

    def flatten(self) -> np.ndarray:
        """Concatenation truncated back to the source length."""
        return self.chunks.reshape(-1)[: self.source_length]


def circular_get(series: HourlySeries, index: int) -> float:
    """Value at ``index mod len(series)`` (mathematical modulus)."""
    return float(series.values[index % len(series)])


def chunk(series: HourlySeries, length: int, *, truncate: bool = False) -> ChunkedSeries:
    """Split into sequential blocks of ``length`` hours.

    A ragged final block is completed with wrapped-around leading values,
    unless ``truncate`` is set (for non-annual data where circularity is
    unwarranted), in which case the ragged tail is dropped.
    """
    n = len(series)
    if not 1 <= length <= n:
        raise InvalidChunkLength(f"chunk length {length} not in [1, {n}]")
    vals = series.values
    if truncate:
        m = n // length
        return ChunkedSeries(vals[: m * length].reshape(m, length).copy(), length, m * length, False)
    m = math.ceil(n / length)
    pad = m * length - n
    if pad:
        flat = np.concatenate([vals, vals[:pad]])
    else:
        flat = vals.copy()
    return ChunkedSeries(flat.reshape(m, length), length, n, pad > 0)


# characters that give a line CSV structure (a delimiter, a quote, a NUL);
# a file without any of them is one bare column, one cell per line
_CSV_SYNTAX = (",", '"', "\0")


def load_csv(
    path: str | Path,
    value_column: str = "value",
    timestamp_column: str | None = None,
    label: str = "",
) -> HourlySeries:
    """Read one series from a UTF-8 CSV with a header row.

    Rows are assumed chronological. Blank or non-numeric value cells raise
    :class:`UnparseableValue` with the offending 1-based data row number; a
    file that is not UTF-8 raises :class:`UndecodableFile`.

    The file is read once. A bare value column is converted in one pass
    (see ``_bare_column``); anything else, and any bare column that pass
    refuses, goes through ``csv.reader``, which reports the offending row.
    """
    path = Path(path)
    text = _read_text(path)
    values = _bare_column(text, value_column) if timestamp_column is None else None
    stamps: list[str] = []
    if values is None:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None:
            raise EmptyFile(str(path))
        header = [h.strip() for h in header]
        vcol = _column(path, header, value_column)
        tcol = _column(path, header, timestamp_column) if timestamp_column is not None else None
        parsed: list[float] = []
        # csv.reader keeps blank lines as empty rows, so row numbering stays
        # aligned with the file and a blank cell is reported where it occurs.
        for rownum, row in enumerate(reader, start=1):
            parsed.append(_parse_value(rownum, row[vcol] if vcol < len(row) else ""))
            if tcol is not None:
                stamps.append(row[tcol])
        values = np.array(parsed)
    if not values.size:
        raise EmptyFile(str(path))
    return HourlySeries(
        values,
        label=label or path.stem,
        start_timestamp=stamps[0] if stamps else None,
        timestamps=tuple(stamps) if stamps else None,
    )


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFile(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _bare_column(text: str, value_column: str = "value") -> np.ndarray | None:
    """The values of a file that is one bare column under a ``value_column``
    header, with at least one row and every cell a finite float; None for any
    other text, which ``csv.reader`` then reads and reports on.

    A bare column has no delimiter, quote or NUL anywhere. It is split into
    lines at CR, LF or CRLF, as ``csv.reader`` splits it, and its cells are
    converted with one ``float`` map.
    """
    if any(c in text for c in _CSV_SYNTAX):
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":  # the final line break ends a row, it does not start one
        lines.pop()
    # an empty first line is no header for csv.reader, not an empty name
    if len(lines) < 2 or not lines[0] or lines[0].strip() != value_column:
        return None
    cells = lines[1:]
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _column(path: Path, header: list[str], name: str) -> int:
    if name not in header:
        raise MissingColumn(f"{path}: no column {name!r} in {header}")
    return header.index(name)


def _parse_value(rownum: int, cell: str) -> float:
    raw = cell.strip()
    if not raw:
        raise UnparseableValue(rownum, "blank cell")
    try:
        v = float(raw)
    except ValueError:
        raise UnparseableValue(rownum, raw) from None
    if not math.isfinite(v):
        raise UnparseableValue(rownum, raw)
    return v


def write_csv(series: HourlySeries, path: str | Path) -> None:
    """Write ``timestamp,value`` (or bare ``value``) at full float precision.

    The file is built as one string and written in one call: the bytes
    ``csv.writer`` writes with ``repr(float(v))`` cells and CRLF rows.
    """
    cells = _format_cells(series.values, {}).tolist()
    if series.timestamps is not None:
        # timestamps are free text that may need quoting
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([("timestamp", "value"), *zip(series.timestamps, cells)])
        body = buf.getvalue().encode("utf-8")
    else:
        body = _bare_body(cells)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body)


def _format_cells(values: np.ndarray, reprs: dict[int, str]) -> np.ndarray:
    """``repr(float(v))`` of every value, as an object array of ``values``' shape.

    Each distinct value is formatted once, in ``reprs``, keyed by its float64
    bit pattern (so -0.0 and 0.0 stay apart); pass one dict to several calls
    to share that work.
    """
    bits, where = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    text = [
        reprs.get(b) or reprs.setdefault(b, repr(v))
        for b, v in zip(bits.tolist(), bits.view(np.float64).tolist())
    ]
    return np.array(text, dtype=object)[where.reshape(values.shape)]


def _bare_body(cells: list[str]) -> bytes:
    """A bare value column as ``csv.writer`` writes it: a ``value`` header,
    then one CRLF-terminated row per cell."""
    return "\r\n".join(["value", *cells, ""]).encode("utf-8")
