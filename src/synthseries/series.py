"""Hourly series data model: circular indexing, block sums, CSV in/out, JSON out.

Series are immutable after construction and safe to share across threads.
Indexing is 0-based internally; the time series is treated as circular,
so the predecessor of the first hour is the last hour.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import (
    EmptyFile,
    InvalidChunkLength,
    MissingColumn,
    UndecodableFile,
    UnparseableValue,
    ValidationError,
)


@dataclass(frozen=True, eq=False)
class HourlySeries:
    """Ordered hourly observations (MW or MWh/h). Equality and hashing are by identity."""

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

    def checksum(self) -> str:
        """sha256 over the raw float64 buffer; stable across runs."""
        return hashlib.sha256(self.values.tobytes()).hexdigest()

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def chunk_sums(values: np.ndarray, length: int) -> np.ndarray:
    """Sums of sequential ``length``-hour blocks along the last axis of a 1-D
    or 2-D array.

    A ragged final block is completed with wrapped-around leading values.
    The full blocks are summed through a reshaped view and only the ragged
    one is copied, so a (B, n) matrix is never padded as a whole.
    """
    n = values.shape[-1]
    if not 1 <= length <= n:
        raise InvalidChunkLength(f"chunk length {length} not in [1, {n}]")
    full = n // length
    sums = values[..., : full * length].reshape(*values.shape[:-1], full, length).sum(axis=-1)
    pad = -n % length
    if not pad:
        return sums
    ragged = np.concatenate([values[..., full * length :], values[..., :pad]], axis=-1).sum(axis=-1)
    return np.concatenate([sums, ragged[..., None]], axis=-1)


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


def _read_text(path: str | Path) -> str:
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFile(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _bare_cells(text: str, value_column: str = "value") -> list[str] | None:
    """The cells of a file that is one bare column under a ``value_column``
    header, with at least one row; None for any other text.

    A bare column has no delimiter, quote or NUL anywhere. It is split into
    lines at CR, LF or CRLF, as ``csv.reader`` splits it.
    """
    if any(c in text for c in _CSV_SYNTAX):
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":  # the final line break ends a row, it does not start one
        lines.pop()
    # an empty first line is no header for csv.reader, not an empty name
    if len(lines) < 2 or not lines[0] or lines[0].strip() != value_column:
        return None
    del lines[0]
    return lines


def _bare_column(text: str, value_column: str = "value") -> np.ndarray | None:
    """The values of a bare column (see ``_bare_cells``) whose every cell is a
    finite float, converted with one ``float`` map; None for any other text,
    which ``csv.reader`` then reads and reports on."""
    cells = _bare_cells(text, value_column)
    if cells is None:
        return None
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
    """Write ``timestamp,value`` (or bare ``value``) at full float precision:
    the bytes ``csv.writer`` writes with ``repr(float(v))`` cells and CRLF
    rows. A bare column is built as one string and written in one call.
    """
    cells = _format_cells(series.values).tolist()
    if series.timestamps is not None:
        # timestamps are free text that may need quoting
        write_rows(path, [("timestamp", "value"), *zip(series.timestamps, cells)])
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_bare_body(cells))


def write_rows(path: str | Path, rows: Iterable[Sequence[Any]]) -> None:
    """Write ``rows`` with ``csv.writer`` (``str`` of each cell, CRLF rows)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_json(obj: Any, path: str | Path) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline.
    A NaN or infinite float raises ValueError before anything is written: JSON
    has no such number."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float64 array as a table, and each value's
    place in it as an intp array of ``values``' shape.

    The values are told apart by their bit patterns (``np.unique`` over
    them), so -0.0 and 0.0 take two entries.
    """
    bits, codes = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    return bits.view(np.float64), codes.reshape(values.shape)


def _format_cells(values: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of every value, as an object array of ``values``'
    shape; each distinct value (see ``_distinct``) is formatted once."""
    table, codes = _distinct(values)
    return _cell_text(table)[codes]


def _cell_text(table: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of every entry of ``table``, as an object array."""
    return np.array([repr(v) for v in table.tolist()], dtype=object)


def _bare_body(cells: list[str]) -> bytes:
    """A bare value column as ``csv.writer`` writes it: a ``value`` header,
    then one CRLF-terminated row per cell."""
    return "\r\n".join(["value", *cells, ""]).encode("utf-8")
