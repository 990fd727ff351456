"""Hourly series data model: circular indexing, block sums, CSV in/out, JSON out.

One series is read from CSV by ``load_csv`` through ``csv.reader`` and
written by ``write_csv`` through ``csv.writer`` (``write_rows``), the only
reader and writer of that kind of file; ensemble members have their own
codec in ``ensemble.py``. Series are immutable after construction and safe
to share across threads.
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
    LengthMismatch,
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
        if self.timestamps is not None:
            stamps = tuple(self.timestamps)
            if len(stamps) != vals.size:
                raise LengthMismatch(f"{len(stamps)} timestamps for {vals.size} values")
            object.__setattr__(self, "timestamps", stamps)

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


def load_csv(
    path: str | Path,
    value_column: str = "value",
    timestamp_column: str | None = None,
    label: str = "",
) -> HourlySeries:
    """Read one series from a UTF-8 CSV with a header row, through ``csv.reader``.

    Rows are assumed chronological. Blank or non-numeric value cells raise
    :class:`UnparseableValue` with the offending 1-based data row number; a
    file that is not UTF-8 raises :class:`UndecodableFile`. A row too short
    to reach a column reads a blank cell there.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise EmptyFile(str(path))
    header = [h.strip() for h in header]
    vcol = _column(path, header, value_column)
    tcol = _column(path, header, timestamp_column) if timestamp_column is not None else None
    values: list[float] = []
    stamps: list[str] = []
    # csv.reader keeps blank lines as empty rows, so row numbering stays
    # aligned with the file and a blank cell is reported where it occurs.
    for rownum, row in enumerate(reader, start=1):
        values.append(_parse_value(rownum, row[vcol] if vcol < len(row) else ""))
        if tcol is not None:
            stamps.append(row[tcol] if tcol < len(row) else "")
    if not values:
        raise EmptyFile(str(path))
    return HourlySeries(
        np.array(values),
        label=label or path.stem,
        timestamps=tuple(stamps) if stamps else None,
    )


def _read_text(path: str | Path) -> str:
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFile(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


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
    """Write ``timestamp,value`` (or bare ``value``) rows with ``write_rows``,
    each value as ``repr(float(v))``, so at full float precision."""
    cells = map(repr, series.values.tolist())
    if series.timestamps is None:
        write_rows(path, [("value",), *zip(cells)])
    else:
        write_rows(path, [("timestamp", "value"), *zip(series.timestamps, cells)])


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
