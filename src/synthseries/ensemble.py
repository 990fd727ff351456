"""Ensembles of synthetic series with full reproducibility provenance.

The member codec lives here alone, and it handles one member at a time. A
member is saved as the bytes ``csv.writer`` writes for one bare ``value``
column (``_bare_body``) and read back by one pass over exactly those bytes
(``_bare_cells``); a member that pass refuses is read by ``series.load_csv``,
which reports what is wrong with it.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import ChecksumMismatch, ConfigError, IOErrorSS, LengthMismatch, MalformedManifest, ValidationError
from .neighbors import index_dtype
from .series import HourlySeries, load_csv, write_json

MANIFEST_NAME = "manifest.json"

# bytes that give a line CSV structure (a delimiter, a quote, a NUL); a
# member without any of them is one bare column, one cell per line
_CSV_SYNTAX = (b",", b'"', b"\0")

# ``blocks`` decodes members for the statistics in runs of about this many
# values, so that temporaries stay at a few MB: the values of a whole
# (2000, 720) ensemble alone take 11.5 MB
_RUN_VALUES = 1 << 16

# recorded in every manifest in place of a per-series seed list
CHILD_SEED_RULE = "series b is drawn from numpy.random.default_rng([master_seed, b])"


def child_seed(master_seed: int, series_index: int) -> tuple[int, int]:
    """The seed of one series: ``np.random.default_rng(child_seed(m, b))``
    is the stream series b was drawn from (``SeedSequence([m, b])``).

    Fixed for the life of the file format; two runs with equal master seeds
    derive identical children regardless of generation order or thread count.
    """
    return (int(master_seed), int(series_index))


def child_rng(master_seed: int, series_index: int) -> np.random.Generator:
    return np.random.default_rng(child_seed(master_seed, series_index))


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """B synthetic series plus the provenance needed to regenerate them.

    The members are held as a (table, codes) pair: member b is
    ``table[codes[b]]``. The constructor codes the (B, n) matrix it is given
    (see ``_distinct``), copying it; ``decode``, as a batch or a load
    calls it, takes a pair as it is. ``values`` is the read-only (B, n)
    float64 matrix, decoded on first use; ``save`` writes from the pair and
    the statistics read it through ``blocks``, so neither holds the values
    whole. Equality and hashing are by identity.
    """

    method: str
    config: dict[str, Any]
    master_seed: int
    source_checksum: str
    _coded: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, values: Any, method: str, config: dict[str, Any], master_seed: int, source_checksum: str):
        table, codes = _distinct(np.asarray(values, dtype=float))
        codes = codes.astype(index_dtype(table.size))
        for array in (table, codes):
            array.setflags(write=False)
        self._hold(table, codes, method, config, master_seed, source_checksum)

    @classmethod
    def decode(
        cls, table: np.ndarray, codes: np.ndarray, method: str, config: dict[str, Any], master_seed: int,
        source_checksum: str,
    ) -> "Ensemble":
        """The ensemble whose member b is ``table[codes[b]]``. A bootstrap batch
        passes its source values as the table and its members' source indices
        as the codes; ``save`` then formats each table entry once."""
        ens = object.__new__(cls)
        ens._hold(table, codes, method, config, master_seed, source_checksum)
        return ens

    def _hold(
        self, table: np.ndarray, codes: np.ndarray, method: str, config: dict[str, Any], master_seed: int,
        source_checksum: str,
    ) -> None:
        """Check the pair and set every field."""
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
            raise ConfigError("ensemble must contain at least one non-empty series")
        if not np.isfinite(table).all():
            raise ValidationError("ensemble contains NaN or infinite values")
        fields = {"method": method, "config": config, "master_seed": master_seed,
                  "source_checksum": source_checksum, "_coded": (table, codes)}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @cached_property
    def values(self) -> np.ndarray:
        """The members as one read-only (B, n) float64 matrix, decoded on first use."""
        values = self.rows(0, len(self))
        values.setflags(write=False)
        return values

    def __len__(self) -> int:
        return int(self._coded[1].shape[0])

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Members start to stop - 1, decoded from the pair as a (rows, n)
        float64 matrix."""
        table, codes = self._coded
        return table[codes[start:stop]]

    def blocks(self) -> Iterator[np.ndarray]:
        """The members in order, as ``rows`` of about ``_RUN_VALUES`` values each."""
        step = max(1, _RUN_VALUES // int(self._coded[1].shape[1]))
        for start in range(0, len(self), step):
            yield self.rows(start, start + step)

    @property
    def series(self) -> tuple[HourlySeries, ...]:
        """The members as series, copied from ``values`` on each access."""
        return tuple(HourlySeries(row) for row in self.values)

    def save(self, directory: str | Path) -> Path:
        """Write one CSV per member plus a JSON manifest with each member's sha256.

        Member b is written from its own row of codes: its cells are the
        ``repr`` of its table entries, each entry formatted once per save,
        and its sha256 is over those entries' bytes.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        B = len(self)
        width = max(4, len(str(B - 1)))
        names = [f"series_{b:0{width}d}.csv" for b in range(B)]
        checksums = []
        table, codes = self._coded
        text = _cell_text(table)
        # member paths are joined as strings, since pathlib interns each name
        # it parses: the names could make the interpreter's table of interned
        # strings grow inside a save (by 1.9 MB once, in a test session)
        for name, row in zip(names, codes):
            with open(os.path.join(directory, name), "wb") as f:
                f.write(_bare_body(text[row].tolist()))
            checksums.append(hashlib.sha256(table[row].tobytes()).hexdigest())
        manifest = {
            "method": self.method,
            "config": self.config,
            "master_seed": self.master_seed,
            "source_checksum": self.source_checksum,
            "child_seed_rule": CHILD_SEED_RULE,
            "series_files": names,
            "series_checksums": checksums,
        }
        write_json(manifest, directory / MANIFEST_NAME)
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "Ensemble":
        """Read a saved ensemble as a (table, codes) pair, checking every member
        against its manifest checksum and against the length of the first
        before the next is read.

        A member in the exact form ``save`` writes is split into its cells in
        one pass over its bytes, and each cell takes the code of its text, a
        text not seen before the next code; only those new texts are parsed,
        into the table in the order they first occur. Codes are uint16,
        widened once to uint32 when the table outgrows ``index_dtype``'s
        rule, and ``values`` is decoded from them on first use. Any other
        member, or one with a new cell that is not a finite float, is read by
        ``load_csv``, which reports what is wrong with it, and the ``repr``
        of each value it returns is coded as its cell.

        The cells of a bootstrap ensemble are at most its source's n values,
        one member's worth. Members of values that are nearly all distinct
        would make the dict from cell text to code hold every cell, at about
        140 bytes each, so it is emptied before a member once it holds more
        cells than one member and than ``_RUN_VALUES``; cells seen before
        that are then parsed again and appended to the table a second time.
        """
        directory = Path(directory)
        manifest = _read_manifest(directory)
        files = manifest["series_files"]
        code_of: defaultdict[bytes, int] = defaultdict()
        table = np.empty(0)
        size = 0  # entries of the table in use
        codes = np.empty((len(files), 0), dtype=np.uint16)
        for b, (name, expected) in enumerate(zip(files, manifest["series_checksums"])):
            if len(code_of) > max(_RUN_VALUES, codes.shape[1]):
                code_of.clear()
            # joined as a string: pathlib would intern every member name (see save)
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                cells = _bare_cells(f.read())
            coded = None if cells is None else _code(cells, code_of, size)
            if coded is None:
                coded = _code([repr(v).encode() for v in load_csv(path).values.tolist()], code_of, size)
            row, new_values = coded
            if size + new_values.size > table.size:
                table = np.concatenate([table[:size], np.empty(size + new_values.size)])
            table[size : size + new_values.size] = new_values
            size += new_values.size
            dtype = index_dtype(size)
            if hashlib.sha256(table[row].tobytes()).hexdigest() != expected:
                raise ChecksumMismatch(f"{path} does not match its manifest checksum")
            if b == 0:
                codes = np.empty((len(files), row.size), dtype=dtype)
            elif row.size != codes.shape[1]:
                raise LengthMismatch(f"{path} has {row.size} values, {files[0]} has {codes.shape[1]}")
            if codes.dtype != dtype:
                codes = codes.astype(dtype)
            codes[b] = row
        table = table[:size].copy()
        for array in (table, codes):
            array.setflags(write=False)
        return cls.decode(
            table,
            codes,
            method=manifest["method"],
            config=manifest["config"],
            master_seed=manifest["master_seed"],
            source_checksum=manifest["source_checksum"],
        )


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float64 array as a table, and each value's
    place in it as an intp array of ``values``' shape.

    The values are told apart by their bit patterns (``np.unique`` over
    them), so -0.0 and 0.0 take two entries.
    """
    bits, codes = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    return bits.view(np.float64), codes.reshape(values.shape)


def _cell_text(table: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of every entry of ``table``, as an object array."""
    return np.array([repr(v) for v in table.tolist()], dtype=object)


def _bare_body(cells: list[str]) -> bytes:
    """A member file as ``csv.writer`` writes it: a ``value`` header, then
    one CRLF-terminated row per cell."""
    return "\r\n".join(["value", *cells, ""]).encode("utf-8")


def _bare_cells(data: bytes) -> list[bytes] | None:
    """The cells of a member in the exact form ``save`` writes: ASCII, a
    ``value`` header and then one row per cell, every line ended by CRLF,
    and no delimiter, quote or NUL anywhere; None for any other bytes."""
    if not (data.startswith(b"value\r\n") and data.endswith(b"\r\n") and data.isascii()):
        return None
    if any(c in data for c in _CSV_SYNTAX):
        return None
    cells = data[7:-2].split(b"\r\n")
    # every CR and every LF must belong to the CRLF that ends the header or a cell
    ends = len(cells) + 1
    return cells if data.count(b"\r") == ends and data.count(b"\n") == ends else None


def _code(cells: list[bytes], code_of: defaultdict[bytes, int], size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each cell's code in ``code_of``, a cell without one taking the next
    code from ``size`` on, and the values of those new cells in code order;
    None, with ``code_of`` as it was, if a new cell is not a finite float."""
    known = len(code_of)
    code_of.default_factory = count(size).__next__
    row = np.fromiter(map(code_of.__getitem__, cells), dtype=np.intp, count=len(cells))
    new = list(islice(reversed(code_of), len(code_of) - known))[::-1]
    try:
        values = np.fromiter(map(float, new), dtype=float, count=len(new))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return row, values
    for cell in new:
        del code_of[cell]
    return None


_MANIFEST_FIELDS = {
    "method": str,
    "config": dict,
    "master_seed": int,
    "source_checksum": str,
    "series_files": list,
    "series_checksums": list,
}


def _read_manifest(directory: Path) -> dict[str, Any]:
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise IOErrorSS(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise MalformedManifest(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise MalformedManifest(f"{path}: root must be a JSON object")
    for key, kind in _MANIFEST_FIELDS.items():
        if not isinstance(manifest.get(key), kind):
            raise MalformedManifest(f"{path}: {key!r} missing or not a JSON {kind.__name__}")
    files, checksums = manifest["series_files"], manifest["series_checksums"]
    if not all(isinstance(x, str) for x in files + checksums) or len(files) != len(checksums):
        raise MalformedManifest(f"{path}: series_files and series_checksums must be equal-length lists of strings")
    if not files:
        raise MalformedManifest(f"{path}: series_files is empty")
    for name in files:
        # a member is read as directory / name, so the name must not leave the
        # directory; it is checked as a string, since pathlib would intern it
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise MalformedManifest(f"{path}: series_files entry {name!r} is not a file name")
    return manifest


def run_batch(
    generate_one,
    source: HourlySeries,
    method: str,
    config: dict[str, Any],
    B: int,
    master_seed: int,
    threads: int = 1,
) -> Ensemble:
    """Generate B series, each from its own child seed, as the rows of one
    matrix of source indices, which are the codes of the ensemble's pair.

    ``generate_one(rng) -> np.ndarray`` returns one member of the source's
    length as indices into ``source.values`` and must depend only on the
    supplied RNG, so results are independent of generation order. The
    indices are kept in the dtype ``neighbors.index_dtype(n)`` gives for
    the source's n values. ``threads`` is accepted for compatibility and has no
    effect: a thread pool over the members was slower than one loop at 2
    threads.
    """
    if B < 1:
        raise ConfigError(f"B must be >= 1, got {B}")
    n = len(source)
    try:
        codes = np.empty((B, n), dtype=index_dtype(n))
    except ValueError:  # a shape numpy cannot represent, refused before allocating
        raise ConfigError(f"B={B} is too large: {B} members of {n} values do not fit in one array") from None
    for b in range(B):
        codes[b] = generate_one(child_rng(master_seed, b))
    codes.setflags(write=False)
    return Ensemble.decode(source.values, codes, method, config, master_seed, source.checksum())
