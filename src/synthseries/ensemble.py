"""Ensembles of synthetic series with full reproducibility provenance."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import ChecksumMismatch, ConfigError, IOErrorSS, LengthMismatch, MalformedManifest, ValidationError
from .neighbors import index_dtype
from .series import HourlySeries, _bare_body, _bare_cells, _cell_text, _distinct, _read_text, load_csv, write_json

MANIFEST_NAME = "manifest.json"

# members are decoded, formatted and read by the statistics in runs of about
# this many values, so that temporaries stay at a few MB: the values of a
# whole (2000, 720) ensemble alone take 11.5 MB, and its cells more
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
    (see ``series._distinct``), copying it; ``decode``, as a batch or a load
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

    @property
    def _run_rows(self) -> int:
        """Members per run of about ``_RUN_VALUES`` values, one at least."""
        return max(1, _RUN_VALUES // int(self._coded[1].shape[1]))

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Members start to stop - 1, decoded from the pair as a (rows, n)
        float64 matrix."""
        table, codes = self._coded
        return table[codes[start:stop]]

    def blocks(self) -> Iterator[np.ndarray]:
        """The members in order, as ``rows`` of about ``_RUN_VALUES`` values each."""
        step = self._run_rows
        for start in range(0, len(self), step):
            yield self.rows(start, start + step)

    @property
    def series(self) -> tuple[HourlySeries, ...]:
        """The members as series, copied from ``values`` on each access."""
        return tuple(HourlySeries(row) for row in self.values)

    def save(self, directory: str | Path) -> Path:
        """Write one CSV per member plus a JSON manifest with each member's sha256.

        Members are written in runs of about ``_RUN_VALUES`` values. A cell
        is the ``repr`` of a table entry, each entry formatted once per save.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        B = len(self)
        width = max(4, len(str(B - 1)))
        names = [f"series_{b:0{width}d}.csv" for b in range(B)]
        checksums = []
        step = self._run_rows
        table, codes = self._coded
        text = _cell_text(table)
        # member paths are joined as strings, since pathlib interns each name
        # it parses: the names could make the interpreter's table of interned
        # strings grow inside a save (by 1.9 MB once, in a test session)
        for start in range(0, B, step):
            run_codes = codes[start : start + step]
            rows, cells = table[run_codes], text[run_codes].tolist()
            for name, row, row_cells in zip(names[start : start + step], rows, cells):
                with open(os.path.join(directory, name), "wb") as f:
                    f.write(_bare_body(row_cells))
                checksums.append(hashlib.sha256(row.tobytes()).hexdigest())
            del rows, cells  # so that no run is held while the next one is formatted
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

        Each distinct cell text is parsed once, when first seen, and given the
        next code; a member's codes are its cells' codes. They are uint16,
        widened once to uint32 when the table outgrows ``index_dtype``'s rule,
        and ``values`` is decoded from them on first use. A member that is not
        a bare value column of finite floats is read by ``load_csv``, which
        reports what is wrong with it, and the ``repr`` of each value it
        returns is coded as its cell.

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
        code_of: dict[str, int] = {}
        table = np.empty(0)
        size = 0  # entries of the table in use
        codes = np.empty((len(files), 0), dtype=np.uint16)
        for b, (name, expected) in enumerate(zip(files, manifest["series_checksums"])):
            if len(code_of) > max(_RUN_VALUES, codes.shape[1]):
                code_of.clear()
            # joined as a string: pathlib would intern every member name (see save)
            path = os.path.join(directory, name)
            cells = _bare_cells(_read_text(path))
            parsed = None if cells is None else _parse_unseen(cells, code_of)
            if parsed is None:
                cells = [repr(v) for v in load_csv(path).values.tolist()]
                parsed = _parse_unseen(cells, code_of)
            unseen, new_values = parsed
            if size + len(unseen) > table.size:
                table = np.concatenate([table[:size], np.empty(size + len(unseen))])
            table[size : size + len(unseen)] = new_values
            code_of.update(zip(unseen, range(size, size + len(unseen))))
            size += len(unseen)
            dtype = index_dtype(size)
            row = np.fromiter(map(code_of.__getitem__, cells), dtype=dtype, count=len(cells))
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


def _parse_unseen(cells: list[str], code_of: dict[str, int]) -> tuple[list[str], np.ndarray] | None:
    """The distinct cells that have no code yet, in the order they first
    occur, and their values; None if one of them is not a finite float."""
    unseen = list(dict.fromkeys(filterfalse(code_of.__contains__, cells)))
    try:
        values = np.fromiter(map(float, unseen), dtype=float, count=len(unseen))
    except ValueError:
        return None
    return (unseen, values) if np.isfinite(values).all() else None


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
