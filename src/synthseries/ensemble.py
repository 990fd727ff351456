"""Ensembles of synthetic series with full reproducibility provenance."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ChecksumMismatch, ConfigError, IOErrorSS, LengthMismatch, MalformedManifest, ValidationError
from .series import HourlySeries, _bare_body, _bare_column, _format_cells, _read_text, load_csv, write_json

MANIFEST_NAME = "manifest.json"

# members are formatted in runs of about this many values: one np.unique per
# run finds the values the run shares, and a save's temporaries stay at a few
# MB, where one over a whole (2000, 720) ensemble would take about 35 MB
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


@dataclass(frozen=True)
class Ensemble:
    """B synthetic series plus the provenance needed to regenerate them.

    ``values`` is a read-only (B, n) float64 matrix; row b is member b.
    """

    values: np.ndarray
    method: str
    config: dict[str, Any]
    master_seed: int
    source_checksum: str

    def __post_init__(self):
        # a view, so that making it read-only leaves the caller's array as it was
        values = np.asarray(self.values, dtype=float).view()
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ConfigError("ensemble must contain at least one non-empty series")
        if not np.isfinite(values).all():
            raise ValidationError("ensemble contains NaN or infinite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def series(self) -> tuple[HourlySeries, ...]:
        """The members as series, copied from ``values`` on each access."""
        return tuple(HourlySeries(row) for row in self.values)

    @property
    def child_seeds(self) -> tuple[tuple[int, int], ...]:
        return tuple(child_seed(self.master_seed, b) for b in range(len(self)))

    def save(self, directory: str | Path) -> Path:
        """Write one CSV per member plus a JSON manifest with each member's sha256.

        Members are bootstrap draws from one source, so they share most of
        their values: rows are formatted in runs of about ``_RUN_VALUES``
        values, and each distinct value once per save.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        B, n = self.values.shape
        width = max(4, len(str(B - 1)))
        names = [f"series_{b:0{width}d}.csv" for b in range(B)]
        checksums = []
        reprs: dict[int, str] = {}
        step = max(1, _RUN_VALUES // n)
        for start in range(0, B, step):
            rows = self.values[start : start + step]
            for name, row, cells in zip(names[start : start + step], rows, _format_cells(rows, reprs).tolist()):
                (directory / name).write_bytes(_bare_body(cells))
                checksums.append(hashlib.sha256(row.tobytes()).hexdigest())
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
        """Read a saved ensemble, checking every member against its manifest
        checksum and against the length of the first.

        A member that is not a bare value column of finite floats is read by
        ``load_csv``, which reports what is wrong with it.
        """
        directory = Path(directory)
        manifest = _read_manifest(directory)
        files = manifest["series_files"]
        values = np.empty((len(files), 0))
        for b, (name, expected) in enumerate(zip(files, manifest["series_checksums"])):
            path = directory / name
            row = _bare_column(_read_text(path))
            if row is None:
                row = load_csv(path).values
            if hashlib.sha256(row.tobytes()).hexdigest() != expected:
                raise ChecksumMismatch(f"{path} does not match its manifest checksum")
            if b == 0:
                values = np.empty((len(files), row.size))
            elif row.size != values.shape[1]:
                raise LengthMismatch(f"{path} has {row.size} values, {files[0]} has {values.shape[1]}")
            values[b] = row
        return cls(
            values=values,
            method=manifest["method"],
            config=manifest["config"],
            master_seed=manifest["master_seed"],
            source_checksum=manifest["source_checksum"],
        )


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
        # a member is read as directory / name, so the name must not leave the directory
        if name in ("", ".", "..") or Path(name).name != name or any(c in name for c in "\\\0"):
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
    """Generate B series, each from its own child seed, as the rows of one matrix.

    ``generate_one(rng) -> np.ndarray`` returns one member of the source's
    length and must depend only on the supplied RNG, so results are
    independent of generation order. ``threads`` is accepted for
    compatibility and has no effect: a thread pool over the members was
    slower than one loop at 2 threads.
    """
    if B < 1:
        raise ConfigError(f"B must be >= 1, got {B}")
    values = np.empty((B, len(source)))
    for b in range(B):
        values[b] = generate_one(child_rng(master_seed, b))
    return Ensemble(
        values=values,
        method=method,
        config=config,
        master_seed=master_seed,
        source_checksum=source.checksum(),
    )
