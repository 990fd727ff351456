"""Independent brute-force reference implementations.

Pure-Python, loop-based, deliberately sharing no code with the package:
these are the oracles the fast paths are checked against. Two numpy
references are kept so that floats can be compared byte for byte:
``stable_sort_pools``, the full-sort neighbour search, and
``padded_chunk_sums`` / ``series_exceedance``, the per-series block sums
through a wrap-padded copy and the exceedance taken from them.
``csv_writer_text`` and ``csv_reader_load`` write and read a series file row
by row through the ``csv`` module, for ``series.write_csv`` and
``series.load_csv`` and for the ensemble's member codec to match; the reader
raises the package's ingestion errors, which are part of the contract.
"""

from __future__ import annotations

import csv
import io
import math
from math import ceil
from pathlib import Path


def brute_lag_matrix(values, lag):
    n = len(values)
    return [[values[(i - lag + j) % n] for j in range(lag)] for i in range(n)]


def brute_window_matrix(values, sash):
    n = len(values)
    return [[values[(i + j) % n] for j in range(-sash, sash + 1)] for i in range(n)]


def brute_pools(matrix, k, include_self):
    """k nearest rows per row; self pinned first when included, then ties
    broken by ascending index."""
    n = len(matrix)
    idx_out, dist_out = [], []
    for i in range(n):
        cands = []
        for t in range(n):
            if not include_self and t == i:
                continue
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(matrix[i], matrix[t])))
            if include_self and t == i:
                d = 0.0
            cands.append((d, t))
        if include_self:
            cands.sort(key=lambda c: (c[1] != i, c[0], c[1]))
        else:
            cands.sort(key=lambda c: (c[0], c[1]))
        sel = cands[:k]
        idx_out.append([t for _, t in sel])
        dist_out.append([d for d, _ in sel])
    return idx_out, dist_out


def brute_chunk_sums(values, length):
    n = len(values)
    m = ceil(n / length)
    padded = list(values) + list(values[: m * length - n])
    return [sum(padded[i * length : (i + 1) * length]) for i in range(m)]


def brute_exceedance(original, synthetic, length, kind, param, direction):
    """(sum, count) of chunk deficits (direction='under') or surpluses."""
    orig = brute_chunk_sums(original, length)
    synth = brute_chunk_sums(synthetic, length)
    total, count = 0.0, 0
    for o, s in zip(orig, synth):
        gap = (o - s) if direction == "under" else (s - o)
        e = param if kind == "absolute" else param * o
        if gap >= e:
            total += gap
            count += 1
    return total, count


def padded_chunk_sums(values, length):
    """Block sums of one series: a wrap-padded copy reshaped to (blocks, length)
    and summed along axis 1."""
    import numpy as np

    vals = np.asarray(values, dtype=float)
    n = vals.size
    m = ceil(n / length)
    flat = np.concatenate([vals, vals[: m * length - n]])
    return flat.reshape(m, length).sum(axis=1)


def series_exceedance(original, synthetic, length, kind, param, direction):
    """(total, count) of one series' chunk deficits (direction='under') or
    surpluses that meet the threshold; the total sums the compacted hits."""
    import numpy as np

    orig = padded_chunk_sums(original, length)
    synth = padded_chunk_sums(synthetic, length)
    gap = orig - synth if direction == "under" else synth - orig
    e = np.full_like(orig, param) if kind == "absolute" else param * orig
    hit = gap >= e
    return float(gap[hit].sum()), int(hit.sum())


def brute_altered_difference(high, low, alpha, delta_nonneg, result_nonneg):
    out = []
    for x, y in zip(high, low):
        d = x - y
        if delta_nonneg and d < 0:
            d = 0.0
        r = y - alpha * d
        if result_nonneg and r < 0:
            r = 0.0
        out.append(r)
    return out


def bisect_norm_ppf(p, tol=1e-12):
    """Invert the standard-normal CDF by bisection on erf."""

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stable_sort_pools(matrix, k, include_self):
    """Pools by a full stable sort of every row: the plain numpy search the
    partitioned one must reproduce byte for byte (same ``cdist`` distances,
    ties by ascending index, self moved to the front when included)."""
    import numpy as np
    from scipy.spatial.distance import cdist

    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    d = cdist(m, m)
    d[np.arange(n), np.arange(n)] = 0.0 if include_self else np.inf
    # left out, a row sorts after every other candidate, also those at inf
    order = np.lexsort((np.eye(n, dtype=bool) & (not include_self), d))[:, :k]
    indices = order.copy()
    distances = np.take_along_axis(d, order, axis=1)
    if include_self:
        for i in range(n):
            if indices[i, 0] != i:
                pos = np.nonzero(indices[i] == i)[0]
                # self tied out of the first k: it displaces the last entry
                j = int(pos[0]) if pos.size else k - 1
                indices[i, 1 : j + 1] = indices[i, 0:j].copy()
                indices[i, 0] = i
                distances[i, 1 : j + 1] = distances[i, 0:j].copy()
                distances[i, 0] = 0.0
    return indices, distances


def csv_writer_text(values, timestamps=None):
    """A series file as ``csv.writer`` writes it, one ``repr(float(v))`` row at a time."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    if timestamps is not None:
        writer.writerow(["timestamp", "value"])
        for ts, v in zip(timestamps, values):
            writer.writerow([ts, repr(float(v))])
    else:
        writer.writerow(["value"])
        for v in values:
            writer.writerow([repr(float(v))])
    return fh.getvalue()


def csv_reader_load(path, value_column="value", timestamp_column=None, label=""):
    """``(values, label, timestamps)`` read through ``csv.reader`` row by row."""
    from synthseries.errors import EmptyFile, MissingColumn, UnparseableValue

    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(str(path))
        header = [h.strip() for h in header]
        if value_column not in header:
            raise MissingColumn(f"{path}: no column {value_column!r} in {header}")
        if timestamp_column is not None and timestamp_column not in header:
            raise MissingColumn(f"{path}: no column {timestamp_column!r}")
        vcol = header.index(value_column)
        tcol = header.index(timestamp_column) if timestamp_column is not None else None
        values, stamps = [], []
        for rownum, row in enumerate(reader, start=1):
            raw = row[vcol].strip() if vcol < len(row) else ""
            if not raw:
                raise UnparseableValue(rownum, "blank cell")
            try:
                v = float(raw)
            except ValueError:
                raise UnparseableValue(rownum, raw) from None
            if not math.isfinite(v):
                raise UnparseableValue(rownum, raw)
            values.append(v)
            if tcol is not None:
                stamps.append(row[tcol] if tcol < len(row) else "")
    if not values:
        raise EmptyFile(str(path))
    return values, label or path.stem, tuple(stamps) if stamps else None
