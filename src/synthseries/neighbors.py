"""The k-nearest-neighbour bootstrap shared by NNLB and SBB, which differ
only in the embedding offsets, the default kernel and their error classes:
``embed`` the source at the offsets, find each row's k nearest rows
(``nearest_rows``) and ``sample`` members from those pools by a rank kernel.

Distances are Euclidean, computed blockwise so an 8760-row year never
materializes the full n x n matrix at once, and bit-identical to scipy's
``cdist``: per pair, the
squared column differences ``(a_j - b_j) * (a_j - b_j)`` are added one
column at a time, in column order, and the sum goes through ``np.sqrt``.
That is the order of scipy's euclidean loop, and numpy never fuses the
separate multiply and add, so the bytes do not depend on how numpy was
built. The usual faster forms change the bytes, and with them the pools:
the BLAS expansion ||a||^2 + ||b||^2 - 2 a.b rounds differently, and a
``.sum(axis=-1)`` over contiguous rows adds pairwise from 8 columns on
(the 9-column windows of sash 4).

A row's pool is the first k of its candidates ordered by (distance, row
index), i.e. the first k entries of a stable sort of the row, without
sorting the row. Equal rows (the all-zero windows of solar nights, about
a third of a solar year) have byte-identical distance rows and so one
shared candidate order; only where the row itself sits in it differs.
The search therefore runs once per distinct row (``np.unique``), against
all n rows, itself included, and selects one candidate more than a pool
holds when the row itself is to be left out.

``argpartition`` finds the boundary distance of that selection. When
exactly as many candidates lie at or inside it, they are the selection.
When more do (a tie at the boundary), partition picks among the equal ones
arbitrarily, so the selection is rebuilt as every candidate strictly closer
plus the lowest-index candidates at exactly the boundary distance.
``lexsort`` then orders it by (distance, index). Each original row takes
the shared order of its distinct row without itself, and with
``include_self`` puts itself first, at distance 0. The pool indices and the
distance bytes are therefore exactly those of the full stable
sort, at O(n) per distinct row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .kernels import ResamplingKernel
from .series import HourlySeries

# distinct rows per distance block; a block holds a few (rows, n) temporaries
# (the distances, the partition, the tie-closure masks), so this bounds peak memory
_BLOCK_ROWS = 128
# block rows per distance pass; a tile and its scratch stay in cache for all
# the columns (at n = 8760, 4 to 16 rows were alike and whole blocks slower)
_TILE_ROWS = 8


class Pools(NamedTuple):
    """Per row, the source indices of its k nearest rows and their distances, both (n, k)."""

    indices: np.ndarray
    distances: np.ndarray


def embed(source: HourlySeries, offsets: np.ndarray) -> np.ndarray:
    """(n, len(offsets)) matrix whose row i holds ``source[(i + o) % n]`` for each offset o."""
    n = len(source)
    return source.values[(np.arange(n)[:, None] + offsets) % n]


def _euclidean(rows: np.ndarray, columns: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """``out[i, t]`` = the distance from ``rows[i]`` to ``columns[:, t]``, as ``cdist`` sums it.

    ``columns`` is the transposed matrix, C-contiguous; ``scratch`` holds
    ``_TILE_ROWS`` rows as long as ``out``'s.
    """
    if not columns.shape[0]:
        out.fill(0.0)
        return
    for r in range(0, rows.shape[0], _TILE_ROWS):
        acc = out[r : r + _TILE_ROWS]
        tile = rows[r : r + _TILE_ROWS]
        sq = scratch[: acc.shape[0]]
        np.subtract(tile[:, :1], columns[0], out=acc)
        np.multiply(acc, acc, out=acc)
        for j in range(1, columns.shape[0]):
            np.subtract(tile[:, j : j + 1], columns[j], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(acc, sq, out=acc)
        np.sqrt(acc, out=acc)


def nearest_rows(
    matrix: np.ndarray,
    k: int,
    include_self: bool,
    *,
    too_large: type[ConfigError] = ConfigError,
) -> Pools:
    """Per row, the k nearest rows of ``matrix`` and their distances.

    Returns ``Pools(indices, distances)``, both shaped (n, k), each row sorted by
    non-decreasing distance with ties broken by smaller row index. When
    ``include_self`` the first entry of row i is i itself at distance 0.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    limit = n if include_self else n - 1
    if k < 1 or k > limit:
        raise too_large(f"k={k} out of range [1, {limit}] for {n} rows (include_self={include_self})")

    distinct, inverse = np.unique(m, axis=0, return_inverse=True)
    inverse = inverse.reshape(n)
    # the original rows of distinct rows [a, b) are members[first[a]:first[b]]
    members = np.argsort(inverse)
    first = np.concatenate(([0], np.cumsum(np.bincount(inverse))))
    lead = int(include_self)
    # a row left out of its own pool needs one spare candidate
    kk = k + 1 - lead
    # column j of a pool comes from column j or j + 1 of the shared order
    j = np.arange(k - lead)

    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k), dtype=float)
    columns = np.ascontiguousarray(m.T)
    block = np.empty((min(_BLOCK_ROWS, distinct.shape[0]), n))
    scratch = np.empty((_TILE_ROWS, n))
    for start in range(0, distinct.shape[0], _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, distinct.shape[0])
        rows = np.arange(stop - start)
        d = block[: stop - start]
        _euclidean(distinct[start:stop], columns, d, scratch)
        cols = np.argpartition(d, kk - 1, axis=1)[:, :kk].copy()
        kth = d[rows, cols[:, kk - 1]][:, None]
        # rows with more than kk candidates within the kk-th distance, where
        # partition chose among the equal ones arbitrarily: keep every closer
        # candidate plus the lowest-index ones at exactly the kk-th distance
        tied = np.flatnonzero(np.count_nonzero(d <= kth, axis=1) > kk)
        if tied.size:
            dt, kt = d[tied], kth[tied]
            closer = dt < kt
            at = dt == kt
            room = kk - np.count_nonzero(closer, axis=1)[:, None]
            keep = closer | (at & (np.cumsum(at, axis=1, dtype=np.int32) <= room))
            cols[tied] = np.nonzero(keep)[1].reshape(tied.size, kk)
        vals = np.take_along_axis(d, cols, axis=1)
        order = np.lexsort((cols, vals))
        cols = np.take_along_axis(cols, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)

        # a member and every entry before it in the shared order are at
        # distance 0, so moving it to the front or leaving it out keeps the
        # distances in place: a pool's are the shared ones from column 1 - lead
        own = members[first[start]:first[stop]]
        group = inverse[own] - start
        distances[own] = vals[group, 1 - lead : 1 - lead + k]
        # the shared order skips a member from where the member itself stands
        shared = cols[group]
        past_self = np.cumsum(shared == own[:, None], axis=1)[:, : k - lead]
        indices[own, lead:] = np.take_along_axis(shared, j + past_self, axis=1)
        if include_self:
            indices[own, 0] = own
    return Pools(indices, distances)


def sample(source: HourlySeries, pools: Pools, kernel: ResamplingKernel, rng: np.random.Generator) -> np.ndarray:
    """One member: per point a pool rank drawn from ``kernel``, and the source value at that neighbour."""
    n, k = len(source), pools.indices.shape[1]
    if kernel.k != k:
        raise ConfigError(f"kernel has {kernel.k} ranks but the pools hold {k} neighbours per point")
    ranks = rng.choice(k, size=n, p=kernel.probabilities)
    return source.values[pools.indices[np.arange(n), ranks]]
