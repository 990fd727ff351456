"""The k-nearest-neighbour bootstrap shared by NNLB and SBB, which differ
only in the embedding offsets, the default kernel and their error classes:
``embed`` the source at the offsets, find each row's k nearest rows
(``nearest_rows``) and ``sample`` members from those pools by a rank kernel.

Distances are Euclidean, computed blockwise so an 8760-row year never
materializes the full n x n matrix at once, and bit-identical to scipy's
``cdist``: per pair, the squared column differences ``(a_j - b_j) * (a_j -
b_j)`` are added one column at a time, in column order, and the sum goes
through ``np.sqrt``. That is the order of scipy's euclidean loop, and numpy
never fuses the separate multiply and add, so the bytes do not depend on how
numpy was built. The usual faster forms change the bytes, and with them the
pools: the BLAS expansion ||a||^2 + ||b||^2 - 2 a.b rounds differently, a
``.sum(axis=-1)`` over contiguous rows adds pairwise from 8 columns on (the
9-column windows of sash 4), and the running sum of matrix-profile
algorithms adds in another order.

An embedding repeats its terms: column j of row i is column j - 1 of row
i + 1 (mod n), so the term of column j for rows (i, t) is the term of
column j - 1 for rows (i + 1, t + 1). For each run of columns so shifted
(all w columns of an ``embed``; one column each in an arbitrary matrix) and
each tile of consecutive rows, the squared differences of the run's first
column are computed once, into one table, and every column of the run reads
its terms from that table as a shifted view. Each term keeps its two
operands (up to the sign of a zero, which squaring drops), its subtract and
multiply, and its place in the column-order sum, so the bytes stay those of
``cdist``.

A row's pool is the first k of its candidates ordered by (distance, row
index), i.e. the first k entries of a stable sort of the row, without
sorting the row. Equal rows (the all-zero windows of solar nights, about
a third of a solar year) have byte-identical distance rows and so one
shared candidate order; only where the row itself sits in it differs.
The search therefore runs once per distinct row (``np.unique``, taken in
order of first appearance, from that first row), against all n rows,
itself included, and selects one candidate more than a pool
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
# consecutive rows per distance pass: the pass builds one table of squared
# differences per run of shifted columns, _TILE_ROWS + run width - 1 rows tall,
# and adds the run's columns from it; at n = 8760, tiles of 16 to 64 rows
# were slower, as was splitting the candidate axis
_TILE_ROWS = 8


class Pools(NamedTuple):
    """Per row, the source indices of its k nearest rows and their distances, both (n, k)."""

    indices: np.ndarray
    distances: np.ndarray


def embed(source: HourlySeries, offsets: np.ndarray) -> np.ndarray:
    """(n, len(offsets)) matrix whose row i holds ``source[(i + o) % n]`` for each offset o."""
    n = len(source)
    return source.values[(np.arange(n)[:, None] + offsets) % n]


def _distinct_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first matrix row of each distinct row, increasing, and per row the
    position of its distinct row among them.

    In order of first appearance, consecutive distinct rows are mostly
    consecutive matrix rows, which ``_euclidean`` tiles together.
    """
    _, first, inverse = np.unique(m, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(m.shape[0])]


def _shift_runs(m: np.ndarray) -> list[tuple[int, int]]:
    """The maximal runs ``(b, L)`` of columns b .. b + L - 1 of ``m`` in which
    each column equals the one before it moved up a row, ``np.roll(m[:, j - 1], -1)``."""
    if not m.shape[1]:
        return []
    shifted = np.all(m[:, 1:] == np.roll(m[:, :-1], -1, axis=0), axis=0)
    starts = [0, *(np.flatnonzero(~shifted) + 1).tolist(), m.shape[1]]
    return [(b, e - b) for b, e in zip(starts, starts[1:])]


def _euclidean(
    wrapped: np.ndarray, runs: list[tuple[int, int]], rows: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """``out[r, t]`` = the distance from matrix row ``rows[r]`` to row t, as ``cdist`` sums it.

    ``wrapped[j, v]`` is ``m[v % n, j]`` for v < n + w - 1, C-contiguous;
    ``runs`` are ``_shift_runs(m)``, ``rows`` increase, and ``scratch`` holds
    a table for ``_TILE_ROWS`` rows and the widest run.
    """
    n = out.shape[1]
    if not runs:
        out.fill(0.0)
        return
    r = 0
    while r < rows.size:
        # the longest stretch of consecutive matrix rows, up to _TILE_ROWS
        i = rows[r]
        span = rows[r : r + _TILE_ROWS] - i
        t = int(np.count_nonzero(span == np.arange(span.size)))
        acc = out[r : r + t]
        for b, width in runs:
            # sq[u, v] = (m[i + u, b] - m[v, b])**2, all indices mod n; the term
            # of column b + q for rows (i + p, v) is sq[p + q, v + q]
            h, wide = t + width - 1, n + width - 1
            sq = scratch[: h * wide].reshape(h, wide)
            np.subtract(wrapped[b, i : i + h, None], wrapped[b, :wide], out=sq)
            np.multiply(sq, sq, out=sq)
            for q in range(width):
                term = sq[q : q + t, q : q + n]
                if b + q:
                    np.add(acc, term, out=acc)
                else:
                    np.copyto(acc, term)
        np.sqrt(acc, out=acc)
        r += t


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

    reps, inverse = _distinct_rows(m)
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
    w = m.shape[1]
    runs = _shift_runs(m)
    wrapped = np.ascontiguousarray(m[np.arange(n + w - 1) % n].T)
    widest = max((width for _, width in runs), default=1)
    scratch = np.empty((_TILE_ROWS + widest - 1) * (n + widest - 1))
    block = np.empty((min(_BLOCK_ROWS, reps.size), n))
    for start in range(0, reps.size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, reps.size)
        rows = np.arange(stop - start)
        d = block[: stop - start]
        _euclidean(wrapped, runs, reps[start:stop], d, scratch)
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
