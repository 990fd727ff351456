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

A row's pool is the first k of its candidates ordered by (distance, row
index), i.e. the first k entries of a stable sort of the row, without
sorting the row. Equal rows (the all-zero windows of solar nights, about
a third of a solar year) have byte-identical distance rows and so one
shared candidate order; only where the row itself sits in it differs.
Every row is sorted once by (row sum, row, index), in which equal rows
are adjacent runs. The search runs once per run, for its first row,
itself among its candidates, and selects one candidate more than a pool
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
sort, at the cost of one pass over the candidates measured.

Sampling reads only the pool indices, so the search keeps no (n, k)
distance matrix (7 MB on a year at k = 100): ``Pools`` holds the indices,
each row's k-th distance (``radii``) and the matrix searched, and
``Pools.distances`` recomputes the pool distances from that matrix when it
is read, with the same per-pair operations, so with the same bytes.

Most candidates cannot enter a pool, and row sums show which (Friedman,
Baskett & Shustek 1975): for rows a, b of width w,
|sum a - sum b| <= sqrt(w) |a - b|. The runs are searched in blocks of
``_BLOCK_ROWS`` in that order, so a block's own rows are one slice of it.
The block's rows share a window and are measured against it in slices of
rows whose distances fit in ``_BLOCK_VALUES`` values, and at least one row.
A slice is the unit of every pass below the block: its distances are summed
column by column in one pass and selected in one ``argpartition``, so the
values that exist at one time grow with neither the block height nor, past
one row, n. A block measures only a window, another slice of the order: the
rows whose sums lie within h of the block's, and at least 2 kk rows past its
own on either side, where kk is the number of candidates selected and h is
1.05 times the 90th percentile of the previous block's reaches. A row's reach is
sqrt(w) times its kk-th distance in the window, widened by what rounding
can do to the distances and to the sums (the relative error of a w-term
sum, the absolute error of squares flushed to zero, and the error of each
sum, bounded by the sum of absolute values). Every row at or within the
kk-th distance, a tie included, has a sum within reach, so a row whose
window holds every sum within reach is certified: the sums just outside
lie strictly beyond its sum plus or minus its reach. Its pool from the
window is its pool. The rows a block leaves uncertified are then measured
again, in the window widened to every sum within any of their reaches;
their kk-th distance there can only be smaller, so the widened window
certifies them all. Their pairs inside the first window are measured
twice: on the case-study searches that is about 5% more pairs and no time
beyond noise, and on inputs whose windows hold most rows (iid noise, lags
of a day) up to 10% more time. A window is taken in index order, so ties
still go to the lower index. A matrix with a sum, or a sum of absolute
values, that is not finite, where the bound gives nothing, has every row
measured in one window of all rows. A matrix with no columns is one run
of rows whose sums and distances are all 0, and its one window holds
every row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, KTooLarge, PTooLarge
from .kernels import ResamplingKernel
from .series import HourlySeries

# distinct rows per search block: the rows that share one window and one h
_BLOCK_ROWS = 128
# distances that exist at one time: a block measures its rows against its
# window in slices of as many rows as fit in this many values, and at least
# one. A slice's distances and their squares (512 KiB) stay in a 2 MiB L2
# cache; the tie closure's masks are as large as its distances. The working
# set then grows with neither the block height nor, past one row, n: the wind
# search (sash 4, p 100) traced 4.09 MB at n = 8760 and 9.46 MB at n = 26280,
# against 13.0 and 38.1 MB with a buffer of _BLOCK_ROWS rows of n. On the year
# wind search, untiled slices of 2**17 values took 27% longer than 1 MiB slices
# cut into tiles of 8 rows, and slices of 2**16 6% longer than 2**15
_BLOCK_VALUES = 1 << 15
_EPS = np.finfo(float).eps
# w * _UNDERFLOW bounds what squares flushed to zero, each below 2**-1075,
# take off sqrt(w) times a distance: sqrt(w) * sqrt(w * 2**-1075) < w * 2**-535
_UNDERFLOW = 2.0**-535


class Pools(NamedTuple):
    """Per row, the source indices of its k nearest rows, (n, k) in the dtype
    of ``index_dtype(n)``; each row's k-th distance, (n, 1) float64; and the
    float64 matrix that was searched, from which ``distances`` is rebuilt
    (the caller's own array when it was float64 already, not a copy)."""

    indices: np.ndarray
    radii: np.ndarray
    rows: np.ndarray

    @property
    def distances(self) -> np.ndarray:
        """(n, k) float64: per row, the distance to each pool entry, recomputed
        from ``rows`` with the search's own per-pair operations, so the bytes
        are the search's (sampling never reads them, so the search keeps none)."""
        out = np.zeros(self.indices.shape)
        sq = np.empty(self.indices.shape)
        # the search's errstate: a square that overflows is an infinite distance;
        # the sum starts at 0.0, which leaves the first square's bytes as they are
        with np.errstate(over="ignore", invalid="ignore"):
            for col in self.rows.T:
                # pool indices are in range; "clip" only spares take a buffered copy of sq
                np.take(col, self.indices, out=sq, mode="clip")
                np.subtract(col[:, None], sq, out=sq)
                np.multiply(sq, sq, out=sq)
                out += sq
            return np.sqrt(out, out=out)


def index_dtype(n: int) -> np.dtype:
    """The dtype of an index into n values: the narrowest unsigned integer
    that holds n - 1, uint16 while n <= 65536 and uint32 above."""
    return np.dtype(np.uint16 if n <= 1 << 16 else np.uint32)


def embed(source: HourlySeries, offsets: np.ndarray) -> np.ndarray:
    """(n, len(offsets)) matrix whose row i holds ``source[(i + o) % n]`` for each offset o."""
    n = len(source)
    return source.values[(np.arange(n)[:, None] + offsets) % n]


def _window_euclidean(queries: np.ndarray, candidates: np.ndarray, out: np.ndarray, sq: np.ndarray) -> None:
    """``out[r, c]`` = the distance from row ``queries[r]`` to column c of
    ``candidates`` (one matrix column per row, so (w, C)), as ``cdist`` sums
    it: per column in order, subtract, square and add; ``sq`` is scratch of
    ``out``'s shape. The sum starts at 0.0, which leaves the first square's
    bytes as they are, and stays 0.0 when there are no columns."""
    out.fill(0.0)
    for j in range(candidates.shape[0]):
        np.subtract(queries[:, j, None], candidates[j], out=sq)
        np.multiply(sq, sq, out=sq)
        np.add(out, sq, out=out)
    np.sqrt(out, out=out)


def _select(d: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``d``, the columns of its first ``kk`` entries in the order
    (value, column), and those values: the first ``kk`` of a stable sort."""
    cols = np.argpartition(d, kk - 1, axis=1)[:, :kk]
    kth = d[np.arange(d.shape[0]), cols[:, kk - 1]][:, None]
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
    # in column order, a stable sort of the values orders them by (value,
    # column) (on (128, 100) rows it took 0.09 ms, a lexsort of the pair 1.0 ms)
    cols.sort(axis=1)
    vals = np.take_along_axis(d, cols, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _measure(m: np.ndarray, rows: np.ndarray, candidates: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``rows``, its first ``kk`` matrix rows among ``candidates``
    in the order (distance, index), and their distances, measured in slices
    of as many rows as ``_BLOCK_VALUES`` holds distances to every candidate."""
    # the candidates in index order, so that ties still go to the lower index
    window = np.sort(candidates)
    # gathered row-wise and then transposed, so each column is contiguous (a
    # gather from m.T would be strided)
    columns = np.ascontiguousarray(m[window].T)
    step = max(1, _BLOCK_VALUES // window.size)
    d = np.empty((min(step, rows.size), window.size))
    sq = np.empty_like(d)
    cols = np.empty((rows.size, kk), dtype=np.intp)
    vals = np.empty((rows.size, kk))
    for r in range(0, rows.size, step):
        part = rows[r : r + step]
        _window_euclidean(m[part], columns, d[: part.size], sq[: part.size])
        cols[r : r + step], vals[r : r + step] = _select(d[: part.size], kk)
    return window[cols], vals


# a distance or a row sum that overflows is a result (an infinite distance, as
# cdist gives it, or sums that send the search to one window of all rows), not a fault
@np.errstate(over="ignore", invalid="ignore")
def nearest_rows(
    matrix: np.ndarray,
    k: int,
    include_self: bool,
    *,
    too_large: type[KTooLarge | PTooLarge] = KTooLarge,
) -> Pools:
    """Per row, the k nearest rows of ``matrix``.

    Returns ``Pools(indices, radii, rows)``: the indices shaped (n, k), each
    row sorted by non-decreasing distance with ties broken by smaller row
    index, each row's k-th distance, and the float64 matrix searched. When
    ``include_self`` the first entry of row i is i itself at distance 0.
    """
    m = np.asarray(matrix, dtype=float)
    n, w = m.shape
    limit = n if include_self else n - 1
    if k < 1 or k > limit:
        raise too_large(f"{too_large.key}={k} out of range [1, {limit}] for {n} rows (include_self={include_self})")

    sums = m.sum(axis=1)
    # a bound on how far a computed row sum can lie from the exact one
    slack = 4 * w * _EPS * np.abs(m).sum(axis=1)
    windowed = bool(np.isfinite(sums).all() and np.isfinite(slack).all())
    # every row by (sum, row, index): equal rows are runs, so the distinct rows
    # are runs [bounds[r], bounds[r + 1]) of it, and the rows whose sums lie in
    # an interval are one slice
    order = np.lexsort((*m.T[::-1], sums))
    new = np.concatenate(([True], (m[order[1:]] != m[order[:-1]]).any(axis=1)))
    bounds = np.append(np.flatnonzero(new), n)
    # per position in the order, the run it belongs to
    run = np.cumsum(new) - 1
    reps = order[bounds[:-1]]
    sorted_sums = sums[order]
    lead = int(include_self)
    # a row left out of its own pool needs one spare candidate
    kk = k + 1 - lead
    # column j of a pool comes from column j or j + 1 of the shared order
    j = np.arange(k - lead)

    indices = np.empty((n, k), dtype=index_dtype(n))
    radii = np.empty((n, 1))
    slack_max = slack.max(initial=0.0)
    h = 0.0
    for start in range(0, reps.size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, reps.size)
        rows = reps[start:stop]
        a, b = bounds[start], bounds[stop]
        s = sums[rows]
        if not windowed:
            cols, vals = _measure(m, rows, order, kk)
        else:
            # the block's sums widened by h, and by at least 2 kk rows on either side
            lo = max(0, min(np.searchsorted(sorted_sums, s.min() - h), a - 2 * kk))
            hi = min(n, max(np.searchsorted(sorted_sums, s.max() + h, "right"), b + 2 * kk))
            cols, vals = _measure(m, rows, order[lo:hi], kk)
            # |sum a - sum b| <= sqrt(w) |a - b|, so every row within the kk-th
            # distance, ties included, has a sum within reach of s; the reach
            # is widened by the rounding of distances and sums
            reach = np.sqrt(w) * vals[:, kk - 1] * (1 + 4 * (w + 2) * _EPS) + (
                slack[rows] + slack_max + w * _UNDERFLOW)
            h = 1.05 * np.quantile(reach, 0.9, method="higher")
            left = np.zeros(rows.size, dtype=bool)
            if lo:
                left |= sorted_sums[lo - 1] >= s - reach
            if hi < n:
                left |= sorted_sums[hi] <= s + reach
            if left.any():
                # the uncertified rows are measured again in the window widened
                # to every sum any of them can reach, which certifies them all
                lo2 = min(lo, np.searchsorted(sorted_sums, (s - reach)[left].min()))
                hi2 = max(hi, np.searchsorted(sorted_sums, (s + reach)[left].max(), "right"))
                cols[left], vals[left] = _measure(m, rows[left], order[lo2:hi2], kk)

        # a member and every entry before it in the shared order are at
        # distance 0, so moving it to the front or leaving it out keeps the
        # distances in place: a pool's are the shared ones from column 1 - lead
        own = order[a:b]
        group = run[a:b] - start
        radii[own, 0] = vals[group, k - lead]
        # the shared order skips a member from where the member itself stands
        shared = cols[group]
        past_self = np.cumsum(shared == own[:, None], axis=1)[:, : k - lead]
        indices[own, lead:] = np.take_along_axis(shared, j + past_self, axis=1)
        if include_self:
            indices[own, 0] = own
    return Pools(indices, radii, m)


def sample(source: HourlySeries, pools: Pools, kernel: ResamplingKernel, rng: np.random.Generator) -> np.ndarray:
    """One member as source indices, in the pools' dtype: per point a pool rank
    drawn from ``kernel``, and the neighbour at that rank; ``source.values`` at
    them is the member."""
    n, k = len(source), pools.indices.shape[1]
    if kernel.k != k:
        raise ConfigError(f"kernel has {kernel.k} ranks but the pools hold {k} neighbours per point")
    flat = kernel.ranks(rng, n)
    flat += np.arange(0, n * k, k)
    return pools.indices.ravel()[flat]
