"""Exact k-nearest-row search over a feature matrix.

Shared by the lag-vector and window resamplers. Distances are Euclidean,
computed blockwise with ``cdist`` so an 8760-row year never materializes
the full n x n matrix at once.

A row's pool is the first k of its candidates ordered by (distance, row
index), i.e. the first k entries of a stable sort of the row, without
sorting the row. ``argpartition`` at k finds the k-th smallest distance.
When exactly k candidates lie at or inside it, they are the pool. When
more do (a tie at the pool boundary, e.g. the all-zero windows of solar
nights), partition picks among the equal ones arbitrarily, so the pool is
rebuilt as every candidate strictly closer plus the lowest-index candidates
at exactly the k-th distance. ``lexsort`` then orders the k entries by
(distance, index). The pool indices and the ``cdist`` distance bytes are
therefore exactly those of the full stable sort, at O(n) per row.

With ``include_self`` a row's own distance is set to -1 before selection,
so self leads its pool even among exact duplicates; it is reported as 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# rows per distance block; a block holds a few (rows, n) temporaries (the
# distances, the partition, the tie-closure masks), so this bounds peak memory
_BLOCK_ROWS = 128


def nearest_rows(
    matrix: np.ndarray,
    k: int,
    include_self: bool,
    *,
    too_large: type[ConfigError] = ConfigError,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the k nearest rows of ``matrix`` and their distances.

    Returns ``(indices, distances)``, both shaped (n, k), each row sorted by
    non-decreasing distance with ties broken by smaller row index. When
    ``include_self`` the first entry of row i is i itself at distance 0.
    """
    # imported here so that the commands that never search do not load scipy
    from scipy.spatial.distance import cdist

    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    limit = n if include_self else n - 1
    if k < 1 or k > limit:
        raise too_large(f"k={k} out of range [1, {limit}] for {n} rows (include_self={include_self})")

    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k), dtype=float)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = np.arange(stop - start)
        d = cdist(m[start:stop], m)
        # self sorts first when included and is never chosen otherwise
        d[rows, rows + start] = -1.0 if include_self else np.inf
        cols = np.argpartition(d, k - 1, axis=1)[:, :k].copy()
        kth = d[rows, cols[:, k - 1]][:, None]
        # rows with more than k candidates within the k-th distance, where
        # partition chose among the equal ones arbitrarily: keep every closer
        # candidate plus the lowest-index ones at exactly the k-th distance
        tied = np.flatnonzero(np.count_nonzero(d <= kth, axis=1) > k)
        if tied.size:
            dt, kt = d[tied], kth[tied]
            closer = dt < kt
            at = dt == kt
            room = k - np.count_nonzero(closer, axis=1)[:, None]
            keep = closer | (at & (np.cumsum(at, axis=1, dtype=np.int32) <= room))
            cols[tied] = np.nonzero(keep)[1].reshape(tied.size, k)
        vals = np.take_along_axis(d, cols, axis=1)
        order = np.lexsort((cols, vals))
        indices[start:stop] = np.take_along_axis(cols, order, axis=1)
        distances[start:stop] = np.take_along_axis(vals, order, axis=1)
    if include_self:
        distances[:, 0] = 0.0
    return indices, distances
