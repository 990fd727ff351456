"""In-process synthetic series of any length, for tests that need more than
the bundled 1440-hour CSVs, and the pool sizes the cross-block neighbour
tests run.

Values are whole numbers, so every Euclidean distance between two windows
is the correctly rounded square root of an exactly summed integer: the
distance bytes do not depend on the order in which a distance routine adds
its terms. Solar nights are exact zeros, which gives the exact distance
ties that pool construction has to break.
"""

from __future__ import annotations

import numpy as np

from synthseries import neighbors
from synthseries.series import HourlySeries

# fraction of the daily peak, hours 0..23; zero outside 06:00-17:00
_SOLAR_SHAPE = np.array(
    [0, 0, 0, 0, 0, 0, 0.05, 0.25, 0.5, 0.7, 0.87, 0.97, 1.0, 0.97, 0.87, 0.7, 0.5, 0.25, 0, 0, 0, 0, 0, 0]
)


def solar_like(n: int, seed: int) -> HourlySeries:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    shape = _SOLAR_SHAPE[t % 24]
    day = t // 24
    season = 800.0 + 300.0 * (1.0 - np.abs((day % 360) / 180.0 - 1.0))  # triangle wave, period 360 days
    level = np.clip(season + rng.normal(0, 60, n), 0.0, None)
    vals = np.rint(shape * level * (1.0 + rng.normal(0, 0.08, n)))
    vals[shape == 0] = 0.0
    return HourlySeries(np.clip(vals, 0.0, None), label="solar")


def wind_like(n: int, seed: int) -> HourlySeries:
    rng = np.random.default_rng(seed)
    eps = rng.normal(0, 0.35, n)
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = 0.92 * x[i - 1] + eps[i]
    return HourlySeries(np.rint(np.clip(3000.0 + 1500.0 * x, 50.0, None)), label="wind")


# pool sizes for the cross-block oracle tests: a single neighbour, a usual
# pool, a pool ending one short of and exactly at the end of the group of
# all-zero night rows (ties at the k-th distance), and the largest k allowed
POOL_CASES = ["one", "usual", "inside_zero_group", "end_of_zero_group", "limit"]


def pool_size(case: str, matrix: np.ndarray, include_self: bool) -> int:
    n = matrix.shape[0]
    zero_group = int(np.count_nonzero(~matrix.any(axis=1))) - (0 if include_self else 1)
    return {
        "one": 1,
        "usual": 20,
        "inside_zero_group": zero_group - 1,
        "end_of_zero_group": zero_group,
        "limit": n if include_self else n - 1,
    }[case]


def spans_blocks_with_nights(matrix: np.ndarray) -> bool:
    """The distinct rows fill more than two search blocks, and the all-zero
    night row stands for more rows than a block, spread over the matrix."""
    block = neighbors._BLOCK_ROWS
    night = np.flatnonzero(~matrix.any(axis=1))
    return (
        np.unique(matrix, axis=0).shape[0] > 2 * block
        and night.size > block
        and night[-1] - night[0] > matrix.shape[0] // 2
    )
