"""Golden checksums of year-length neighbour pools.

The digests were recorded with the full stable-sort search that the
partitioned search replaced, for the pool configurations of the case study
on an 8760-hour in-process fixture. Any change to a pool index or to a
distance byte at year length fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from synthseries.nnlb import build_lag_matrix, find_neighbor_pools
from synthseries.sbb import build_windows, find_window_pools

from .series_fixtures import solar_like, wind_like

YEAR = 8760

GOLDEN = {
    "solar_sbb_sash2_p20": "bb1f35d550a0080b45f720ba2b56d15f7a8e014f2517c79b9bb9ed3474eebd4d",
    "wind_sbb_sash4_p100": "04b0331abc39c9911ebd0b28d396c13db1f4ec34662a8404ba73bafd86d2588e",
    "solar_nnlb_lag5_k20": "eb915cb238fa5ea87b8192dcb7848336da90f6d0e2db15ddd52bec0cec49af68",
}


def _pools(name: str):
    if name == "solar_sbb_sash2_p20":
        return find_window_pools(build_windows(solar_like(YEAR, 2025), 2), 20)
    if name == "wind_sbb_sash4_p100":
        return find_window_pools(build_windows(wind_like(YEAR, 2026), 4), 100)
    return find_neighbor_pools(build_lag_matrix(solar_like(YEAR, 2025), 5), 20)


def pool_digest(indices: np.ndarray, distances: np.ndarray) -> str:
    """sha256 of the little-endian int64 indices followed by the float64 distances."""
    return hashlib.sha256(indices.astype("<i8").tobytes() + distances.astype("<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_year_pools_match_golden_digest(name):
    pools = _pools(name)
    assert pool_digest(pools.indices, pools.distances) == GOLDEN[name]
