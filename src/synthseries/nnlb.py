"""Nearest-neighbors lagged bootstrap.

Each point i is predicted from the k source points whose preceding-lag
vectors are closest (Euclidean) to the lag vector of i; a rank-weighted
kernel (harmonic by default) picks which neighbor's successor is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .ensemble import Ensemble, run_batch
from .errors import InvalidLag, KTooLarge
from .kernels import ResamplingKernel, harmonic_kernel
from .neighbors import nearest_rows
from .series import HourlySeries


@dataclass(frozen=True)
class LagMatrix:
    """Row i holds the lag observations preceding point i, circularly."""

    lag_vectors: np.ndarray  # (n, lag)
    lag: int


@dataclass(frozen=True)
class NeighborPools:
    """Per point, the source indices whose lag vectors are nearest its own.

    ``indices[i, j]`` is the source index of the (j+1)-th closest candidate
    successor for point i; the emitted value for that choice is
    ``source[indices[i, j]]``.
    """

    indices: np.ndarray  # (n, k) intp
    distances: np.ndarray  # (n, k)
    include_self: bool

    @property
    def k(self) -> int:
        return int(self.indices.shape[1])


def build_lag_matrix(source: HourlySeries, lag: int) -> LagMatrix:
    n = len(source)
    if not 1 <= lag < n:
        raise InvalidLag(f"lag {lag} not in [1, {n - 1}]")
    vals = source.values
    offsets = (np.arange(n)[:, None] - lag + np.arange(lag)[None, :]) % n
    return LagMatrix(vals[offsets], lag)


def find_neighbor_pools(lags: LagMatrix, k: int, include_self: bool = True) -> NeighborPools:
    idx, dist = nearest_rows(lags.lag_vectors, k, include_self, too_large=KTooLarge)
    return NeighborPools(idx, dist, include_self)


def _sample(source: HourlySeries, pools: NeighborPools, kernel: ResamplingKernel, rng: np.random.Generator) -> np.ndarray:
    n = len(source)
    ranks = rng.choice(pools.k, size=n, p=kernel.probabilities)
    return source.values[pools.indices[np.arange(n), ranks]]


def generate_nnlb(
    source: HourlySeries,
    lag: int,
    k: int,
    kernel: ResamplingKernel | None = None,
    include_self: bool = True,
    seed: int = 0,
    pools: NeighborPools | None = None,
) -> HourlySeries:
    """One synthetic series; deterministic for a fixed seed."""
    kernel = kernel or harmonic_kernel(k)
    if pools is None:
        pools = find_neighbor_pools(build_lag_matrix(source, lag), k, include_self)
    rng = np.random.default_rng(seed)
    return HourlySeries(_sample(source, pools, kernel, rng), label=f"{source.label}_nnlb")


def generate_nnlb_batch(
    source: HourlySeries,
    lag: int,
    k: int,
    B: int,
    master_seed: int,
    kernel: ResamplingKernel | None = None,
    include_self: bool = True,
    threads: int = 1,
) -> Ensemble:
    """B independent series from per-series child seeds.

    Pools and kernel are precomputed once and shared read-only across the
    batch; series b is a pure function of (source, config, child seed b).
    """
    kernel = kernel or harmonic_kernel(k)
    pools = find_neighbor_pools(build_lag_matrix(source, lag), k, include_self)
    config: dict[str, Any] = {
        "lag": lag,
        "k": k,
        "kernel": kernel.name,
        "include_self": include_self,
        "B": B,
    }
    return run_batch(
        lambda rng: _sample(source, pools, kernel, rng),
        source,
        "nnlb",
        config,
        B,
        master_seed,
        threads=threads,
    )

