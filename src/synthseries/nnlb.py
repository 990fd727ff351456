"""Nearest-neighbors lagged bootstrap.

Each point i is predicted from the k source points whose preceding-lag
vectors are closest (Euclidean) to the lag vector of i; a rank-weighted
kernel (harmonic by default) picks which neighbor's successor is emitted.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .ensemble import Ensemble, run_batch
from .errors import InvalidLag, KTooLarge
from .kernels import ResamplingKernel, make_kernel
from .neighbors import Pools, embed, nearest_rows, sample
from .series import HourlySeries


def build_lag_matrix(source: HourlySeries, lag: int) -> np.ndarray:
    """(n, lag) matrix whose row i holds the lag observations preceding point i, circularly."""
    n = len(source)
    if not 1 <= lag < n:
        raise InvalidLag(f"lag {lag} not in [1, {n - 1}]")
    return embed(source, np.arange(-lag, 0))


def find_neighbor_pools(lags: np.ndarray, k: int, include_self: bool = True) -> Pools:
    """Per point, the k source indices whose lag vectors are nearest its own;
    choosing ``indices[i, j]`` emits ``source[indices[i, j]]``."""
    return nearest_rows(lags, k, include_self, too_large=KTooLarge)


def generate_nnlb(
    source: HourlySeries,
    lag: int,
    k: int,
    kernel: ResamplingKernel | str = "harmonic",
    include_self: bool = True,
    seed: int = 0,
) -> HourlySeries:
    """One synthetic series; deterministic for a fixed seed."""
    pools = find_neighbor_pools(build_lag_matrix(source, lag), k, include_self)
    kernel = make_kernel(kernel, k)
    indices = sample(source, pools, kernel, np.random.default_rng(seed))
    return HourlySeries(source.values[indices], label=f"{source.label}_nnlb")


def generate_nnlb_batch(
    source: HourlySeries,
    lag: int,
    k: int,
    B: int,
    master_seed: int,
    kernel: ResamplingKernel | str = "harmonic",
    include_self: bool = True,
    threads: int = 1,
) -> Ensemble:
    """B independent series from per-series child seeds.

    Pools and kernel are precomputed once and shared read-only across the
    batch; series b is a pure function of (source, config, child seed b).
    """
    pools = find_neighbor_pools(build_lag_matrix(source, lag), k, include_self)
    kernel = make_kernel(kernel, k)
    config = {"lag": lag, "k": k, "kernel": kernel.name, "include_self": include_self, "B": B}
    return run_batch(partial(sample, source, pools, kernel), source, "nnlb", config, B, master_seed, threads=threads)
