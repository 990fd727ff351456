"""Symmetric block bootstrap.

Each point i carries a window of 1+2*sash observations centered on it
(circular at both ends). A pool of the p most similar windows is kept per
point; generation draws one pool member per point, uniformly by default,
and emits its focal (center) value.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .ensemble import Ensemble, run_batch
from .errors import InvalidSash, PTooLarge
from .kernels import ResamplingKernel, make_kernel
from .neighbors import Pools, embed, nearest_rows, sample
from .series import HourlySeries


def build_windows(source: HourlySeries, sash: int) -> np.ndarray:
    """(n, 1 + 2*sash) matrix whose row i is the window around point i; center column = source[i]."""
    n = len(source)
    if sash < 1 or 1 + 2 * sash > n:
        raise InvalidSash(f"sash {sash} invalid: need 1 <= sash and 1+2*sash <= {n}")
    return embed(source, np.arange(-sash, sash + 1))


def find_window_pools(windows: np.ndarray, p: int, include_self: bool = True) -> Pools:
    """Per point, the p window indices nearest its own window."""
    return nearest_rows(windows, p, include_self, too_large=PTooLarge)


def generate_sbb(
    source: HourlySeries,
    sash: int,
    p: int,
    include_self: bool = True,
    seed: int = 0,
    kernel: ResamplingKernel | str = "uniform",
) -> HourlySeries:
    """One synthetic series; uniform pool selection unless a kernel is given."""
    pools = find_window_pools(build_windows(source, sash), p, include_self)
    kernel = make_kernel(kernel, p)
    indices = sample(source, pools, kernel, np.random.default_rng(seed))
    return HourlySeries(source.values[indices], label=f"{source.label}_sbb")


def generate_sbb_batch(
    source: HourlySeries,
    sash: int,
    p: int,
    B: int,
    master_seed: int,
    include_self: bool = True,
    kernel: ResamplingKernel | str = "uniform",
    threads: int = 1,
) -> Ensemble:
    """B independent series; same child-seed scheme as the NNLB batch."""
    pools = find_window_pools(build_windows(source, sash), p, include_self)
    kernel = make_kernel(kernel, p)
    config = {"sash": sash, "p": p, "kernel": kernel.name, "include_self": include_self, "B": B}
    return run_batch(partial(sample, source, pools, kernel), source, "sbb", config, B, master_seed, threads=threads)
