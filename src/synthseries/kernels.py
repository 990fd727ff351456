"""Resampling kernels: probability mass over neighbor ranks 1..k."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# ranks are drawn through a guide table over 2^12 or more equal buckets of
# [0, 1) (Chen & Asau 1974): a draw in bucket j starts at the least rank any
# draw there can take and steps past the CDF points inside the bucket
_MIN_BUCKETS = 1 << 12


@dataclass(frozen=True, eq=False)
class ResamplingKernel:
    """Probabilities over ranks j = 1..k (index 0 is the nearest neighbor).
    Equality and hashing are by identity."""

    probabilities: np.ndarray
    name: str = "custom"
    _cdf: np.ndarray = field(init=False, repr=False)
    _guide: np.ndarray = field(init=False, repr=False)
    _steps: int = field(init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        # NaN compares false with 0, so finiteness is checked too
        if p.ndim != 1 or p.size < 1 or not np.all(np.isfinite(p) & (p >= 0)):
            raise ConfigError("kernel probabilities must be a finite, non-negative 1-D vector")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ConfigError(f"kernel probabilities sum to {p.sum()!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        # Generator.choice's CDF, scaled so that its last point is exactly 1
        cdf = p.cumsum()
        cdf /= cdf[-1]
        # a power of two at least 4k, so that a harmonic kernel puts at most 3
        # CDF points in one bucket for any k up to 10^5 and a uniform one 1;
        # custom masses that crowd more points into a bucket take more steps
        buckets = max(_MIN_BUCKETS, 1 << (4 * p.size - 1).bit_length())
        # guide[j] counts the CDF points at or below j / buckets
        guide = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_guide", guide[:-1])
        # the most CDF points in one bucket
        object.__setattr__(self, "_steps", int(np.diff(guide).max()))

    @property
    def k(self) -> int:
        return int(self.probabilities.size)

    def ranks(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n ranks drawn from the kernel: ``rng.choice(k, size=n, p=probabilities)``
        from the same ``rng.random(n)``, each the number of CDF points at or below its draw."""
        u = rng.random(n)
        # u times a power of two is exact, so a draw in bucket j has
        # j / buckets <= u and starts at guide[j], at most _steps below its
        # rank; a step moves it past a CDF point at or below u and stops it at
        # the first one above
        r = self._guide[(u * self._guide.size).astype(np.intp)]
        for _ in range(self._steps):
            r += self._cdf[r] <= u
        return r


def harmonic_kernel(k: int) -> ResamplingKernel:
    """Mass (1/j) / H_k on rank j, H_k the k-th harmonic number."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    j = np.arange(1, k + 1, dtype=float)
    w = 1.0 / j
    return ResamplingKernel(w / w.sum(), name="harmonic")


def uniform_kernel(k: int) -> ResamplingKernel:
    """Equal mass 1/k on every rank."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return ResamplingKernel(np.full(k, 1.0 / k), name="uniform")


def make_kernel(kernel: ResamplingKernel | str, k: int) -> ResamplingKernel:
    """A kernel given as itself, or one of k ranks by name. A generator calls this
    once its search has accepted k, so that search errors come before kernel errors."""
    if isinstance(kernel, ResamplingKernel):
        return kernel
    if kernel == "harmonic":
        return harmonic_kernel(k)
    if kernel == "uniform":
        return uniform_kernel(k)
    raise ConfigError(f"unknown kernel {kernel!r} (choose harmonic or uniform)")
