from __future__ import annotations

import numpy as np
import pytest

from synthseries.errors import ConfigError
from synthseries.kernels import ResamplingKernel, harmonic_kernel, make_kernel, uniform_kernel
from synthseries.neighbors import Pools, sample
from synthseries.series import HourlySeries


def test_single_mass_point():
    assert harmonic_kernel(1).probabilities.tolist() == [1.0]


def test_k3_exact():
    np.testing.assert_allclose(harmonic_kernel(3).probabilities, [6 / 11, 3 / 11, 2 / 11], rtol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 5, 20, 100, 1000])
def test_normalized_and_strictly_decreasing(k):
    p = harmonic_kernel(k).probabilities
    assert abs(p.sum() - 1.0) <= 1e-12
    assert (np.diff(p) < 0).all() or k == 1


def test_uniform():
    p = uniform_kernel(4).probabilities
    assert p.tolist() == [0.25] * 4


def test_make_kernel():
    assert make_kernel("harmonic", 3).name == "harmonic"
    assert make_kernel("uniform", 3).name == "uniform"
    with pytest.raises(ConfigError):
        make_kernel("gaussian", 3)


def test_invalid_kernels():
    with pytest.raises(ConfigError):
        harmonic_kernel(0)
    with pytest.raises(ConfigError):
        ResamplingKernel(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ConfigError):
        ResamplingKernel(np.array([1.5, -0.5]))


def _random_kernel(seed: int, k: int, spike: float) -> ResamplingKernel:
    """Random masses with about a quarter of them zero, and all but ``spike`` of
    the mass on rank 0, so the later CDF points crowd into a few buckets."""
    r = np.random.default_rng(seed)
    w = r.random(k) * (r.random(k) > 0.25)
    w *= (1 - spike) / w[1:].sum()
    w[0] = spike
    return ResamplingKernel(w / w.sum())


RANK_KERNELS = {
    **{f"{make}_{k}": make_kernel(make, k) for make in ("uniform", "harmonic") for k in (1, 2, 20, 100)},
    "random_20": _random_kernel(1, 20, 0.99),
    "random_100": _random_kernel(2, 100, 0.98),
    "random_300": _random_kernel(3, 300, 0.999),
}


def _most_points_in_a_bucket(kernel: ResamplingKernel) -> int:
    cdf = kernel.probabilities.cumsum()
    cdf /= cdf[-1]
    return int(np.bincount((cdf[cdf < 1] * kernel._guide.size).astype(int)).max(initial=0))


def test_rank_kernels_cover_crowded_buckets():
    crowded = [_most_points_in_a_bucket(RANK_KERNELS[f"random_{k}"]) for k in (20, 100, 300)]
    assert 1 < crowded[0] < crowded[1] < crowded[2] and crowded[2] > 32
    assert all((k.probabilities == 0).any() for name, k in RANK_KERNELS.items() if name.startswith("random"))


@pytest.mark.parametrize("k", [1, 100, 1000, 2000, 8760, 100_000])
def test_guide_table_grows_with_k(k):
    """At least 4k buckets, so a harmonic kernel steps at most 3 times a draw at any k."""
    kernel = harmonic_kernel(k)
    assert kernel._guide.size >= max(4096, 4 * k) and kernel._steps <= 3
    assert uniform_kernel(k)._steps == 1


@pytest.mark.parametrize("name", sorted(RANK_KERNELS))
def test_ranks_are_generator_choice_draws(name):
    """The guide-table draw gives the ranks ``rng.choice`` gives from the same
    stream, and ``sample`` the pool entries at them, at every length and seed."""
    kernel = RANK_KERNELS[name]
    k = kernel.k
    for n in (1, 2, 720, 8760):
        pools = Pools(np.random.default_rng(n).integers(0, n, size=(n, k)), np.zeros((n, 1)), np.zeros((n, 1)))
        source = HourlySeries(np.zeros(n))
        for seed in range(30):
            want = np.random.default_rng([seed, n]).choice(k, size=n, p=kernel.probabilities)
            got = kernel.ranks(np.random.default_rng([seed, n]), n)
            assert got.tolist() == want.tolist(), (n, seed)
            drawn = sample(source, pools, kernel, np.random.default_rng([seed, n]))
            assert drawn.tolist() == pools.indices[np.arange(n), want].tolist(), (n, seed)


class _Draws(np.random.Generator):
    """A generator whose ``random`` returns fixed draws, which ``choice`` then maps."""

    def __init__(self, draws: np.ndarray):
        super().__init__(np.random.PCG64(0))
        self.draws = draws

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.draws.size
        return self.draws.copy()


EDGE_KERNELS = {**RANK_KERNELS, "harmonic_8760": harmonic_kernel(8760), "uniform_5000": uniform_kernel(5000)}


@pytest.mark.parametrize("name", sorted(EDGE_KERNELS))
def test_ranks_at_cdf_points_and_bucket_edges(name):
    """Draws on and next to every CDF point, before and after scaling, and
    every bucket edge: the ranks ``choice`` maps them to, tie for tie."""
    kernel = EDGE_KERNELS[name]
    cdf = kernel.probabilities.cumsum()
    buckets = kernel._guide.size
    points = np.concatenate((cdf, cdf / cdf[-1], np.arange(buckets) / buckets))
    u = np.unique(np.concatenate((points, np.nextafter(points, 0), np.nextafter(points, 1))))
    u = u[(u >= 0) & (u < 1)]
    want = _Draws(u).choice(kernel.k, size=u.size, p=kernel.probabilities)
    assert kernel.ranks(_Draws(u), u.size).tolist() == want.tolist()
