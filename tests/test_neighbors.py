"""Neighbour pools against the full stable sort.

The golden digests were recorded with the full stable-sort search that the
partitioned search replaced, for the pool configurations of the case study
on an 8760-hour in-process fixture. Any change to a pool index or to a
distance byte at year length fails here. The matrices after them put
duplicate rows where the search, which runs once per distinct row, could
get a row's own place in the shared order wrong. Integer-valued matrices
cannot show the order in which a distance adds its columns, so the float
matrices, up to 12 columns wide and of mixed magnitudes, check the distance
bytes against ``cdist`` through the oracle, as do the embeddings after
them, whose columns are shifted copies of one another. The last
matrices are built against the row-sum windows: equal or overflowing sums,
subnormals, and ties at the edge of the bound the windows rest on.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from synthseries import neighbors, nnlb, sbb
from synthseries.kernels import uniform_kernel
from synthseries.neighbors import nearest_rows
from synthseries.series import HourlySeries
from synthseries.nnlb import build_lag_matrix, find_neighbor_pools
from synthseries.sbb import build_windows, find_window_pools

from .oracles import stable_sort_pools
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


def assert_stable_sort_pools(matrix, k, include_self):
    pools = nearest_rows(matrix, k, include_self)
    ref_idx, ref_dist = stable_sort_pools(matrix, k, include_self)
    assert np.array_equal(pools.indices, ref_idx)
    assert pools.distances.tobytes() == ref_dist.tobytes()
    assert pools.radii.shape == (ref_dist.shape[0], 1)
    assert pools.radii.tobytes() == ref_dist[:, -1:].tobytes()


def with_duplicates(n_distinct: int, copies: dict[int, int], seed: int) -> np.ndarray:
    """Integer rows, distinct row r repeated ``copies.get(r, 1)`` times, shuffled."""
    rng = np.random.default_rng(seed)
    distinct = np.unique(rng.integers(0, 50, size=(3 * n_distinct, 3)), axis=0)[:n_distinct].astype(float)
    assert distinct.shape[0] == n_distinct
    rows = np.repeat(distinct, [copies.get(r, 1) for r in range(n_distinct)], axis=0)
    return rows[rng.permutation(rows.shape[0])]


class TestDistinctRows:
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_group_larger_than_the_shared_order(self, k, include_self):
        # twelve copies of one row: most members are not among its k + 1
        # nearest and must still lead (with self) or be left out of their pool
        m = with_duplicates(20, {4: 12, 9: 3}, seed=1)
        assert_stable_sort_pools(m, k, include_self)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_k_at_its_limit(self, include_self):
        m = with_duplicates(15, {2: 4, 7: 2}, seed=2)
        n = m.shape[0]
        assert_stable_sort_pools(m, n if include_self else n - 1, include_self)

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_all_rows_equal(self, k, include_self):
        assert_stable_sort_pools(np.full((10, 2), 7.0), k, include_self)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_rows_without_columns_are_all_equal(self, include_self):
        assert_stable_sort_pools(np.empty((6, 0)), 3, include_self)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_signed_zeros_are_one_row(self, include_self):
        m = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [2.0, 1.0], [-0.0, 1.0]])
        assert np.unique(m, axis=0).shape[0] == 3
        assert_stable_sort_pools(m, 4, include_self)

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("k", [1, 6, 40])
    def test_groups_spread_over_several_blocks(self, k, include_self):
        # members of one distinct row stand far apart in the matrix, and the
        # distinct rows take more than two search blocks
        block = neighbors._BLOCK_ROWS
        m = with_duplicates(2 * block + 50, {0: 9, 1: 5, block: 7, 2 * block + 3: 60}, seed=3)
        assert np.unique(m, axis=0).shape[0] > 2 * block
        assert_stable_sort_pools(m, k, include_self)

    @given(
        matrix=st.integers(1, 40).flatmap(
            lambda n: arrays(np.float64, (n, 2), elements=st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0]))
        ),
        include_self=st.booleans(),
        k_fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_small_integer_matrices(self, matrix, include_self, k_fraction):
        n = matrix.shape[0]
        limit = n if include_self else n - 1
        if limit < 1:
            return
        assert_stable_sort_pools(matrix, 1 + int(k_fraction * (limit - 1)), include_self)


class TestFloatMatrices:
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 12)),
        exponents=st.lists(st.integers(-3, 6), min_size=12, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.booleans(),
        include_self=st.booleans(),
        k_fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_mixed_magnitudes(self, shape, exponents, seed, duplicates, include_self, k_fraction):
        n, f = shape
        limit = n if include_self else n - 1
        if limit < 1:
            return
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, f)) * 10.0 ** np.array(exponents[:f])
        if duplicates:
            m = m[rng.integers(0, n, size=n)]
        assert_stable_sort_pools(m, 1 + int(k_fraction * (limit - 1)), include_self)

    @pytest.mark.parametrize("source, embed, k", [
        ("solar", lambda s: build_windows(s, 2), 20),
        ("wind", lambda s: build_windows(s, 4), 100),
        ("solar", lambda s: build_lag_matrix(s, 5), 20),
    ], ids=["solar_sbb_sash2_p20", "wind_sbb_sash4_p100", "solar_nnlb_lag5_k20"])
    def test_case_study_pools_on_the_test_data(self, request, source, embed, k):
        series = request.getfixturevalue(f"{source}_fixture")
        assert_stable_sort_pools(embed(series), k, True)


class TestEmbeddings:
    """Embeddings at consecutive offsets from anywhere in [-w, 0], plain or
    with an unrelated column in the middle or at the end; with n <= w an
    embedding wraps the source more than once."""

    ALPHABET = np.array([0.0, -0.0, 1.0, 2.0, 5.0])

    @staticmethod
    def values(rng, n, alphabet):
        if alphabet:
            return rng.choice(TestEmbeddings.ALPHABET, size=n)
        return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 7, size=n)

    @given(
        n=st.integers(1, 40),
        width=st.integers(1, 12),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        alphabet=st.booleans(),
        extra=st.sampled_from(["none", "middle", "end"]),
        include_self=st.booleans(),
        k_fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_embeddings(self, n, width, data, seed, alphabet, extra, include_self, k_fraction):
        limit = n if include_self else n - 1
        if limit < 1:
            return
        rng = np.random.default_rng(seed)
        start = data.draw(st.integers(-width, 0), label="start")
        m = neighbors.embed(HourlySeries(self.values(rng, n, alphabet)), np.arange(start, start + width))
        if extra != "none":
            at = data.draw(st.integers(1, width - 1), label="at") if extra == "middle" and width > 1 else width
            m = np.insert(m, at, self.values(rng, n, alphabet), axis=1)
        assert_stable_sort_pools(m, 1 + int(k_fraction * (limit - 1)), include_self)


class TestWindows:
    """Adversarial matrices for the projection windows: each block of rows
    measures only the candidates whose row sums its window reaches, and
    certifies a row only when the sums just outside lie strictly beyond its
    sum +- sqrt(w) times its kk-th distance, widened by the rounding slack.
    Blocks of a few rows put many windows and flanks into matrices of a few
    dozen rows."""

    FAMILIES = ["permutations", "huge", "tiny", "compensated", "tight", "diagonal"]
    TINY = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-170, -1e-170, 3e-162])
    HUGE = np.array([1e308, -1e308, 1.7e308, -1.7e308, 5e307, -5e307, 1e307, 1.0, 0.0])

    @staticmethod
    def matrix(family, rng, n, w):
        if family == "permutations":
            # one multiset per matrix, so all sums are equal up to the order
            # in which each row adds them; dyadic values add exactly
            base = rng.integers(-8, 9, size=w) / 4.0 if rng.random() < 0.5 else rng.standard_normal(w)
            return rng.permuted(np.tile(base, (n, 1)), axis=1)
        if family == "huge":
            # sums, absolute sums or distances overflow to +-inf or nan
            return rng.choice(TestWindows.HUGE, size=(n, w))
        if family == "tiny":
            # subnormals, signed zeros, and squares that flush to zero
            return rng.choice(TestWindows.TINY, size=(n, w)) * rng.choice([1.0, 3.0, 0.5], size=(n, w))
        if family == "compensated":
            # a last column of c - (the others): near-equal sums
            m = rng.standard_normal((n, w)) * 10.0 ** rng.integers(-3, 4)
            m[:, -1] = rng.standard_normal() - m[:, :-1].sum(axis=1)
            return m
        if family == "tight":
            # c + a and two c - a rows on the diagonal through c, where
            # |sum a - sum b| = sqrt(w) |a - b| holds with equality: c is as far
            # from either, a tie that c + a wins by its lower index; the rows
            # between them in sum are far off, so rounding in the distances
            # or in the sums of large c decides whether a window takes them
            c = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(0, 12)
            a = 10.0 ** rng.uniform(-8, 1)
            off = np.zeros(w)
            off[0], off[-1] = 1e3 * max(a, 1.0), -1e3 * max(a, 1.0)
            between = np.linspace(0.1 * a, 1.9 * a, max(n - 4, 0))[:, None]
            return np.vstack([np.full((1, w), c + a), np.full((2, w), c - a), np.full((1, w), c), c + off + between])[:n]
        # rows along the diagonal, where rounding decides which side of the
        # bound a sum falls on
        x = rng.integers(-6, 7, size=(n, 1)) * rng.choice([1.0, 0.1, 1 / 3])
        return x + np.where(rng.random((n, w)) < 0.2, rng.choice([1e-16, -1e-16, 1e-12], size=(n, w)), 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @given(
        n=st.integers(1, 60),
        w=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 9),
        include_self=st.booleans(),
        k_fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_fuzz_windows(self, family, n, w, seed, block, include_self, k_fraction):
        limit = n if include_self else n - 1
        if limit < 1:
            return
        m = self.matrix(family, np.random.default_rng(seed), n, w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_BLOCK_ROWS", block)
            assert_stable_sort_pools(m, 1 + int(k_fraction * (limit - 1)), include_self)

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_reach_covers_the_rounding_of_a_tight_bound(self, monkeypatch, block, include_self):
        # (0, 0) is as far from (a, a) as from (-a, -a), a tie that (a, a) wins
        # by its lower index; the rows between them in sum are far away. The
        # bound |sum a - sum b| <= sqrt(2) |a - b| holds with equality, and
        # sqrt(2) times the computed distance rounds below 2a, so a reach
        # without its rounding slack leaves both outside the widened window
        a = 1.4935715599433963
        assert np.sqrt(2) * np.sqrt(a * a + a * a) < 2 * a
        far = [[1e3 + s, -1e3] for s in np.linspace(0.1 * a, 1.9 * a, 8)]
        m = np.array([[a, a], [-a, -a], [-a, -a], [0.0, 0.0], *far])
        monkeypatch.setattr(neighbors, "_BLOCK_ROWS", block)
        assert_stable_sort_pools(m, 2 - include_self, include_self)

    @given(
        w=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 3),
        include_self=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_ties_at_a_tight_bound(self, w, seed, block, include_self):
        # the pool that the tie decides: c's nearest row after itself
        m = self.matrix("tight", np.random.default_rng(seed), 12, w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_BLOCK_ROWS", block)
            assert_stable_sort_pools(m, 2 - include_self, include_self)

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_k_at_its_limit_in_small_blocks(self, monkeypatch, family, include_self):
        # n <= 2 kk: every window holds every row
        monkeypatch.setattr(neighbors, "_BLOCK_ROWS", 2)
        m = self.matrix(family, np.random.default_rng(7), 13, 3)
        for k in (12, 13) if include_self else (11, 12):
            assert_stable_sort_pools(m, k, include_self)


# tracemalloc peak of this search on numpy 2.4.6: 12.97 MB, of which the
# (128, n) block buffer takes 9.0 MB and the uint16 indices 1.75 MB; the bound
# leaves about 3 MB above it. The search peaked at 19.9 MB while it also kept
# the (n, k) float64 distances (7.0 MB), and at 28.2 MB with int64 indices and
# a block-high argpartition.
def test_year_search_peak_memory():
    """Pool indices of 16 bits, a partition taken a few rows at a time and
    no distance matrix (``Pools.distances`` is rebuilt only when read) keep
    the year-length wind search near the size of its pool indices plus one
    block."""
    windows = build_windows(wind_like(YEAR, 2026), 4)
    tracemalloc.start()
    try:
        nearest_rows(windows, 100, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def equal_rows_pools(n: int, k: int, include_self: bool) -> np.ndarray:
    """``stable_sort_pools`` of n equal rows, extended from k + 1 of them: a
    row past the first k + 1 has the last one's pool, with itself in its
    place when included (the oracle's n x n distances do not fit at n = 2**16)."""
    small = stable_sort_pools(np.empty((k + 1, 0)), k, include_self)[0]
    pools = np.repeat(small[-1:], n, axis=0)
    pools[: k + 1] = small
    if include_self:
        pools[k + 1 :, 0] = np.arange(k + 1, n)
    return pools


@pytest.mark.parametrize("n, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.uint32)])
@pytest.mark.parametrize("columns", [0, 2])
@pytest.mark.parametrize("include_self", [True, False])
def test_pool_indices_take_the_narrowest_dtype_that_holds_a_row(n, dtype, columns, include_self):
    """Equal rows are one run searched in one window, so a search of 2**16
    rows is cheap; with ``include_self`` the last row's pool holds the
    largest index."""
    k = 3
    pools = nearest_rows(np.full((n, columns), 0.5), k, include_self)
    assert pools.indices.dtype == dtype == neighbors.index_dtype(n)
    assert np.array_equal(pools.indices, equal_rows_pools(n, k, include_self))
    assert pools.distances.dtype == np.float64 and not pools.distances.any()
    assert pools.radii.shape == (n, 1) and pools.radii.tobytes() == np.zeros((n, 1)).tobytes()
    member = neighbors.sample(HourlySeries(np.zeros(n)), pools, uniform_kernel(k), np.random.default_rng(n))
    assert member.dtype == dtype


def test_equal_rows_pools_is_the_oracle_where_it_fits():
    for include_self in (True, False):
        want = stable_sort_pools(np.full((12, 2), 0.5), 3, include_self)[0]
        assert np.array_equal(equal_rows_pools(12, 3, include_self), want)


@pytest.mark.parametrize("module, generate, build, find", [
    (sbb, sbb.generate_sbb_batch, "build_windows", "find_window_pools"),
    (nnlb, nnlb.generate_nnlb_batch, "build_lag_matrix", "find_neighbor_pools"),
], ids=["sbb", "nnlb"])
def test_batch_calls_the_module_globals_a_tracer_wraps(monkeypatch, rng, module, generate, build, find):
    """perfbench/tracer.py times a batch by replacing these globals of the
    method's module: each runs once per batch, the search inside the pool
    step, and ``run_batch`` is replayed with ``threads=``."""
    calls = []
    depth = [0]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, depth[0], args, kwargs))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    originals = {name: getattr(module, name) for name in (build, find, "nearest_rows", "run_batch")}
    for name, fn in originals.items():
        monkeypatch.setattr(module, name, counting(name, fn))
    s = HourlySeries(rng.normal(size=60))
    ens = generate(s, 2, 5, 3, 7)
    assert [(name, d) for name, d, _, _ in calls] == [(build, 0), (find, 0), ("nearest_rows", 1), ("run_batch", 0)]
    _, _, args, kwargs = calls[-1]
    assert "threads" in kwargs
    for threads in (1, 2):
        assert originals["run_batch"](*args, **{**kwargs, "threads": threads}).values.tobytes() == ens.values.tobytes()
