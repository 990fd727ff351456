from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthseries.errors import ConfigError, InvalidSash, PTooLarge
from synthseries.kernels import harmonic_kernel, uniform_kernel
from synthseries.sbb import build_windows, find_window_pools, generate_sbb, generate_sbb_batch
from synthseries.series import HourlySeries

from .oracles import brute_pools, brute_window_matrix, stable_sort_pools
from .series_fixtures import POOL_CASES, pool_size, solar_like, spans_blocks_with_nights

series_strategy = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=5,
    max_size=40,
).map(lambda v: HourlySeries(np.array(v)))


class TestWindows:
    def test_circular_first_window(self):
        s = HourlySeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))  # a..e
        wm = build_windows(s, 1)
        assert wm[0].tolist() == [5.0, 1.0, 2.0]

    def test_width(self):
        s = HourlySeries(np.arange(10, dtype=float))
        assert build_windows(s, 2).shape[1] == 5

    def test_center_column_is_source(self, rng):
        s = HourlySeries(rng.normal(size=30))
        wm = build_windows(s, 3)
        assert wm[:, 3].tolist() == list(s.values)

    def test_invalid_sash(self):
        s = HourlySeries(np.arange(5, dtype=float))
        for bad in (0, 3):
            with pytest.raises(InvalidSash):
                build_windows(s, bad)

    @given(series_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_matches_brute_force(self, s, sash):
        sash = min(sash, (len(s) - 1) // 2)
        if sash < 1:
            return
        wm = build_windows(s, sash)
        assert wm.tolist() == brute_window_matrix(list(s.values), sash)


class TestWindowPools:
    def test_self_first(self, rng):
        s = HourlySeries(rng.normal(size=20))
        pools = find_window_pools(build_windows(s, 2), 4, include_self=True)
        assert (pools.indices[:, 0] == np.arange(20)).all()

    def test_matches_brute_force_toy(self):
        s = HourlySeries(np.array([2.0, 7.0, 1.0, 8.0, 2.0, 8.0]))
        wm = build_windows(s, 1)
        pools = find_window_pools(wm, 3, include_self=True)
        bi, bd = brute_pools(wm.tolist(), 3, True)
        assert pools.indices.tolist() == bi
        np.testing.assert_allclose(pools.distances, bd, rtol=1e-9)

    def test_constant_series_tie_rule(self):
        s = HourlySeries(np.full(8, 3.0))
        pools = find_window_pools(build_windows(s, 1), 3, include_self=False)
        assert pools.indices[7].tolist() == [0, 1, 2]

    def test_p_too_large(self):
        s = HourlySeries(np.arange(6, dtype=float))
        wm = build_windows(s, 1)
        with pytest.raises(PTooLarge):
            find_window_pools(wm, 7, include_self=True)
        with pytest.raises(PTooLarge):
            find_window_pools(wm, 6, include_self=False)


class TestWindowPoolsAcrossBlocks:
    """The distinct rows span several search blocks, and the all-zero night
    row, whose members are spread over the whole matrix, puts exact
    zero-distance ties at the pool boundary."""

    @pytest.fixture(scope="class")
    def windows(self):
        wm = build_windows(solar_like(1500, 11), 2)
        assert spans_blocks_with_nights(wm)
        return wm

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("case", POOL_CASES)
    def test_matches_stable_sort(self, windows, case, include_self):
        p = pool_size(case, windows, include_self)
        pools = find_window_pools(windows, p, include_self)
        ref_idx, ref_dist = stable_sort_pools(windows, p, include_self)
        assert np.array_equal(pools.indices, ref_idx)
        assert pools.distances.tobytes() == ref_dist.tobytes()


class TestGenerate:
    def test_degenerate_identity(self, rng):
        s = HourlySeries(rng.normal(size=40))
        out = generate_sbb(s, 2, 1, include_self=True, seed=5)
        assert out.values.tolist() == s.values.tolist()

    def test_membership(self, rng):
        s = HourlySeries(rng.normal(size=60))
        out = generate_sbb(s, 2, 6, seed=13)
        assert set(out.values).issubset(set(s.values))

    def test_determinism(self, rng):
        s = HourlySeries(rng.normal(size=60))
        assert generate_sbb(s, 2, 6, seed=3).values.tolist() == generate_sbb(s, 2, 6, seed=3).values.tolist()

    def test_pluggable_kernel(self, rng):
        s = HourlySeries(rng.normal(size=60))
        out = generate_sbb(s, 2, 6, seed=3, kernel=harmonic_kernel(6))
        assert set(out.values).issubset(set(s.values))

    def test_kernel_must_match_the_pool_size(self, rng):
        s = HourlySeries(rng.normal(size=40))
        with pytest.raises(ConfigError, match="kernel has 3 ranks but the pools hold 5"):
            generate_sbb(s, 2, 5, kernel=harmonic_kernel(3))
        with pytest.raises(ConfigError, match="kernel has 4 ranks but the pools hold 5"):
            generate_sbb_batch(s, 2, 5, B=2, master_seed=1, kernel=uniform_kernel(4))


class TestBatch:
    def test_batch_of_one(self, rng):
        s = HourlySeries(rng.normal(size=50))
        ens = generate_sbb_batch(s, 2, 4, B=1, master_seed=9)
        assert len(ens) == 1 and ens.method == "sbb"

    def test_identical_seeds_identical_output(self, rng):
        s = HourlySeries(rng.normal(size=50))
        a = generate_sbb_batch(s, 2, 4, B=3, master_seed=11)
        b = generate_sbb_batch(s, 2, 4, B=3, master_seed=11)
        for x, y in zip(a.series, b.series):
            assert x.values.tobytes() == y.values.tobytes()

    def test_thread_independence(self, rng):
        s = HourlySeries(rng.normal(size=80))
        baseline = generate_sbb_batch(s, 2, 4, B=6, master_seed=2, threads=1)
        for t in (2, 8):
            alt = generate_sbb_batch(s, 2, 4, B=6, master_seed=2, threads=t)
            for x, y in zip(baseline.series, alt.series):
                assert x.values.tobytes() == y.values.tobytes()

    def test_night_zeros_preserved_on_solar_like_data(self, solar_fixture):
        # full-night zero blocks mean every night window matches other
        # night windows, whose focal values are all zero
        ens = generate_sbb_batch(solar_fixture, 2, 20, B=20, master_seed=4)
        deep_night = np.array([(h % 24) in (0, 1, 2, 3) for h in range(len(solar_fixture))])
        assert (solar_fixture.values[deep_night] == 0).all()
        for s in ens.series:
            assert (s.values[deep_night] == 0).all()
