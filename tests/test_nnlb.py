from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthseries.errors import ConfigError, InvalidLag, KTooLarge
from synthseries.kernels import harmonic_kernel, uniform_kernel
from synthseries.nnlb import build_lag_matrix, find_neighbor_pools, generate_nnlb, generate_nnlb_batch
from synthseries.series import HourlySeries

from .oracles import brute_lag_matrix, brute_pools, stable_sort_pools
from .series_fixtures import POOL_CASES, pool_size, solar_like, spans_blocks_with_nights

series_strategy = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=40,
).map(lambda v: HourlySeries(np.array(v)))


class TestLagMatrix:
    def test_circular_first_row(self):
        s = HourlySeries(np.array([1.0, 2.0, 3.0, 4.0]))  # a, b, c, d
        lm = build_lag_matrix(s, 2)
        assert lm[0].tolist() == [3.0, 4.0]

    def test_year_second_point(self):
        vals = np.arange(1, 8761, dtype=float)
        lm = build_lag_matrix(HourlySeries(vals), 4)
        assert lm[1].tolist() == [8758.0, 8759.0, 8760.0, 1.0]

    def test_single_lag(self):
        lm = build_lag_matrix(HourlySeries(np.array([5.0, 7.0])), 1)
        assert lm.tolist() == [[7.0], [5.0]]

    def test_invalid_lag(self):
        s = HourlySeries(np.array([1.0, 2.0, 3.0]))
        for bad in (0, 3, 5):
            with pytest.raises(InvalidLag):
                build_lag_matrix(s, bad)

    @given(series_strategy, st.integers(min_value=1, max_value=10))
    @settings(max_examples=50)
    def test_matches_brute_force(self, s, lag):
        lag = min(lag, len(s) - 1)
        lm = build_lag_matrix(s, lag)
        assert lm.tolist() == brute_lag_matrix(list(s.values), lag)


class TestNeighborPools:
    def test_self_first_at_zero_distance(self, rng):
        s = HourlySeries(rng.normal(size=30))
        pools = find_neighbor_pools(build_lag_matrix(s, 3), 5, include_self=True)
        assert (pools.indices[:, 0] == np.arange(30)).all()
        assert (pools.distances[:, 0] == 0.0).all()

    def test_matches_brute_force_toy(self):
        s = HourlySeries(np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
        lm = build_lag_matrix(s, 2)
        pools = find_neighbor_pools(lm, 2, include_self=True)
        bi, bd = brute_pools(lm.tolist(), 2, True)
        assert pools.indices.tolist() == bi
        np.testing.assert_allclose(pools.distances, bd, rtol=1e-9)

    def test_duplicate_ties_prefer_lower_index(self):
        # identical values everywhere: all pairwise distances are zero
        s = HourlySeries(np.full(6, 2.0))
        pools = find_neighbor_pools(build_lag_matrix(s, 2), 3, include_self=False)
        assert pools.indices[5].tolist() == [0, 1, 2]

    def test_k_too_large(self):
        s = HourlySeries(np.arange(5, dtype=float))
        lm = build_lag_matrix(s, 2)
        with pytest.raises(KTooLarge):
            find_neighbor_pools(lm, 6, include_self=True)
        with pytest.raises(KTooLarge):
            find_neighbor_pools(lm, 5, include_self=False)

    def test_distances_non_decreasing(self, rng):
        s = HourlySeries(rng.normal(size=50))
        pools = find_neighbor_pools(build_lag_matrix(s, 4), 10, include_self=True)
        assert (np.diff(pools.distances, axis=1) >= 0).all()


class TestNeighborPoolsAcrossBlocks:
    """The distinct rows span several search blocks, and the all-zero night
    row, whose members are spread over the whole matrix, puts exact
    zero-distance ties at the pool boundary."""

    @pytest.fixture(scope="class")
    def lags(self):
        lm = build_lag_matrix(solar_like(1500, 12), 5)
        assert spans_blocks_with_nights(lm)
        return lm

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("case", POOL_CASES)
    def test_matches_stable_sort(self, lags, case, include_self):
        k = pool_size(case, lags, include_self)
        pools = find_neighbor_pools(lags, k, include_self)
        ref_idx, ref_dist = stable_sort_pools(lags, k, include_self)
        assert np.array_equal(pools.indices, ref_idx)
        assert pools.distances.tobytes() == ref_dist.tobytes()


class TestGenerate:
    def test_degenerate_identity(self, rng):
        s = HourlySeries(rng.normal(size=40))
        out = generate_nnlb(s, 3, 1, include_self=True, seed=7)
        assert out.values.tolist() == s.values.tolist()

    def test_membership(self, rng):
        s = HourlySeries(rng.normal(size=60))
        out = generate_nnlb(s, 4, 8, seed=11)
        assert set(out.values).issubset(set(s.values))

    def test_determinism(self, rng):
        s = HourlySeries(rng.normal(size=60))
        a = generate_nnlb(s, 4, 8, seed=99)
        b = generate_nnlb(s, 4, 8, seed=99)
        assert a.values.tolist() == b.values.tolist()
        c = generate_nnlb(s, 4, 8, seed=100)
        assert a.values.tolist() != c.values.tolist()

    def test_kernel_must_match_the_pool_size(self, rng):
        s = HourlySeries(rng.normal(size=40))
        with pytest.raises(ConfigError, match="kernel has 3 ranks but the pools hold 5"):
            generate_nnlb(s, 3, 5, kernel=harmonic_kernel(3))
        with pytest.raises(ConfigError, match="kernel has 4 ranks but the pools hold 5"):
            generate_nnlb_batch(s, 3, 5, B=2, master_seed=1, kernel=uniform_kernel(4))


class TestBatch:
    def test_batch_of_one_matches_child_seed(self, rng):
        s = HourlySeries(rng.normal(size=50))
        ens = generate_nnlb_batch(s, 3, 5, B=1, master_seed=42)
        from synthseries.ensemble import child_rng
        from synthseries.nnlb import build_lag_matrix as blm
        from synthseries.nnlb import find_neighbor_pools as fnp

        pools = fnp(blm(s, 3), 5, True)
        kernel = harmonic_kernel(5)
        r = child_rng(42, 0)
        ranks = r.choice(5, size=50, p=kernel.probabilities)
        expected = s.values[pools.indices[np.arange(50), ranks]]
        assert ens.series[0].values.tolist() == expected.tolist()

    def test_identical_master_seeds_identical_ensembles(self, rng):
        s = HourlySeries(rng.normal(size=50))
        a = generate_nnlb_batch(s, 3, 5, B=2, master_seed=7)
        b = generate_nnlb_batch(s, 3, 5, B=2, master_seed=7)
        for x, y in zip(a.series, b.series):
            assert x.values.tobytes() == y.values.tobytes()

    def test_thread_count_does_not_change_output(self, rng):
        s = HourlySeries(rng.normal(size=80))
        baseline = generate_nnlb_batch(s, 3, 5, B=6, master_seed=3, threads=1)
        for t in (2, 8):
            alt = generate_nnlb_batch(s, 3, 5, B=6, master_seed=3, threads=t)
            for x, y in zip(baseline.series, alt.series):
                assert x.values.tobytes() == y.values.tobytes()

    def test_provenance_recorded(self, rng):
        s = HourlySeries(rng.normal(size=40))
        ens = generate_nnlb_batch(s, 2, 3, B=2, master_seed=5)
        assert ens.method == "nnlb"
        assert ens.config["lag"] == 2 and ens.config["k"] == 3
        assert ens.source_checksum == s.checksum()

    def test_night_anomaly_possible_on_solar_like_data(self, solar_fixture):
        # lag vectors at dawn/dusk can match each other while their
        # successors differ, so zero hours may receive nonzero values
        ens = generate_nnlb_batch(solar_fixture, 5, 20, B=20, master_seed=1)
        zero_hours = solar_fixture.values == 0.0
        anomalies = sum(bool((s.values[zero_hours] > 0).any()) for s in ens.series)
        assert anomalies >= 1
