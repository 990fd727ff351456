from __future__ import annotations

import numpy as np
import pytest

from synthseries.adequacy import (
    AdequacyResult,
    VreWeights,
    adequacy,
    combine_vre,
    ensemble_adequacy,
    seasonal_window,
    shortfall_histogram,
    weight_sweep,
    windowed_adequacy,
)
from synthseries.ensemble import Ensemble
from synthseries.errors import ConfigError, EmptyGrid, LengthMismatch, OutOfRange, ValidationError, ZeroLoad
from synthseries.sbb import generate_sbb_batch
from synthseries.series import HourlySeries


def matrix_ensemble(values) -> Ensemble:
    return Ensemble(values=np.asarray(values, dtype=float), method="sbb", config={}, master_seed=0,
                    source_checksum="")


class TestCombineVre:
    def test_identity_weights(self, rng):
        solar = HourlySeries(np.abs(rng.normal(10, 2, size=48)))
        wind = HourlySeries(np.abs(rng.normal(10, 2, size=48)))
        assert combine_vre(solar, wind, VreWeights(1, 0)).values.tolist() == solar.values.tolist()
        assert (combine_vre(solar, wind, VreWeights(0, 0)).values == 0).all()

    def test_hand_arithmetic(self):
        solar = HourlySeries(np.array([2.0, 0.0]))
        wind = HourlySeries(np.array([1.0, 3.0]))
        out = combine_vre(solar, wind, VreWeights(45, 22))
        assert out.values.tolist() == [112.0, 66.0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            combine_vre(HourlySeries(np.ones(3)), HourlySeries(np.ones(4)), VreWeights(1, 1))

    @pytest.mark.parametrize("weights", [(float("nan"), 1.0), (1.0, float("inf")), (-1.0, 1.0)])
    def test_weights_must_be_finite_and_non_negative(self, weights):
        with pytest.raises(ConfigError):
            VreWeights(*weights)


class TestAdequacy:
    def test_perfect_match(self, rng):
        load = HourlySeries(np.abs(rng.normal(100, 10, size=240)) + 1)
        zero = HourlySeries(np.zeros(240))
        res = adequacy(load, zero, load)
        assert res.percent_supplied == pytest.approx(1.0)
        assert res.percent_curtailed == 0.0
        assert res.shortfall_days == 0

    def test_zero_load_rejected(self):
        z = HourlySeries(np.zeros(24))
        with pytest.raises(ZeroLoad):
            adequacy(z, z, z)

    def test_scale_consistency(self, rng):
        load = HourlySeries(np.abs(rng.normal(100, 30, size=240)) + 1)
        vre = HourlySeries(np.abs(rng.normal(60, 40, size=240)))
        nuc = HourlySeries(np.full(240, 20.0))
        a = adequacy(vre, nuc, load)
        b = adequacy(
            HourlySeries(2 * vre.values), HourlySeries(2 * nuc.values), HourlySeries(2 * load.values)
        )
        assert a.percent_supplied == pytest.approx(b.percent_supplied, rel=1e-12)
        assert a.percent_curtailed == pytest.approx(b.percent_curtailed, rel=1e-12)
        assert a.shortfall_days == b.shortfall_days

    def test_shortfall_fraction_zero_counts_zero_generation_days(self):
        load = HourlySeries(np.full(48, 10.0))
        gen = np.full(48, 5.0)
        gen[:24] = 0.0
        res = adequacy(HourlySeries(gen), HourlySeries(np.zeros(48)), load, shortfall_fraction=0.0)
        # day 1 has zero total generation: 0 < 0 * load is false, so only
        # strictly-below-zero comparisons count; fraction 0 counts nothing
        assert res.shortfall_days == 0
        eps = adequacy(HourlySeries(gen), HourlySeries(np.zeros(48)), load, shortfall_fraction=1e-9)
        assert eps.shortfall_days == 1

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_shortfall_fraction_rejected(self, fraction):
        s = HourlySeries(np.ones(48))
        with pytest.raises(OutOfRange, match="finite"):
            adequacy(s, s, s, shortfall_fraction=fraction)
        # a part-day window (30 hours) reports no shortfall days, but is checked all the same
        for hours in (48, 30):
            with pytest.raises(OutOfRange, match="finite"):
                windowed_adequacy(s, s, s, 0, hours, shortfall_fraction=fraction)

    @pytest.mark.parametrize("hours", [48, 30])
    def test_generation_that_overflows_is_validation_error(self, hours):
        # 1e308 + 1e308 is inf; a ragged window (30 hours) used to report it as curtailment
        big = HourlySeries(np.full(48, 1e308))
        with pytest.raises(ValidationError):
            windowed_adequacy(big, big, HourlySeries(np.ones(48)), 0, hours)

    @pytest.mark.parametrize("hours", [48, 30])
    def test_energy_total_that_overflows_is_validation_error(self, hours):
        # every hour of generation is finite, but the VRE and surplus totals
        # are not: inf / inf was reported as a NaN curtailed fraction
        with pytest.raises(ValidationError, match="overflow"):
            windowed_adequacy(HourlySeries(np.full(48, 1e308)), HourlySeries(np.zeros(48)), HourlySeries(np.ones(48)),
                              0, hours)

    def test_fractions_in_unit_interval(self, rng):
        load = HourlySeries(np.abs(rng.normal(100, 30, size=240)) + 1)
        vre = HourlySeries(np.abs(rng.normal(120, 80, size=240)))
        res = adequacy(vre, HourlySeries(np.zeros(240)), load)
        assert 0.0 <= res.percent_supplied <= 1.0
        assert 0.0 <= res.percent_curtailed <= 1.0


class TestWeightSweep:
    def test_empty_grid(self, rng):
        s = HourlySeries(np.ones(24))
        with pytest.raises(EmptyGrid):
            weight_sweep(s, s, s, s, 0.1, [], [1])

    @pytest.mark.parametrize("cap", [float("nan"), float("inf")])
    def test_non_finite_cap_rejected(self, cap):
        # a NaN cap would rank nothing (every comparison is false), an
        # infinite one every grid point
        s = HourlySeries(np.ones(24))
        with pytest.raises(OutOfRange, match="finite"):
            weight_sweep(s, s, s, s, cap, [1], [1])

    def test_cap_zero_excludes_curtailing_weights(self):
        load = HourlySeries(np.full(48, 10.0))
        solar = HourlySeries(np.full(48, 10.0))
        wind = HourlySeries(np.full(48, 10.0))
        nuc = HourlySeries(np.zeros(48))
        results = weight_sweep(solar, wind, nuc, load, 0.0, [0.5, 2.0], [0.0])
        weights = [(w.solar, w.wind) for w, _ in results]
        assert (2.0, 0.0) not in weights and (0.5, 0.0) in weights

    def test_ranking_and_tiebreak(self, rng):
        load = HourlySeries(np.abs(rng.normal(100, 20, size=240)) + 50)
        solar = HourlySeries(np.abs(rng.normal(10, 5, size=240)))
        wind = HourlySeries(np.abs(rng.normal(10, 5, size=240)))
        nuc = HourlySeries(np.full(240, 10.0))
        results = weight_sweep(solar, wind, nuc, load, 0.5, [0, 1, 2], [0, 1, 2])
        supplied = [r.percent_supplied for _, r in results]
        assert supplied == sorted(supplied, reverse=True)

    def test_equals_adequacy_of_each_grid_point(self, rng):
        load = HourlySeries(np.abs(rng.normal(100, 20, size=240)) + 50)
        solar = HourlySeries(np.abs(rng.normal(40, 30, size=240)))
        wind = HourlySeries(np.abs(rng.normal(40, 30, size=240)))
        nuc = HourlySeries(np.full(240, 30.0))
        results = weight_sweep(solar, wind, nuc, load, 1.0, [0, 0.5, 2], [1, 3.25], shortfall_fraction=0.95)
        assert len(results) == 6
        for weights, res in results:
            assert res == adequacy(combine_vre(solar, wind, weights), nuc, load, 0.95)

    @pytest.mark.parametrize("short", range(4))
    def test_series_of_another_length(self, short):
        series = [HourlySeries(np.ones(48 if i == short else 72)) for i in range(4)]
        with pytest.raises(LengthMismatch):
            weight_sweep(*series, 0.5, [1], [1])

    def test_vre_that_overflows_is_validation_error(self):
        s = HourlySeries(np.full(48, 1e308))
        with pytest.raises(ValidationError):
            weight_sweep(s, s, HourlySeries(np.zeros(48)), HourlySeries(np.ones(48)), 0.5, [1], [1])

    def test_supplied_monotone_in_each_weight(self, rng):
        load = HourlySeries(np.abs(rng.normal(100, 20, size=240)) + 50)
        solar = HourlySeries(np.abs(rng.normal(10, 5, size=240)))
        wind = HourlySeries(np.abs(rng.normal(10, 5, size=240)))
        nuc = HourlySeries(np.zeros(240))
        prev = -1.0
        for w in range(0, 6):
            res = adequacy(combine_vre(solar, wind, VreWeights(w, 1)), nuc, load)
            assert res.percent_supplied >= prev - 1e-12
            prev = res.percent_supplied


class TestEnsembleAdequacy:
    def test_single_pair_deterministic(self, solar_fixture, wind_fixture, nuclear_fixture, load_fixture):
        se = generate_sbb_batch(solar_fixture, 2, 3, B=1, master_seed=1)
        we = generate_sbb_batch(wind_fixture, 2, 3, B=1, master_seed=2)
        a = ensemble_adequacy(se, we, nuclear_fixture, load_fixture, VreWeights(2, 2), pairing_seed=5)
        b = ensemble_adequacy(se, we, nuclear_fixture, load_fixture, VreWeights(2, 2), pairing_seed=5)
        assert a == b and len(a) == 1

    def test_mass_and_determinism(self, solar_fixture, wind_fixture, nuclear_fixture, load_fixture):
        se = generate_sbb_batch(solar_fixture, 2, 5, B=4, master_seed=1)
        we = generate_sbb_batch(wind_fixture, 2, 5, B=4, master_seed=2)
        res = ensemble_adequacy(se, we, nuclear_fixture, load_fixture, VreWeights(2, 2), pairing_seed=9, pairs=10)
        assert len(res) == 10
        hist = shortfall_histogram(res)
        assert sum(hist.values()) == 10

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_pairs_below_one(self, solar_fixture, wind_fixture, nuclear_fixture, load_fixture, pairs):
        # -1 used to fail inside numpy and 0 to report an empty distribution
        se = generate_sbb_batch(solar_fixture, 2, 3, B=1, master_seed=1)
        with pytest.raises(OutOfRange):
            ensemble_adequacy(se, se, nuclear_fixture, load_fixture, VreWeights(2, 2), pairing_seed=5, pairs=pairs)

    def test_equals_adequacy_of_each_pair(self, solar_fixture, wind_fixture, nuclear_fixture, load_fixture):
        se = generate_sbb_batch(solar_fixture, 2, 5, B=4, master_seed=1)
        we = generate_sbb_batch(wind_fixture, 2, 5, B=3, master_seed=2)
        weights = VreWeights(2.5, 3)
        res = ensemble_adequacy(se, we, nuclear_fixture, load_fixture, weights, pairing_seed=9, pairs=7,
                                shortfall_fraction=0.95)
        rng = np.random.default_rng(9)
        pairs = zip(rng.integers(0, 4, size=7), rng.integers(0, 3, size=7))
        assert res == [
            adequacy(combine_vre(HourlySeries(se.values[a]), HourlySeries(we.values[b]), weights),
                     nuclear_fixture, load_fixture, 0.95)
            for a, b in pairs
        ]

    @pytest.mark.parametrize("short", ["solar", "wind", "nuclear", "load"])
    def test_member_or_series_of_another_length(self, short):
        n = {name: 48 if name == short else 72 for name in ("solar", "wind", "nuclear", "load")}
        with pytest.raises(LengthMismatch):
            ensemble_adequacy(
                matrix_ensemble(np.ones((2, n["solar"]))), matrix_ensemble(np.ones((2, n["wind"]))),
                HourlySeries(np.ones(n["nuclear"])), HourlySeries(np.ones(n["load"])), VreWeights(1, 1), pairing_seed=3,
            )

    def test_pair_that_overflows_is_validation_error(self):
        # every member is finite; only the weighted sum of the pair is not
        peak = np.zeros((2, 48))
        peak[:, 0] = 1e308
        solar = matrix_ensemble(peak)
        wind = matrix_ensemble(np.ones((2, 48)))
        load = HourlySeries(np.ones(48))
        assert ensemble_adequacy(solar, wind, load, load, VreWeights(1, 1), pairing_seed=3)
        with pytest.raises(ValidationError):
            ensemble_adequacy(solar, wind, load, load, VreWeights(2, 1), pairing_seed=3)


class TestSeasonalWindow:
    def test_full_window_equals_annual(self, solar_fixture, wind_fixture, nuclear_fixture, load_fixture):
        vre = combine_vre(solar_fixture, wind_fixture, VreWeights(3, 2))
        full = adequacy(vre, nuclear_fixture, load_fixture)
        windowed = windowed_adequacy(vre, nuclear_fixture, load_fixture, 0, len(load_fixture))
        assert windowed.percent_supplied == pytest.approx(full.percent_supplied)
        assert windowed.percent_curtailed == pytest.approx(full.percent_curtailed)

    def test_ragged_window_fractions_equal_adequacy_of_the_slice(
        self, solar_fixture, wind_fixture, nuclear_fixture, load_fixture
    ):
        vre = combine_vre(solar_fixture, wind_fixture, VreWeights(3, 2))
        ragged = windowed_adequacy(vre, nuclear_fixture, load_fixture, 30, 100)
        sliced = adequacy(*seasonal_window([vre, nuclear_fixture, load_fixture], 30, 100))
        assert ragged.percent_supplied == sliced.percent_supplied
        assert ragged.percent_curtailed == sliced.percent_curtailed
        assert ragged.shortfall_days == 0

    def test_window_shorter_than_a_day(self, solar_fixture, wind_fixture, nuclear_fixture, load_fixture):
        vre = combine_vre(solar_fixture, wind_fixture, VreWeights(3, 2))
        res = windowed_adequacy(vre, nuclear_fixture, load_fixture, 10, 5)
        assert res.shortfall_days == 0 and 0 < res.percent_supplied <= 1

    def test_out_of_range(self, solar_fixture):
        with pytest.raises(OutOfRange):
            seasonal_window([solar_fixture], len(solar_fixture) - 10, 24)

    def test_slices_align(self, solar_fixture, wind_fixture):
        a, b = seasonal_window([solar_fixture, wind_fixture], 24, 120)
        assert len(a) == len(b) == 120
        assert a.values.tolist() == solar_fixture.values[24:144].tolist()


def test_result_as_dict():
    r = AdequacyResult(0.5, 0.1, 3)
    assert r.as_dict() == {"percent_supplied": 0.5, "percent_curtailed": 0.1, "shortfall_days": 3}
