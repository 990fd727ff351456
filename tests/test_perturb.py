from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthseries.errors import InvalidDistributionParams, InvalidProbability, LengthMismatch
from synthseries.perturb import (
    ClampPolicy,
    OffsetDistribution,
    _norm_ppf,
    altered_difference,
    direction_audit,
    incremental_select,
    normal_below_probability,
)
from synthseries.series import HourlySeries

from .oracles import bisect_norm_ppf, brute_altered_difference


class TestOffsetDistribution:
    def test_validation(self):
        with pytest.raises(InvalidDistributionParams):
            OffsetDistribution("normal", std=0.0)
        with pytest.raises(InvalidDistributionParams):
            OffsetDistribution("exponential", mean=-1.0)
        with pytest.raises(InvalidDistributionParams):
            OffsetDistribution("lognormal")
        with pytest.raises(InvalidProbability):
            OffsetDistribution("normal", below_probability=1.5)

    def test_effective_mean_shift(self):
        d = OffsetDistribution("normal", mean=2.0, std=1.0, below_probability=0.75)
        assert d.effective_mean() == pytest.approx(2.674, abs=1e-3)


class TestNormalBelowProbability:
    def test_median_is_zero(self):
        assert normal_below_probability(1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_three_quarters(self):
        assert normal_below_probability(1.0, 0.75) == pytest.approx(0.6745, abs=5e-4)

    def test_scaled_lower_quartile(self):
        assert normal_below_probability(2.0, 0.25) == pytest.approx(-1.349, abs=1e-3)

    def test_invalid(self):
        with pytest.raises(InvalidProbability):
            normal_below_probability(1.0, 0.0)
        with pytest.raises(InvalidDistributionParams):
            normal_below_probability(0.0, 0.5)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=80)
    def test_quantile_matches_bisection_oracle(self, p):
        assert abs(_norm_ppf(p) - bisect_norm_ppf(p)) < 1e-8

    # quantiles of the doubles 1e-315 and 5e-324 (the smallest subnormal),
    # found in log space at 60 digits with mpmath; the Halley step's
    # exp(x * x / 2) overflows there, and the rational tail alone is this close
    @pytest.mark.parametrize("p, quantile", [(1e-315, -37.967300351067358), (5e-324, -38.467405617144346)])
    def test_subnormal_probability_has_a_finite_quantile(self, p, quantile):
        assert abs(_norm_ppf(p) - quantile) < 1e-6
        assert normal_below_probability(2.0, p) == 2.0 * _norm_ppf(p)


class TestIncrementalSelect:
    def test_zero_offsets_identity(self, rng):
        s = HourlySeries(np.abs(rng.normal(1000, 100, size=48)))
        out = incremental_select(s, OffsetDistribution("normal", mean=0.0, std=1e-12), seed=3)
        np.testing.assert_allclose(out.values.values, s.values, rtol=1e-9)

    def test_clamp_invariant(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 80, size=500)))
        clamp = ClampPolicy(alpha_max=0.4, alpha_min=-0.2)
        out = incremental_select(s, OffsetDistribution("normal", mean=0.0, std=200.0), clamp, seed=5)
        eps = s.values - out.values.values
        assert (eps <= 0.4 * s.values + 1e-12).all()
        assert (eps >= -0.2 * s.values - 1e-12).all()

    def test_zero_hours_never_altered(self, rng):
        vals = np.abs(rng.normal(100, 50, size=100))
        vals[::4] = 0.0
        s = HourlySeries(vals)
        out = incremental_select(s, OffsetDistribution("normal", mean=10.0, std=30.0), seed=1)
        assert (out.values.values[::4] == 0.0).all()

    def test_exponential_always_at_or_below_source(self, rng):
        s = HourlySeries(np.abs(rng.normal(1000, 300, size=400)))
        clamp = ClampPolicy(alpha_max=1.0, alpha_min=0.0)
        out = incremental_select(s, OffsetDistribution("exponential", mean=50.0), clamp, seed=9)
        assert (out.values.values <= s.values + 1e-12).all()
        assert (out.values.values >= 0.0).all()

    def test_determinism(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 10, size=50)))
        d = OffsetDistribution("normal", mean=5.0, std=5.0)
        a = incremental_select(s, d, seed=8)
        b = incremental_select(s, d, seed=8)
        assert a.values.values.tolist() == b.values.values.tolist()

    def test_std_nearly_preserved(self, wind_fixture):
        # small offsets shift the level without noticeably changing spread
        out = incremental_select(wind_fixture, OffsetDistribution("normal", mean=25.0, std=25.0), seed=2)
        orig_std = wind_fixture.values.std(ddof=1)
        assert abs(out.values.values.std(ddof=1) - orig_std) / orig_std < 0.01

    def test_provenance(self, rng):
        s = HourlySeries(np.abs(rng.normal(10, 1, size=30)))
        out = incremental_select(s, OffsetDistribution("exponential", mean=2.0), seed=4)
        assert out.method == "incremental_select"
        assert out.seed == 4
        assert out.source_checksums == (s.checksum(),)


class TestAlteredDifference:
    def test_alpha_zero_returns_low(self, rng):
        high = HourlySeries(rng.normal(10, 1, size=30))
        low = HourlySeries(rng.normal(8, 1, size=30))
        out = altered_difference(high, low, 0.0)
        assert out.values.values.tolist() == low.values.tolist()

    def test_hand_arithmetic(self):
        high = HourlySeries(np.array([10.0, 8.0]))
        low = HourlySeries(np.array([6.0, 9.0]))
        out = altered_difference(high, low, 0.5)
        assert out.values.values.tolist() == [4.0, 9.5]

    def test_clamps(self):
        high = HourlySeries(np.array([10.0, 8.0]))
        low = HourlySeries(np.array([6.0, 9.0]))
        out = altered_difference(high, low, 0.5, delta_nonneg=True)
        assert out.values.values.tolist() == [4.0, 9.0]
        out2 = altered_difference(high, low, 3.0, result_nonneg=True)
        assert out2.values.values.tolist() == [0.0, 12.0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            altered_difference(HourlySeries(np.ones(3)), HourlySeries(np.ones(4)), 0.5)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=50),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80)
    def test_matches_elementwise_oracle(self, lows, alpha, dn, rn, seed):
        r = np.random.default_rng(seed)
        highs = [v + float(r.normal(0, 10)) for v in lows]
        out = altered_difference(HourlySeries(np.array(highs)), HourlySeries(np.array(lows)), alpha, dn, rn)
        expected = brute_altered_difference(highs, lows, alpha, dn, rn)
        np.testing.assert_allclose(out.values.values, expected, rtol=1e-12, atol=1e-12)


class TestDirectionAudit:
    def test_identity_has_zero_days(self, wind_fixture):
        altered = altered_difference(wind_fixture, wind_fixture, 1.0)
        report = direction_audit(altered, wind_fixture)
        assert report["days_below"] == 0 and report["days_above"] == 0

    def test_systematic_drop_shows_up(self, wind_fixture):
        out = incremental_select(
            wind_fixture,
            OffsetDistribution("exponential", mean=0.15 * float(wind_fixture.values.mean())),
            ClampPolicy(alpha_max=1.0, alpha_min=0.0),
            seed=6,
        )
        report = direction_audit(out, wind_fixture)
        assert report["days_below"] > 0
        assert report["days_above"] == 0
        assert "mean" in report["stats"]
