from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthseries.ensemble import Ensemble
from synthseries.errors import ConfigError, LengthMismatch, SeriesTooShort
from synthseries.sbb import generate_sbb_batch
from synthseries.series import HourlySeries
from synthseries.stats import (
    Threshold,
    empirical_distribution,
    ensemble_summary_table,
    overage,
    summarize,
    underage,
)

from .oracles import brute_exceedance, series_exceedance


class TestSummarize:
    def test_constant_series(self):
        s = HourlySeries(np.full(100, 5.0))
        st_ = summarize(s)
        assert st_.std == 0.0 and st_.coeff_of_variation == 0.0
        assert st_.q1 == st_.median == st_.q3 == 5.0

    def test_order_invariants(self, rng):
        s = HourlySeries(rng.normal(50, 10, size=300))
        r = summarize(s)
        assert r.min <= r.q1 <= r.median <= r.q3 <= r.max
        assert r.std >= 0

    def test_cov_consistency(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 20, size=500)) + 1)
        r = summarize(s)
        assert abs(r.coeff_of_variation * r.mean - r.std) <= 1e-9 * abs(r.std)

    def test_autocorr_of_periodic_signal(self):
        vals = np.tile(np.sin(np.linspace(0, 2 * np.pi, 24, endpoint=False)), 40)
        r = summarize(HourlySeries(vals), autocorr_lag=24)
        # non-circular estimator loses the lagged-out tail: (n - lag) / n
        n = vals.size
        assert r.autocorr == pytest.approx((n - 24) / n, abs=1e-6)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            summarize(HourlySeries(np.ones(10)), autocorr_lag=24)

    @pytest.mark.parametrize("lag", [0, -2])
    def test_lag_below_one(self, lag):
        # a lag of 0 used to fail inside numpy and a negative one to return a number
        with pytest.raises(ConfigError):
            summarize(HourlySeries(np.arange(10.0)), autocorr_lag=lag)


class TestThreshold:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Threshold(kind="absolute", e=-1)
        with pytest.raises(ConfigError):
            Threshold(kind="proportional", alpha=-0.1)
        with pytest.raises(ConfigError):
            Threshold(kind="relative")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("kind, key", [("absolute", "e"), ("proportional", "alpha")])
    def test_non_finite_rejected(self, kind, key, value):
        with pytest.raises(ConfigError, match="finite"):
            Threshold(kind=kind, **{key: value})


class TestExceedance:
    def test_identity_is_zero(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 10, size=240)))
        thr = Threshold(kind="proportional", alpha=0.05)
        assert underage(s, s, 24, thr) == (0.0, 0)
        assert overage(s, s, 24, thr) == (0.0, 0)

    def test_hand_example(self):
        # chunk totals: original [100, 100, 100], synthetic [90, 97, 100]
        orig = HourlySeries(np.array([50.0, 50.0, 50.0, 50.0, 50.0, 50.0]))
        synth = HourlySeries(np.array([45.0, 45.0, 48.0, 49.0, 50.0, 50.0]))
        thr = Threshold(kind="proportional", alpha=0.05)
        total, count = underage(orig, synth, 2, thr)
        assert count == 1 and total == pytest.approx(10.0)

    def test_overage_is_mirror(self):
        orig = HourlySeries(np.array([45.0, 45.0, 48.0, 49.0, 50.0, 50.0]))
        synth = HourlySeries(np.array([50.0, 50.0, 50.0, 50.0, 50.0, 50.0]))
        thr = Threshold(kind="proportional", alpha=0.05)
        total, count = overage(orig, synth, 2, thr)
        assert count == 1 and total == pytest.approx(10.0)

    def test_length_mismatch(self):
        thr = Threshold(kind="absolute", e=1.0)
        with pytest.raises(LengthMismatch):
            underage(HourlySeries(np.ones(4)), HourlySeries(np.ones(5)), 2, thr)

    def test_full_length_chunk(self, rng):
        s = HourlySeries(np.abs(rng.normal(10, 3, size=48)))
        t = HourlySeries(np.abs(rng.normal(10, 3, size=48)))
        thr = Threshold(kind="absolute", e=0.0)
        assert underage(s, t, 48, thr)[1] in (0, 1)

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=10),
        st.sampled_from(["absolute", "proportional"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, seed, length, kind):
        r = np.random.default_rng(seed)
        n = int(r.integers(length, 10 * length + 1))  # <= 10 chunks
        orig = r.uniform(0, 100, size=n)
        synth = r.uniform(0, 100, size=n)
        param = float(r.uniform(0, 20)) if kind == "absolute" else float(r.uniform(0, 0.3))
        thr = Threshold(kind=kind, e=param, alpha=param)
        o, s = HourlySeries(orig), HourlySeries(synth)
        for direction, fn in [("under", underage), ("over", overage)]:
            got_sum, got_count = fn(o, s, length, thr)
            exp_sum, exp_count = brute_exceedance(orig, synth, length, kind, param, direction)
            assert got_count == exp_count
            assert got_sum == pytest.approx(exp_sum, rel=1e-12, abs=1e-9)
            assert (got_sum, got_count) == series_exceedance(orig, synth, length, kind, param, direction)


class TestEmpiricalDistribution:
    def test_point_mass_for_b1(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 20, size=96)))
        ens = generate_sbb_batch(s, 2, 3, B=1, master_seed=1)
        thr = Threshold(kind="proportional", alpha=0.05)
        rep = empirical_distribution(ens, s, "underage_count", 24, thr)
        assert rep.masses.tolist() == [1.0]

    def test_masses_sum_to_one(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 20, size=96)))
        ens = generate_sbb_batch(s, 2, 3, B=17, master_seed=1)
        thr = Threshold(kind="proportional", alpha=0.05)
        rep = empirical_distribution(ens, s, "underage", 24, thr)
        assert rep.masses.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("statistic", ["underage", "overage", "underage_count", "overage_count"])
    @pytest.mark.parametrize("kind, param", [("absolute", 0.0), ("absolute", 25.0), ("proportional", 0.05)])
    @pytest.mark.parametrize("source, length", [("solar", 24), ("wind", 5), ("wind", 7), ("mixed", 24)])
    def test_equals_the_per_member_reference(self, request, statistic, kind, param, source, length):
        """Byte for byte the values of one padded-copy comparison per member."""
        if source == "mixed":
            r = np.random.default_rng(5)
            scale = 10.0 ** r.integers(-3, 6, size=2001)
            s = HourlySeries(r.normal(0, 1, size=2001) * scale)
            ens = Ensemble(s.values + r.normal(0, 1, size=(25, 2001)) * scale, "test", {}, 0, s.checksum())
        else:
            s = request.getfixturevalue(f"{source}_fixture")
            ens = generate_sbb_batch(s, 2, 5, B=25, master_seed=3)
        rep = empirical_distribution(ens, s, statistic, length, Threshold(kind=kind, e=param, alpha=param))
        direction = "under" if statistic.startswith("under") else "over"
        field = 1 if statistic.endswith("_count") else 0
        expected = np.array([series_exceedance(s.values, row, length, kind, param, direction)[field]
                             for row in ens.values], dtype=float)
        assert rep.values.tobytes() == expected.tobytes()

    def test_unknown_statistic(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 20, size=96)))
        ens = generate_sbb_batch(s, 2, 3, B=2, master_seed=1)
        with pytest.raises(ConfigError):
            empirical_distribution(ens, s, "median_gap", 24, Threshold(kind="absolute", e=0))


class TestSummaryTable:
    def test_b1_columns_collapse(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 20, size=200)))
        ens = generate_sbb_batch(s, 2, 3, B=1, master_seed=1)
        table = ensemble_summary_table(ens, s, autocorr_lag=24)
        for row, entry in table.items():
            assert entry["mean"] == entry["min"] == entry["max"] == entry["50%"]
            assert entry["std"] == 0.0

    def test_has_canonical_rows(self, rng):
        s = HourlySeries(np.abs(rng.normal(100, 20, size=200)))
        ens = generate_sbb_batch(s, 2, 3, B=3, master_seed=1)
        table = ensemble_summary_table(ens, s, autocorr_lag=24)
        assert list(table.keys()) == [
            "Min", "First Quartile", "Median", "Third Quartile", "Max",
            "Mean", "Standard Dev.", "Coeff. of Var.", "Autocorr. Lag: 24",
        ]
        assert all("original" in entry for entry in table.values())

    @pytest.mark.parametrize("source", ["solar", "wind", "mixed"])
    def test_columns_equal_a_loop_over_the_members(self, source, request, rng):
        """The axis-1 statistics give the bytes of one 1-D computation per member."""
        s = (HourlySeries(rng.normal(0, 1, size=500) * 10.0 ** rng.integers(-3, 6, size=500)) if source == "mixed"
             else request.getfixturevalue(f"{source}_fixture"))
        ens = generate_sbb_batch(s, 2, 5, B=25, master_seed=3)
        per_member = [loop_summary(row, 24) for row in ens.values]
        for b, row in enumerate(ens.values):
            assert list(summarize(HourlySeries(row)).as_dict().values()) == per_member[b]
        table = ensemble_summary_table(ens, s, autocorr_lag=24)
        for i, entry in enumerate(table.values()):
            col = np.array([m[i] for m in per_member])
            q1, med, q3 = np.percentile(col, [25, 50, 75])
            expected = [col.mean(), col.std(ddof=1), col.min(), q1, med, q3, col.max(), loop_summary(s.values, 24)[i]]
            assert list(entry.values()) == [float(v) for v in expected]


def loop_summary(vals: np.ndarray, lag: int) -> list[float]:
    """min, quartiles, max, mean, std, coefficient of variation and lag autocorrelation of one series."""
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    mean, std = float(vals.mean()), float(vals.std(ddof=1))
    x = vals - vals.mean()
    acf = float(x[:-lag] @ x[lag:]) / float(x @ x) if float(x @ x) else 0.0
    return [float(vals.min()), float(q1), float(med), float(q3), float(vals.max()),
            mean, std, std / mean if mean != 0 else 0.0, acf]
