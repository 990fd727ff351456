from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthseries.adequacy import VreWeights, ensemble_adequacy
from synthseries.ensemble import _RUN_VALUES, Ensemble, run_batch
from synthseries.errors import ConfigError, LengthMismatch, SeriesTooShort, ValidationError
from synthseries.sbb import generate_sbb_batch
from synthseries.series import HourlySeries
from synthseries.stats import (
    _STATISTICS,
    ExceedanceReport,
    Threshold,
    _exceedance,
    _row_stats,
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

    @pytest.mark.parametrize("values", [
        np.tile([1e308, 1.5e308], 48),  # the sum for the mean
        np.tile([1e305, -1e305], 48),  # the sum of squares
    ])
    def test_statistic_that_overflows_is_validation_error(self, values):
        # every value is finite; the mean or std used to be written as inf and
        # the autocorrelation as nan
        with pytest.raises(ValidationError, match="overflow"):
            summarize(HourlySeries(values))


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

    @pytest.mark.parametrize("fn", [underage, overage])
    @pytest.mark.parametrize("orig, synth", [
        (np.repeat([7e306, -7e306], 24), np.repeat([-7e306, 7e306], 24)),  # a gap (2 * 1.68e308)
        (np.full(48, 1e307), np.full(48, 1e307)),  # a chunk total (24 * 1e307)
    ])
    def test_total_that_overflows_is_validation_error(self, fn, orig, synth):
        with pytest.raises(ValidationError, match="overflow"):
            fn(HourlySeries(orig), HourlySeries(synth), 24, Threshold(kind="absolute", e=0.0))

    def test_spread_that_overflows_is_validation_error(self):
        values = np.array([1.7e308, 1.7e308])
        with pytest.raises(ValidationError, match="overflow"):
            ExceedanceReport("underage", values, np.full(2, 0.5)).describe()

    @pytest.mark.parametrize("values", [
        [3.0],  # std 0.0, as one member's table column has
        [2.5, -0.0],
        [4.0, 1.0, 4.0, 0.0, 7.25, 1.0, 4.0],
    ])
    def test_describe_gives_the_bytes_of_numpy_on_the_values(self, values):
        values = np.array(values)
        got = ExceedanceReport("underage", values, np.full(values.size, 1 / values.size)).describe()
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        std = values.std(ddof=1) if values.size > 1 else 0.0
        expected = [values.mean(), std, values.min(), q1, med, q3, values.max()]
        assert list(got) == ["mean", "std", "min", "q1", "median", "q3", "max"]
        assert np.array(list(got.values())).tobytes() == np.array(expected, dtype=float).tobytes()

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

    @pytest.mark.parametrize("B", [1, 2, 25])
    @pytest.mark.parametrize("source", ["solar", "wind", "mixed"])
    def test_columns_equal_a_loop_over_the_members(self, source, B, request, rng):
        """The axis-1 statistics give the bytes of one 1-D computation per member."""
        s = (HourlySeries(rng.normal(0, 1, size=500) * 10.0 ** rng.integers(-3, 6, size=500)) if source == "mixed"
             else request.getfixturevalue(f"{source}_fixture"))
        ens = generate_sbb_batch(s, 2, 5, B=B, master_seed=3)
        per_member = [loop_summary(row, 24) for row in ens.values]
        for b, row in enumerate(ens.values):
            assert list(summarize(HourlySeries(row)).as_dict().values()) == per_member[b]
        table = ensemble_summary_table(ens, s, autocorr_lag=24)
        for i, entry in enumerate(table.values()):
            col = np.array([m[i] for m in per_member])
            q1, med, q3 = np.percentile(col, [25, 50, 75])
            std = col.std(ddof=1) if B > 1 else 0.0
            expected = [col.mean(), std, col.min(), q1, med, q3, col.max(), loop_summary(s.values, 24)[i]]
            assert list(entry.values()) == [float(v) for v in expected]


def loop_summary(vals: np.ndarray, lag: int) -> list[float]:
    """min, quartiles, max, mean, std, coefficient of variation and lag autocorrelation of one series."""
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    mean, std = float(vals.mean()), float(vals.std(ddof=1))
    x = vals - vals.mean()
    ss = float(np.multiply(x, x).sum())
    acf = float(np.multiply(x[:-lag], x[lag:]).sum()) / ss if ss else 0.0
    return [float(vals.min()), float(q1), float(med), float(q3), float(vals.max()),
            mean, std, std / mean if mean != 0 else 0.0, acf]


def _batch(rng, B: int, n: int, seed: int = 7) -> tuple[HourlySeries, Ensemble]:
    """A source of n values, a third of them zeros and the rest rounded, and a
    batch of B members drawn from it as source indices."""
    values = np.round(np.abs(rng.normal(100, 30, size=n)), 3)
    values[: n // 3] = 0.0
    source = HourlySeries(values)
    return source, run_batch(lambda r: r.integers(0, n, size=n), source, "sbb", {}, B, seed)


class TestRowBlocks:
    """The statistics read members in blocks of about _RUN_VALUES values, and
    adequacy one member at a time, so a coded ensemble is never decoded
    whole; every row-wise result has the bytes of the whole matrix's."""

    RUN_ROWS = _RUN_VALUES // 720
    SHAPES = [(1, 720), (RUN_ROWS - 1, 720), (RUN_ROWS, 720), (RUN_ROWS + 1, 720), (3, _RUN_VALUES + 5)]
    THRESHOLD = Threshold("proportional", alpha=0.05)

    @pytest.mark.parametrize("B, n", SHAPES)
    def test_blocks_give_the_bytes_of_the_whole_matrix(self, rng, B, n):
        source, ens = _batch(rng, B, n)
        blocks = list(ens.blocks())
        assert [len(rows) for rows in blocks[:-1]] == [max(1, _RUN_VALUES // n)] * (len(blocks) - 1)
        whole = ens.values
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        by_block = [_row_stats(rows, 24) for rows in blocks]
        for name, column in _row_stats(whole, 24).items():
            assert np.concatenate([stats[name] for stats in by_block]).tobytes() == column.tobytes()
        for under in (True, False):
            by_block = [_exceedance(source, rows, 24, self.THRESHOLD, under) for rows in blocks]
            for field, column in enumerate(_exceedance(source, whole, 24, self.THRESHOLD, under)):
                assert np.concatenate([result[field] for result in by_block]).tobytes() == column.tobytes()

    @pytest.mark.parametrize("B, n", SHAPES)
    def test_coded_and_values_alone_give_the_same_bytes(self, rng, B, n):
        source, coded = _batch(rng, B, n)
        _, wind = _batch(rng, B + 1, n, seed=8)
        plain = Ensemble(coded.rows(0, B), coded.method, coded.config, coded.master_seed, coded.source_checksum)
        nuclear, load = HourlySeries(np.full(n, 40.0)), HourlySeries(source.values * 1.5 + 50.0)
        results = []
        for ens in (coded, plain):
            results.append((
                repr(ensemble_summary_table(ens, source)),
                [empirical_distribution(ens, source, statistic, 24, self.THRESHOLD).values.tobytes()
                 for statistic in _STATISTICS],
                [repr(r) for r in ensemble_adequacy(ens, wind, nuclear, load, VreWeights(1.5, 2.0), 3, pairs=B + 2)],
            ))
        assert results[0] == results[1]
        assert "values" not in vars(coded) and "values" not in vars(wind)

    # tracemalloc peaks of a load, then the summary table and one exceedance
    # statistic, measured on numpy 2.4.6: 3.97 MiB at (2000, 720) in the suite
    # and 4.91 MiB in a fresh interpreter, 2.75 MiB of it the uint16 codes,
    # and 3.60 MiB at (100, 8760), the load's own. One float64 matrix of the
    # members is 11.5 MB and 7.0 MB, and loading into one took 23.3 and
    # 13.4 MiB.
    @pytest.mark.parametrize("B, n, bound", [(2000, 720, 7 * 2**20), (100, 8760, 5 * 2**20)])
    def test_analysis_memory_stays_below_one_float_matrix(self, tmp_path, rng, B, n, bound):
        source, ens = _batch(rng, B, n)
        ens.save(tmp_path)
        tracemalloc.start()
        try:
            back = Ensemble.load(tmp_path)
            ensemble_summary_table(back, source)
            empirical_distribution(back, source, "underage", 24, self.THRESHOLD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    # peaks of ensemble_adequacy over two loaded ensembles, measured on numpy
    # 2.4.6: 0.35 MiB at (2000, 720) and 0.28 MiB at (100, 8760), with a
    # result per pair; decoding either ensemble whole would take 11.5 or 7.0 MB
    @pytest.mark.parametrize("B, n", [(2000, 720), (100, 8760)])
    def test_adequacy_memory_stays_at_a_few_members(self, tmp_path, rng, B, n):
        source, solar = _batch(rng, B, n)
        solar.save(tmp_path / "solar")
        _batch(rng, B, n, seed=8)[1].save(tmp_path / "wind")
        solar, wind = Ensemble.load(tmp_path / "solar"), Ensemble.load(tmp_path / "wind")
        nuclear, load = HourlySeries(np.full(n, 40.0)), HourlySeries(source.values * 1.5 + 50.0)
        tracemalloc.start()
        try:
            ensemble_adequacy(solar, wind, nuclear, load, VreWeights(1.5, 2.0), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
