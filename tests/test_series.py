from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthseries.errors import (
    EmptyFile,
    InvalidChunkLength,
    MissingColumn,
    IOErrorSS,
    SynthSeriesError,
    UndecodableFile,
    UnparseableValue,
    ValidationError,
)
from synthseries.series import HourlySeries, chunk_sums, circular_get, load_csv, write_csv

from . import oracles

finite_values = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValidationError):
        HourlySeries(np.array([]))
    with pytest.raises(ValidationError):
        HourlySeries(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        HourlySeries(np.array([np.inf]))


def test_non_negative_flag():
    HourlySeries(np.array([0.0, 1.0])).require_non_negative()
    with pytest.raises(ValidationError):
        HourlySeries(np.array([-0.1, 1.0])).require_non_negative()


def test_values_immutable():
    s = HourlySeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 9.0


class TestCircularGet:
    def test_negative_wraps_to_last(self):
        s = HourlySeries(np.array([10.0, 20.0, 30.0]))
        assert circular_get(s, -1) == 30.0

    def test_overflow_wraps_to_first(self):
        s = HourlySeries(np.array([10.0, 20.0, 30.0]))
        assert circular_get(s, 3) == 10.0

    def test_year_length_wrap(self):
        vals = np.arange(8760, dtype=float)
        s = HourlySeries(vals)
        assert circular_get(s, -2) == vals[8758]

    @given(finite_values, st.integers(min_value=-10_000, max_value=10_000))
    @settings(max_examples=60)
    def test_periodicity(self, values, i):
        s = HourlySeries(np.array(values))
        assert circular_get(s, i) == circular_get(s, i + len(s))


class TestChunk:
    def test_exact_division(self):
        # blocks [1, 2], [3, 4]
        assert chunk_sums(np.array([1.0, 2.0, 3.0, 4.0]), 2).tolist() == [3.0, 7.0]

    def test_wrap_padding(self):
        # blocks [1, 2], [3, 4], [5, 1]: the ragged block takes the first value
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert chunk_sums(vals, 2).tolist() == [3.0, 7.0, 6.0]
        assert chunk_sums(np.stack([vals, 10 * vals]), 2).tolist() == [[3.0, 7.0, 6.0], [30.0, 70.0, 60.0]]

    def test_year_into_days(self):
        vals = np.arange(1, 8761, dtype=float)  # 1-based values mirror hour numbers
        sums = chunk_sums(vals, 24)
        assert sums.shape == (365,)
        assert sums[-1] == sum(range(8737, 8761))

    def test_invalid_length(self):
        for vals in (np.array([1.0, 2.0]), np.ones((3, 2))):
            for bad in (0, 3, -1):
                with pytest.raises(InvalidChunkLength):
                    chunk_sums(vals, bad)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_padded_copy(self, data):
        """Byte for byte the sums of each row's wrap-padded copy, 1-D or 2-D."""
        n = data.draw(st.integers(min_value=1, max_value=600), label="n")
        length = data.draw(st.one_of(
            st.integers(min_value=1, max_value=n),
            st.just(n),
            st.integers(min_value=1, max_value=min(n, 7)),
            st.integers(min_value=min(n, 129), max_value=n),
        ), label="length")
        rows = data.draw(st.sampled_from([None, 1, 2, 5]), label="rows")
        r = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed"))
        vals = odd_floats(r, (rows or 1) * n).reshape(-1, n)
        if rows is None:
            vals = vals[0]
        expected = np.array([oracles.padded_chunk_sums(row, length) for row in np.atleast_2d(vals)])
        got = chunk_sums(vals, length)
        assert got.shape == (expected.shape if rows else expected.shape[1:])
        assert got.tobytes() == expected.tobytes()

    def test_no_padded_copy_of_the_matrix(self):
        vals = np.random.default_rng(0).uniform(size=(64, 1000))  # 1000 = 142 * 7 + 6: ragged
        tracemalloc.start()
        try:
            chunk_sums(vals, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the sums and their copy with the ragged block appended; a padded copy
        # alone would be more than vals.nbytes
        assert peak < vals.nbytes / 2


def odd_floats(r: np.random.Generator, size: int) -> np.ndarray:
    """Uniform, Cauchy, signed-zero or mixed-magnitude values: inputs on which
    a different summation order shows in the last bits."""
    kind = r.integers(4)
    if kind == 0:
        return r.uniform(0, 100, size=size)
    if kind == 1:
        return r.standard_cauchy(size=size)
    if kind == 2:
        return r.choice([0.0, -0.0, 1.0, -2.5, 1e-300], size=size)
    return r.normal(size=size) * 10.0 ** r.integers(-8, 9, size=size)


class TestCsv:
    def test_direct_readback(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("value\n1.0\n2.0\n3.0\n", encoding="utf-8")
        s = load_csv(p)
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_blank_cell_row_numbered(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["value"] + [str(float(i)) for i in range(1, 7)] + ["", "8.0"]
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(UnparseableValue) as exc:
            load_csv(p)
        assert exc.value.row == 7

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("foo\n1\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_csv(p)
        p.write_text("value\n", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_csv(p)

    @pytest.mark.parametrize("content", [b"value\n1.0\n\xff\n", b"timestamp,value\nt\xe9,1.0\n", b"\xff"])
    def test_not_utf8_is_an_io_error_naming_the_file(self, tmp_path, content):
        p = tmp_path / "latin.csv"
        p.write_bytes(content)
        with pytest.raises(UndecodableFile, match="latin.csv") as exc:
            load_csv(p, timestamp_column="timestamp" if b"," in content else None)
        assert isinstance(exc.value, IOErrorSS)

    def test_timestamp_column(self, tmp_path):
        p = tmp_path / "ts.csv"
        p.write_text("timestamp,value\n2021-01-01T00,5.5\n2021-01-01T01,6.5\n", encoding="utf-8")
        s = load_csv(p, timestamp_column="timestamp")
        assert s.start_timestamp == "2021-01-01T00"
        assert s.values.tolist() == [5.5, 6.5]

    @given(values=finite_values)
    @settings(max_examples=40)
    def test_roundtrip_full_precision(self, values):
        s = HourlySeries(np.array(values))
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "s.csv"
            write_csv(s, p)
            back = load_csv(p)
        assert back.values.tolist() == s.values.tolist()


EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 1e16, 1.7976931348623157e308,
    -5e-324, -1e-05, -1e16, -1.7976931348623157e308, 0.1, -2.5, 1234.5678, 1e22,
]


def _load_outcome(load, path, **kwargs):
    """What a loader makes of a file: bit-exact values, label and stamps, or
    the exception class and row it raised."""
    try:
        out = load(path, **kwargs)
    except SynthSeriesError as exc:
        return type(exc), getattr(exc, "row", None)
    if isinstance(out, HourlySeries):
        out = (out.values.tolist(), out.label, out.timestamps)
    values, label, stamps = out
    return np.array(values, dtype=float).tobytes(), label, stamps


class TestCsvCodec:
    """The bulk codec against the row-by-row one it replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("values", [EDGE_VALUES, EDGE_VALUES[::-1], [-0.0] * 3 + [0.0] * 3, [7.0]])
    def test_writer_bytes_match_csv_writer(self, tmp_path, values):
        write_csv(HourlySeries(np.array(values)), tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == oracles.csv_writer_text(values).encode()

    def test_timestamped_writer_bytes_match_csv_writer(self, tmp_path):
        stamps = ("2021-01-01T00", "", " padded ", "a,b", 'say "hi"', "two\nlines", "cr\r", "ü")
        values = EDGE_VALUES[: len(stamps)]
        write_csv(HourlySeries(np.array(values), timestamps=stamps), tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == oracles.csv_writer_text(values, stamps).encode()

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           stamps=st.none() | st.lists(st.text(max_size=6), min_size=40, max_size=40))
    @settings(max_examples=60)
    def test_writer_bytes_match_csv_writer_fuzzed(self, values, stamps):
        stamps = None if stamps is None else tuple(stamps[: len(values)])
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "s.csv"
            write_csv(HourlySeries(np.array(values), timestamps=stamps), p)
            assert p.read_bytes() == oracles.csv_writer_text(values, stamps).encode()

    @pytest.mark.parametrize("text, kwargs", [
        ("value\n1.5\n-0.0\n2e-3\n", {}),
        ("value\r\n1.5\r\n-0.0\r\n2e-3\r\n", {}),
        ("value\r1.5\r-0.0\r2e-3\r", {}),
        ("value\r\n1.5\n-0.0\r2e-3", {}),
        ("value\n1.5\n2.5", {}),
        ("  value \n 1.5 \n\t2.5\t\n", {}),
        ('value\n"1.5"\n" 2.5"\n', {}),
        ('"value"\n1.5\n', {}),
        ("timestamp,value\n2021-01-01T00,1.5\n2021-01-01T01,2.5\n", {}),
        ("timestamp,value\n2021-01-01T00,1.5\n2021-01-01T01,2.5\n", {"timestamp_column": "timestamp"}),
        ("other,value\n9,1.5\n9\n", {}),
        ("value\n1.5\n\n2.5\n", {}),
        ("value\n1.5\n2.5\n\n", {}),
        ("value\n1.5\n   \n", {}),
        ("value\n1.5\nnan\n", {}),
        ("value\n1.5\n-inf\n", {}),
        ("value\ninfinity\n", {}),
        ("value\n1.5\nabc\n", {}),
        ("value\n1_5\n", {}),
        ("value\n", {}),
        ("", {}),
        ("\n", {}),
        ("\nvalue\n1.5\n", {}),
        ("values\n1.5\n", {}),
        ("value\n1.5\n", {"timestamp_column": "timestamp"}),
        ("value\n1.5\x00\n", {}),
    ])
    def test_loader_matches_csv_reader(self, tmp_path, text, kwargs):
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        assert _load_outcome(load_csv, p, **kwargs) == _load_outcome(oracles.csv_reader_load, p, **kwargs)

    @given(cells=st.lists(st.sampled_from(
               ["1.5", " 2 ", "-0.0", "5e-324", "1e16", "", "  ", "nan", "inf", "x", '"3"', "4,5", "value"]),
               max_size=8),
           header=st.sampled_from(["value", " value", "x", ""]),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           final=st.booleans())
    @settings(max_examples=120)
    def test_loader_matches_csv_reader_fuzzed(self, cells, header, newline, final):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "s.csv"
            p.write_bytes((newline.join([header, *cells]) + (newline if final else "")).encode())
            assert _load_outcome(load_csv, p) == _load_outcome(oracles.csv_reader_load, p)
