from __future__ import annotations

import json
import shutil
import tracemalloc

import numpy as np
import pytest

from synthseries import ensemble
from synthseries.ensemble import _RUN_VALUES, Ensemble, child_rng, child_seed, run_batch
from synthseries.errors import (
    ChecksumMismatch,
    ConfigError,
    IOErrorSS,
    LengthMismatch,
    MalformedManifest,
    SynthSeriesError,
    ValidationError,
)
from synthseries.kernels import uniform_kernel
from synthseries.sbb import build_windows, find_window_pools, generate_sbb_batch
from synthseries.series import HourlySeries, load_csv

from . import oracles
from .conftest import shorten_member


def test_child_seeds_distinct_and_stable():
    seen = {child_seed(42, b) for b in range(100)}
    assert len(seen) == 100
    assert child_seed(42, 7) == child_seed(42, 7)
    assert child_seed(42, 7) != child_seed(43, 7)


def test_child_rng_streams_independent():
    a = child_rng(1, 0).normal(size=8)
    b = child_rng(1, 1).normal(size=8)
    assert not np.allclose(a, b)
    assert np.allclose(a, child_rng(1, 0).normal(size=8))


def test_save_load_roundtrip(tmp_path, rng):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=60)), label="toy")
    ens = generate_sbb_batch(s, 2, 3, B=4, master_seed=17)
    ens.save(tmp_path / "ens")
    back = Ensemble.load(tmp_path / "ens")
    assert back.method == "sbb"
    assert back.master_seed == 17
    assert back.source_checksum == s.checksum()
    for orig, loaded in zip(ens.series, back.series):
        assert orig.values.tolist() == loaded.values.tolist()


def test_manifest_contents(tmp_path, rng):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=60)))
    ens = generate_sbb_batch(s, 2, 3, B=2, master_seed=5)
    ens.save(tmp_path / "ens")
    manifest = json.loads((tmp_path / "ens" / "manifest.json").read_text())
    assert manifest["config"] == {"sash": 2, "p": 3, "kernel": "uniform", "include_self": True, "B": 2}
    assert "default_rng([master_seed, b])" in manifest["child_seed_rule"]
    assert len(manifest["series_checksums"]) == 2


def test_manifest_regenerates_members(tmp_path, rng):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=60)))
    generate_sbb_batch(s, 2, 3, B=3, master_seed=5).save(tmp_path / "ens")
    manifest = json.loads((tmp_path / "ens" / "manifest.json").read_text())
    config = manifest["config"]
    pools = find_window_pools(build_windows(s, config["sash"]), config["p"], config["include_self"])
    for b, name in enumerate(manifest["series_files"]):
        member_rng = np.random.default_rng([manifest["master_seed"], b])
        ranks = member_rng.choice(config["p"], size=len(s), p=uniform_kernel(config["p"]).probabilities)
        expected = s.values[pools.indices[np.arange(len(s)), ranks]]
        assert load_csv(tmp_path / "ens" / name).values.tobytes() == expected.tobytes()


def _saved(ens: Ensemble, directory) -> dict[str, bytes]:
    ens.save(directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _values_alone(ens: Ensemble) -> Ensemble:
    """The members of ``ens`` passed to the constructor, which codes them
    afresh by their distinct bit patterns."""
    return Ensemble(ens.values, ens.method, ens.config, ens.master_seed, ens.source_checksum)


def test_batch_saves_the_bytes_of_its_values_alone(tmp_path, rng):
    """A batch's table is its source and its codes are source indices; the
    constructor, given the same values, tables their distinct bit patterns
    instead. Both write the same directory, manifest included, across a run
    boundary."""
    values = np.round(np.abs(rng.normal(100, 30, size=500)), 1)
    values[100:200] = 0.0
    values[150:170] = -0.0
    s = HourlySeries(values)
    ens = generate_sbb_batch(s, 2, 5, B=_RUN_VALUES // 500 + 3, master_seed=5)
    zeros = ens.values[ens.values == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert _saved(ens, tmp_path / "coded") == _saved(_values_alone(ens), tmp_path / "plain")


@pytest.mark.parametrize("n, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.uint32)])
def test_index_matrix_is_uint16_up_to_65536_values(tmp_path, n, dtype):
    """Members that take every source index, the last one included, are
    decoded and saved as from their values alone."""
    source = HourlySeries(np.round(np.random.default_rng(n).normal(size=n), 2))
    ens = run_batch(lambda r: r.permutation(n), source, "sbb", {}, 2, 9)
    coded = _saved(ens, tmp_path / "coded")
    assert len(ens) == 2 and "values" not in vars(ens)  # saved without decoding its values whole
    codes = ens._coded[1]
    assert codes.dtype == dtype and not codes.flags.writeable
    want = np.stack([source.values[child_rng(9, b).permutation(n)] for b in range(2)])
    assert ens.values.tobytes() == want.tobytes() and not ens.values.flags.writeable
    assert coded == _saved(_values_alone(ens), tmp_path / "plain")
    assert Ensemble(np.arange(n, dtype=float)[None], "sbb", {}, 0, "x")._coded[1].dtype == dtype


@pytest.mark.parametrize("entry", ["constructor", "decode"])
@pytest.mark.parametrize("values, error", [
    (np.array([[1.0, np.nan, 3.0]]), ValidationError),
    (np.array([[1.0, np.inf]]), ValidationError),
    (np.array([[-np.inf, 1.0]]), ValidationError),
    (np.ones(3), ConfigError),
    (np.ones((2, 3, 1)), ConfigError),
    (np.ones((3, 0)), ConfigError),
    (np.ones((0, 3)), ConfigError),
], ids=["nan", "inf", "-inf", "1-D", "3-D", "3x0", "0x3"])
def test_decode_checks_what_the_constructor_checks(values, error, entry):
    """Each bad matrix, given to the constructor or as the pair whose table
    is its values and whose codes are their places."""
    with pytest.raises(error):
        if entry == "constructor":
            Ensemble(values, "sbb", {}, 0, "x")
        else:
            codes = np.arange(values.size, dtype=np.uint16).reshape(values.shape)
            Ensemble.decode(values.ravel(), codes, "sbb", {}, 0, "x")


def test_constructor_copies_the_callers_matrix(tmp_path):
    """A later write to the caller's array reaches neither the members, nor
    their values, nor the saved files; the caller's array stays writeable."""
    a = np.array([[1.0, 2.0, 3.0]])
    ens = Ensemble(a, "sbb", {}, 0, "x")
    a[0, 0] = 99.0
    assert a.flags.writeable and a[0, 0] == 99.0
    assert ens.rows(0, 1).tolist() == [[1.0, 2.0, 3.0]]
    saved = _saved(ens, tmp_path)
    assert saved["series_0000.csv"] == oracles.csv_writer_text([1.0, 2.0, 3.0]).encode()
    assert json.loads(saved["manifest.json"])["series_checksums"] == [HourlySeries([1.0, 2.0, 3.0]).checksum()]
    assert ens.values.tolist() == [[1.0, 2.0, 3.0]]


def test_child_seed_is_the_child_rng_seed():
    assert (np.random.default_rng(child_seed(9, 4)).random(4) == child_rng(9, 4).random(4)).all()


def test_load_rejects_an_edited_member(tmp_path, rng):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=60)))
    generate_sbb_batch(s, 2, 3, B=2, master_seed=5).save(tmp_path / "ens")
    member = tmp_path / "ens" / "series_0000.csv"
    lines = member.read_text().splitlines()
    lines[5] = repr(float(lines[5]) + 1.0)
    member.write_text("\n".join(lines) + "\n")
    with pytest.raises(ChecksumMismatch, match="series_0000.csv"):
        Ensemble.load(tmp_path / "ens")


def test_load_rejects_a_member_of_another_length(tmp_path, rng):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=96)))
    generate_sbb_batch(s, 2, 3, B=4, master_seed=5).save(tmp_path / "ens")
    shorten_member(tmp_path / "ens", 3, 72)
    with pytest.raises(LengthMismatch, match="series_0003.csv"):
        Ensemble.load(tmp_path / "ens")


def test_members_are_the_rows_of_one_read_only_matrix(tmp_path, rng):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=60)))
    ens = generate_sbb_batch(s, 2, 3, B=4, master_seed=5)
    ens.save(tmp_path / "ens")
    for e in (ens, Ensemble.load(tmp_path / "ens")):
        assert e.values.shape == (4, 60) and e.values.dtype == np.float64
        assert not e.values.flags.writeable
        assert [m.values.tobytes() for m in e.series] == [row.tobytes() for row in ens.values]


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("series_files"),
    lambda m: m.update(series_checksums=m["series_checksums"][:1]),
    lambda m: m.update(master_seed="five"),
    lambda m: m.update(series_files=[], series_checksums=[]),
])
def test_load_rejects_a_malformed_manifest(tmp_path, rng, edit):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=60)))
    generate_sbb_batch(s, 2, 3, B=2, master_seed=5).save(tmp_path / "ens")
    path = tmp_path / "ens" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(MalformedManifest):
        Ensemble.load(tmp_path / "ens")


def test_load_missing_manifest(tmp_path):
    with pytest.raises(IOErrorSS):
        Ensemble.load(tmp_path)


def test_empty_ensemble_rejected():
    with pytest.raises(ConfigError):
        Ensemble(values=np.empty((0, 3)), method="sbb", config={}, master_seed=0, source_checksum="x")


def test_rerun_overwrites_identically(tmp_path, rng):
    s = HourlySeries(np.abs(rng.normal(100, 10, size=60)))
    for _ in range(2):
        generate_sbb_batch(s, 2, 3, B=2, master_seed=5).save(tmp_path / "ens")
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "ens").iterdir())}
    generate_sbb_batch(s, 2, 3, B=2, master_seed=5).save(tmp_path / "ens")
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "ens").iterdir())}
    assert first == second


def _matrix_ensemble(values) -> Ensemble:
    return Ensemble(values=np.asarray(values, dtype=float), method="sbb", config={}, master_seed=0,
                    source_checksum="x")


def _draws(rng, B, n) -> np.ndarray:
    """B bootstrap draws of one n-hour source: a third zeros, the rest rounded
    to 3 decimals, so that members share most of their values."""
    source = np.round(np.abs(rng.normal(100, 30, size=n)), 3)
    source[: n // 3] = 0.0
    return source[rng.integers(0, n, size=(B, n))]


def _edit_manifest(directory, **fields) -> None:
    path = directory / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


class TestMemberCsv:
    """Members are saved one at a time from their rows of codes and loaded
    into rows of codes; each file holds the bytes csv.writer writes, and a
    file the pass over those bytes refuses is read as load_csv reads it."""

    RUN_ROWS = _RUN_VALUES // 720

    @pytest.mark.parametrize("shape", [
        (RUN_ROWS + 2, 720),  # more members than one block of ``blocks``
        (2, _RUN_VALUES + 3),  # a member longer than one block
        (1, 50),
    ])
    def test_members_are_csv_writer_bytes(self, tmp_path, rng, shape):
        values = _draws(rng, *shape)
        values[0, :3] = [5e-324, 1e22, -2.5]
        values[-1, -1] = 0.987654321  # first seen in the last member
        ens = _matrix_ensemble(values)
        ens.save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for name, row, checksum in zip(manifest["series_files"], values, manifest["series_checksums"], strict=True):
            assert (tmp_path / name).read_bytes() == oracles.csv_writer_text(row.tolist()).encode()
            assert checksum == HourlySeries(row).checksum()
        assert Ensemble.load(tmp_path).values.tobytes() == values.tobytes()

    def test_signed_zeros_stay_apart_across_members_and_runs(self, tmp_path, rng):
        values = _draws(rng, self.RUN_ROWS + 1, 720)
        values[0, 0], values[1, 0], values[-1, 0] = 0.0, -0.0, -0.0
        values[0, 1], values[-1, 1] = -0.0, 0.0
        _matrix_ensemble(values).save(tmp_path)
        files = json.loads((tmp_path / "manifest.json").read_text())["series_files"]
        for name, row in zip((files[0], files[1], files[-1]), values[[0, 1, -1]]):
            assert (tmp_path / name).read_bytes() == oracles.csv_writer_text(row.tolist()).encode()
        back = Ensemble.load(tmp_path).values
        assert back.tobytes() == values.tobytes()
        assert np.signbit(back[[0, 1, -1], 0]).tolist() == [False, True, True]

    @pytest.mark.parametrize("body", [
        b"value\n2.5\n\n1.5\n",  # a blank cell
        b"value\n2.5\nnan\n",
        b"value\r2.5\r1.5\r",  # CR-only line endings: the member as saved
        b"value\n",  # a header only
        b"timestamp,value\nt0,2.5\nt1,1.5\n",  # CSV syntax: the member as saved
        b"values\n2.5\n1.5\n",
        b"value\n2.5\n\xff\n",
    ])
    def test_member_is_read_as_load_csv_reads_it(self, tmp_path, body):
        _matrix_ensemble([[1.5, 2.5], [2.5, 1.5]]).save(tmp_path)
        member = tmp_path / "series_0001.csv"
        member.write_bytes(body)
        try:
            expected = load_csv(member).values.tobytes()
        except SynthSeriesError as exc:
            expected = type(exc), getattr(exc, "row", None), str(exc)
        try:
            got = Ensemble.load(tmp_path).values[1].tobytes()
        except SynthSeriesError as exc:
            got = type(exc), getattr(exc, "row", None), str(exc)
        assert got == expected

    @pytest.mark.parametrize("body, fast", [
        (b"value\r\n 2.5\r\n1.5 \r\n", True),  # the form save writes, cells padded
        (b"value\n2.5\n1.5\n", False),  # LF only
        (b"value\r2.5\r1.5\r", False),  # CR only
        (b"value\r\n2.5\n1.5\r", False),  # mixed line ends
        (b"value\r\n2.5\r\r\n1.5\r\n", False),  # a CR alone among CRLFs
        (b"value\r\n2.5\r\n1.5", False),  # no final line break
        (b" value \r\n2.5\r\n1.5\r\n", False),  # a padded header
        (b"value\r\n2.5\r\n1.5\r\n\r\n", False),  # a trailing blank line
        ("value\r\n\u0662.\u0665\r\n1.5\r\n".encode(), False),  # non-ASCII digits float accepts
        (b"value\r\n2.5\r\n\x1f1.5\r\n", False),  # ASCII space that only str.strip removes
    ])
    def test_member_the_fast_pass_refuses_is_read_as_csv_reader_reads_it(self, tmp_path, monkeypatch, body, fast):
        """The member, or the error class, row and message, is the csv.reader
        reference's, and only a member in the exact form save writes is read
        without ``load_csv``."""
        _matrix_ensemble([[1.5, 2.5], [2.5, 1.5]]).save(tmp_path)
        member = tmp_path / "series_0001.csv"
        member.write_bytes(body)
        try:
            expected = np.array(oracles.csv_reader_load(member)[0], dtype=float)
        except SynthSeriesError as exc:
            expected = type(exc), getattr(exc, "row", None), str(exc)
        else:
            checksums = [HourlySeries([1.5, 2.5]).checksum(), HourlySeries(expected).checksum()]
            _edit_manifest(tmp_path, series_checksums=checksums)
            expected = expected.tobytes()
        read = []
        monkeypatch.setattr(ensemble, "load_csv", lambda path: read.append(path) or load_csv(path))
        try:
            got = Ensemble.load(tmp_path).values[1].tobytes()
        except SynthSeriesError as exc:
            got = type(exc), getattr(exc, "row", None), str(exc)
        assert got == expected
        assert read == ([] if fast else [str(member)])

    def test_member_refused_after_coding_cells_leaves_no_code_behind(self, tmp_path):
        """Member 1 is in the form save writes up to its last cell, which only
        ``load_csv`` reads, so the fast pass has coded its first two cells
        before it refuses; member 2 repeats those cells in the fast form."""
        values = np.array([[1.0, 2.0, 3.0], [7.25, 8.5, 9.5], [8.5, 7.25, 1.0]])
        _matrix_ensemble(values).save(tmp_path)
        (tmp_path / "series_0001.csv").write_bytes(b"value\r\n7.25\r\n8.5\r\n\x1f9.5\r\n")
        back = Ensemble.load(tmp_path)
        table, codes = back._coded
        assert back.values.tobytes() == values.tobytes()
        assert int(codes.max()) < table.size and np.unique(table).size == table.size == 6

    # tracemalloc peaks of save, measured on numpy 2.4.6: 0.98 MiB at
    # (2000, 720) and 0.56 MiB at (100, 8760), from the table's cell text,
    # the manifest and one member's cells. One np.unique over the whole
    # matrix would hold about 35 MB.
    @pytest.mark.parametrize("shape, bound", [((2000, 720), 1.5), ((100, 8760), 0.85)])
    def test_save_memory_stays_bounded_by_one_member(self, tmp_path, rng, shape, bound):
        ens = _matrix_ensemble(_draws(rng, *shape))
        tracemalloc.start()
        try:
            ens.save(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20

    # a batch's peaks: 1.00 and 0.80 MiB, each member decoded on its own;
    # its cells gathered over the whole matrix would hold 11.5 MB at (2000, 720)
    @pytest.mark.parametrize("shape, bound", [((2000, 720), 1.5), ((100, 8760), 1.2)])
    def test_batch_save_memory_stays_bounded_by_one_member(self, tmp_path, rng, shape, bound):
        B, n = shape
        source = HourlySeries(_draws(rng, 1, n)[0])
        ens = run_batch(lambda r: r.integers(0, n, size=n), source, "sbb", {}, B, 1)
        tracemalloc.start()
        try:
            ens.save(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


@pytest.mark.parametrize("entry", ["absolute", "../outside.csv", "sub/series_0000.csv"])
def test_series_files_entry_outside_the_directory_is_refused(tmp_path, entry):
    """Each entry names a real file with the right checksum, so only its
    place outside the ensemble directory is wrong."""
    ens = tmp_path / "ens"
    _matrix_ensemble([[1.0, 2.0], [3.0, 4.0]]).save(ens)
    shutil.copy(ens / "series_0000.csv", tmp_path / "outside.csv")
    (ens / "sub").mkdir()
    shutil.copy(ens / "series_0000.csv", ens / "sub" / "series_0000.csv")
    name = str(tmp_path / "outside.csv") if entry == "absolute" else entry
    _edit_manifest(ens, series_files=[name, "series_0001.csv"])
    with pytest.raises(MalformedManifest, match="series_files entry") as exc:
        Ensemble.load(ens)
    assert repr(name) in str(exc.value)


@pytest.mark.parametrize("entry", ["", ".", "..", "sub\\x.csv", "x\x00.csv"])
def test_series_files_entry_that_is_no_file_name_is_refused(tmp_path, entry):
    _matrix_ensemble([[1.0, 2.0]]).save(tmp_path)
    _edit_manifest(tmp_path, series_files=[entry])
    with pytest.raises(MalformedManifest, match="series_files entry"):
        Ensemble.load(tmp_path)


class TestCodedLoad:
    """A load builds the (table, codes) pair a batch builds: each distinct cell
    text is parsed once and members are rows of codes, decoded on first use."""

    def test_loaded_values_stay_undecoded_in_uint16_codes(self, tmp_path, rng):
        s = HourlySeries(np.round(np.abs(rng.normal(100, 10, size=60)), 1))
        ens = generate_sbb_batch(s, 2, 3, B=5, master_seed=5)
        ens.save(tmp_path)
        back = Ensemble.load(tmp_path)
        assert "values" not in vars(back) and len(back) == 5
        table, codes = back._coded
        assert codes.dtype == np.uint16 and codes.shape == (5, 60)
        assert not codes.flags.writeable and not table.flags.writeable
        assert table.size <= np.unique(s.values).size
        assert back.rows(1, 3).tobytes() == ens.values[1:3].tobytes()
        assert "values" not in vars(back)
        assert back.values.tobytes() == ens.values.tobytes() and not back.values.flags.writeable

    def test_more_than_65536_distinct_values_load_through_uint32_codes(self, tmp_path):
        """Rows 3 and 4 repeat the values of rows 0 and 1: the cell dict was
        emptied before row 3, so they are parsed and tabled again."""
        values = np.arange(5 * 30_000, dtype=float).reshape(5, 30_000) / 7
        values[3] = values[0]
        values[4] = values[1][::-1]
        _matrix_ensemble(values).save(tmp_path)
        back = Ensemble.load(tmp_path)
        table, codes = back._coded
        assert codes.dtype == np.uint32 and table.size == values.size
        assert back.values.tobytes() == values.tobytes()

    def test_a_resaved_load_writes_the_same_files(self, tmp_path, rng):
        n = 720
        source = HourlySeries(_draws(rng, 1, n)[0])
        B = TestMemberCsv.RUN_ROWS + 2
        run_batch(lambda r: r.integers(0, n, size=n), source, "sbb", {"B": B}, B, 3).save(tmp_path / "a")
        first = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").iterdir())}
        back = Ensemble.load(tmp_path / "a")
        assert _saved(back, tmp_path / "b") == first
        assert "values" not in vars(back)
        for b in (0, B - 1):
            assert first[f"series_{b:04d}.csv"] == oracles.csv_writer_text(back.rows(b, b + 1)[0].tolist()).encode()

    def test_signed_zeros_take_two_codes(self, tmp_path):
        values = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0]])
        ens = _matrix_ensemble(values)
        ens.save(tmp_path)
        for back in (ens, Ensemble.load(tmp_path)):
            table, codes = back._coded
            assert np.signbit(table[codes]).tolist() == np.signbit(values).tolist()
            assert codes[0, 0] != codes[0, 1] and codes[0, 1] == codes[1, 0]
            assert back.values.tobytes() == values.tobytes()

    def test_cells_of_one_value_in_two_spellings(self, tmp_path):
        """``1.50`` and ``1.5`` are two cells of one value: the checksum of the
        member's floats still holds, and a re-save writes their ``repr``."""
        _matrix_ensemble([[1.5, 1.5, 2.0], [2.0, 1.5, 1.5]]).save(tmp_path / "a")
        first = (tmp_path / "a" / "series_0001.csv").read_bytes()
        (tmp_path / "a" / "series_0001.csv").write_bytes(b"value\r\n2\r\n1.50\r\n1.5\r\n")
        back = Ensemble.load(tmp_path / "a")
        assert back.values.tolist() == [[1.5, 1.5, 2.0], [2.0, 1.5, 1.5]]
        back.save(tmp_path / "b")
        assert (tmp_path / "b" / "series_0001.csv").read_bytes() == first
