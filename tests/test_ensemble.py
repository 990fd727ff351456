from __future__ import annotations

import json

import numpy as np
import pytest

from synthseries.ensemble import Ensemble, child_rng, child_seed
from synthseries.errors import ChecksumMismatch, ConfigError, IOErrorSS, LengthMismatch, MalformedManifest
from synthseries.kernels import uniform_kernel
from synthseries.sbb import build_windows, find_window_pools, generate_sbb_batch
from synthseries.series import HourlySeries, load_csv

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
