"""Tests of the benchmark itself: fixtures, the correctness gate and the tracer.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import fixtures  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402

TINY = pipeline.Workload(n=240, B=6, threads=2)
SEED = 7


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_fixtures_reproduce_the_test_data(name):
    reference = ROOT / "tests" / "data" / f"synthetic_{name}.csv"
    if not reference.is_file():
        pytest.skip("no tests/data in this checkout")
    series = fixtures.make_series(1440, 20240901)[name]
    assert fixtures.csv_text(series).encode("utf-8") == reference.read_bytes()


def _chain(work: Path, trace_dir: Path | None = None):
    commands = pipeline.setup(work, TINY, SEED)
    results = pipeline.run_chain(ROOT, work, commands, TINY.threads, time.monotonic() + 120, trace_dir)
    assert [r.returncode for r in results] == [0] * len(commands)
    return commands, results


def _gate(commands, work, pins=None):
    return check.check(commands, {c.name: 0 for c in commands}, work / "inputs", TINY, SEED, pins)


def _child_pids() -> list[int]:
    """Live processes whose parent is this one (Linux /proc)."""
    if not Path("/proc/self/stat").is_file():
        pytest.skip("no /proc on this system")
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while listed
        if int(fields[1]) == os.getpid():
            kids.append(int(stat.parent.name))
    return kids


def test_gate_passes_clean_outputs_and_catches_one_tampered_value(tmp_path):
    commands, _ = _chain(tmp_path)
    problems, observed = _gate(commands, tmp_path)
    assert problems == {}
    assert _child_pids() == []  # neither the chain nor the gate leaves a process behind
    pins = json.loads(json.dumps(observed))  # as stored on disk
    assert _gate(commands, tmp_path, pins)[0] == {}

    out = tmp_path / "out"
    # a float 1e-6 off its pinned value
    adequacy = out / "vre" / "adequacy.json"
    original = adequacy.read_text(encoding="utf-8")
    doc = json.loads(original)
    doc["percent_supplied"] *= 1 + 1e-6
    adequacy.write_text(json.dumps(doc), encoding="utf-8")
    assert list(_gate(commands, tmp_path, pins)[0]) == ["vre"]
    # without pins, as at any other seed, the numpy reference catches it
    assert _gate(commands, tmp_path)[0] == {"vre": ["differs from the reference: fixed/percent_supplied"]}
    adequacy.write_text(original, encoding="utf-8")

    # one count of the analyze output, caught by the reference
    exceedance = out / "analyze_solar_nnlb" / "exceedance.json"
    original = exceedance.read_text(encoding="utf-8")
    doc = json.loads(original)
    doc["values"][2] += 1
    exceedance.write_text(json.dumps(doc), encoding="utf-8")
    assert _gate(commands, tmp_path)[0] == {"analyze_solar_nnlb": ["differs from the reference: exceedance/values"]}
    exceedance.write_text(original, encoding="utf-8")

    # one ensemble value: caught on any seed by the manifest checksum
    member = out / "wind_sbb" / "series_0005.csv"
    lines = member.read_text(encoding="utf-8").splitlines()
    lines[3] = repr(float(lines[3]) + 0.01)
    member.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    assert list(_gate(commands, tmp_path)[0]) == ["generate_wind_sbb"]


def test_gate_catches_a_member_that_differs_from_the_library(tmp_path):
    commands, _ = _chain(tmp_path)
    # rewrite member 1 and its manifest checksum consistently: only the
    # library comparison can tell
    ens = tmp_path / "out" / "solar_nnlb"
    manifest = json.loads((ens / "manifest.json").read_text(encoding="utf-8"))
    values = check.read_member(ens / manifest["series_files"][1])
    values[10] += 1.0
    (ens / manifest["series_files"][1]).write_bytes(fixtures.csv_text(values).encode("utf-8"))
    manifest["series_checksums"][1] = check.sha256_values(values)
    (ens / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    problems, _ = _gate(commands, tmp_path)
    assert list(problems) == ["generate_solar_nnlb"]
    assert any("library" in p for p in problems["generate_solar_nnlb"])


def test_traced_chain_reports_every_layer_metric_with_repeatable_counts(tmp_path):
    layers = []
    for i in range(2):
        work = tmp_path / str(i)
        trace_dir = work / "trace"
        trace_dir.mkdir(parents=True)
        commands, results = _chain(work, trace_dir)
        records = [json.loads((trace_dir / f"{c.name}.json").read_text(encoding="utf-8")) for c in commands]
        trees = [pipeline.tree_bytes(work / "out" / tag) for tag in run.TAGS]
        layers.append(run.per_layer(records, results, (sum(b for b, _ in trees), sum(f for _, f in trees))))
        # the search span nests inside the pool span, which nests inside the batch span
        spans = {s["id"]: s for s in records[0]["spans"]}
        search = next(s for s in spans.values() if s["name"] == "neighbors.nearest_rows")
        pools = spans[search["parent"]]
        assert pools["name"] == "sbb.find_window_pools"
        assert spans[pools["parent"]]["name"] == "sbb.generate_batch"
    assert set(layers[0]) == set(run.PER_LAYER_UNITS)
    counts = [name for name, unit in run.PER_LAYER_UNITS.items() if unit != "s"]
    assert {k: layers[0][k] for k in counts} == {k: layers[1][k] for k in counts}
    assert layers[0]["cli.processes"] == 7
    assert layers[0]["ensemble.files_written"] == 3 * (TINY.B + 1)
    assert layers[0]["neighbors.distance_evals"] == 3 * TINY.n ** 2
