"""The 7-command case-study chain, and one more perturb, write the committed bytes.

The chain is perfbench's: its inputs and configs come from
``perfbench/fixtures.py`` and ``perfbench/pipeline.py``, here at n = 720 and
B = 50, and each command runs in process through ``cli.main``. One more
perturb, with a ``below_probability``, covers the normal quantile, which the
benchmark chain does not reach. Every file under ``out/`` is compared by
sha256 with ``tests/data/chain_bytes.json``.
The run uses relative paths from a temporary working directory, so that the
perturb manifest, which echoes its config, holds no absolute path.

A change that moves output bytes on purpose rewrites the JSON in the same
commit: ``PYTHONPATH=src python -m tests.test_chain_bytes`` from the
repository root.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "chain_bytes.json"
N, B, SEED = 720, 50, 20240901

if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import fixtures  # noqa: E402
import pipeline  # noqa: E402

from synthseries import cli  # noqa: E402


def chain_bytes(work: Path) -> dict[str, str]:
    """Run the chain in ``work``, the working directory, and return the sha256
    of every file under ``out/`` by its path relative to ``out/``."""
    fixtures.write_inputs(work / "inputs", N, SEED)
    commands = pipeline.write_configs(work, pipeline.Workload(n=N, B=B, threads=1), SEED)
    out = work / "out"
    # the chain's perturb again with a below_probability, the one input of the normal quantile
    perturb = next(cmd for cmd in commands if cmd.stage == "perturb")
    cfg = json.loads(perturb.config.read_text(encoding="utf-8"))
    cfg["distribution"] = {**pipeline.PERTURB_DIST, "below_probability": 0.3}
    cfg["output_dir"] = str(out / "perturb_wind_below")
    below = perturb.config.with_name("perturb_wind_below.json")
    below.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    commands.append(pipeline.Command("perturb_wind_below", "perturb", below, out / "perturb_wind_below"))
    for cmd in commands:
        assert cli.main(["--threads", "1", cmd.stage, str(cmd.config)]) == 0, cmd.name
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_chain_writes_the_committed_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = chain_bytes(Path("."))
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(expected)
    assert {name for name in got if got[name] != expected[name]} == set()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        digests = chain_bytes(Path("."))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} files -> {DIGESTS}")
