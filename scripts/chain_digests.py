"""Write or check the digests of the case-study chain's outputs at the
benchmark's sizes.

For each (workload, seed) below, the benchmark's inputs and configs are
written to a fresh temporary working directory (``perfbench/pipeline.py``,
``setup``) and its 7 CLI commands are run there (``run_chain``), with paths
relative to that directory, so that no output echoes an absolute path. Each
command's output directory is hashed with ``pipeline.tree_digest``; the 28
digests are kept in ``tests/data/chain_digests_workloads.json``.

Usage, from the repository root:
    python3 scripts/chain_digests.py --check   # exit 1 if a digest differs
    python3 scripts/chain_digests.py --write   # after a change that moves bytes on purpose
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "chain_digests_workloads.json"
RUNS = (("year_casestudy", 20240901), ("year_casestudy", 11), ("month_ensemble", 20240901), ("month_ensemble", 507))
TIMEOUT_S = 600.0

sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402


def run_digests(workload: str, seed: int) -> dict[str, str]:
    """``{"<workload>/<seed>/<output dir>": tree digest}`` of one chain."""
    wl = pipeline.WORKLOADS[workload]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            work = Path(".")
            commands = pipeline.setup(work, wl, seed)
            results = pipeline.run_chain(ROOT, work, commands, wl.threads, time.monotonic() + TIMEOUT_S)
            for result in results:
                if result.returncode != 0:
                    log = (work / "logs" / f"{result.name}.log").read_text(encoding="utf-8", errors="replace")
                    raise SystemExit(f"{workload} seed {seed}: {result.name} exited {result.returncode}\n{log}")
            return {f"{workload}/{seed}/{cmd.output.name}": pipeline.tree_digest(cmd.output) for cmd in commands}
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.relative_to(ROOT)}")
    mode.add_argument("--check", action="store_true", help="compare with the committed digests")
    args = parser.parse_args(argv)
    digests: dict[str, str] = {}
    for workload, seed in RUNS:
        digests.update(run_digests(workload, seed))
        print(f"{workload} seed {seed}: done", flush=True)
    if args.write:
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(digests)} digests -> {DIGESTS.relative_to(ROOT)}")
        return 0
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    differ = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
    for key in differ:
        print(f"differs: {key} (committed {expected.get(key)}, now {digests.get(key)})")
    print(f"{len(digests) - len(differ)} of {len(expected.keys() | digests.keys())} digests match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
