"""Regenerate the bundled synthetic test fixtures (tests/data/*.csv).

They are the benchmark's inputs at 60 days (1440 hours) and seed 20240901,
written by ``perfbench/fixtures.py``, so the two cannot drift apart.
Run from the repo root: python3 scripts/make_test_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import fixtures  # noqa: E402

OUT = ROOT / "tests" / "data"


def main() -> None:
    fixtures.write_inputs(OUT, 1440, 20240901)
    print(f"wrote fixtures to {OUT}")


if __name__ == "__main__":
    main()
