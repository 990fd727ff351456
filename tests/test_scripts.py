from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from .conftest import DATA_DIR
from .test_cli import _subprocess_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_case_study_script_runs_on_the_synthetic_fixtures(tmp_path):
    """The headline-experiment script, on the bundled synthetic inputs under
    the PJM file names, with a small B."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("solar", "wind", "nuclear", "load"):
        shutil.copy(DATA_DIR / f"synthetic_{name}.csv", data / f"{name}_2021.csv")
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_case_study.py"), "--data-dir", str(data), "--out-dir", str(out),
         "--B", "4"],
        env=_subprocess_env(), capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "nnlb_solar_summary.csv", "sbb_solar_summary.csv", "sbb_wind_summary.csv", "shortfall_histogram.csv",
    ]
