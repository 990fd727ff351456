from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from synthseries.series import HourlySeries, load_csv, write_csv

DATA_DIR = Path(__file__).resolve().parent / "data"

# PJM 2021 hourly fixtures; populate with scripts/fetch_pjm_data.py or set
# SYNTHSERIES_PJM_DIR to a directory holding the four CSVs.
PJM_DIR = Path(os.environ.get("SYNTHSERIES_PJM_DIR", Path(__file__).resolve().parent.parent / "data" / "pjm"))
PJM_FILES = {name: PJM_DIR / f"{name}_2021.csv" for name in ("solar", "wind", "load", "nuclear")}

requires_pjm = pytest.mark.skipif(
    not all(p.exists() for p in PJM_FILES.values()),
    reason=f"PJM 2021 fixtures not present under {PJM_DIR} (see scripts/fetch_pjm_data.py)",
)


def pjm_series(name: str) -> HourlySeries:
    return load_csv(PJM_FILES[name], label=name)


def shorten_member(ensemble_dir: Path, index: int, keep: int) -> None:
    """Cut member ``index`` of a saved ensemble to its first ``keep`` values and
    record the shorter member's checksum, so that only its length is wrong."""
    path = ensemble_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    member = ensemble_dir / manifest["series_files"][index]
    short = HourlySeries(load_csv(member).values[:keep])
    write_csv(short, member)
    manifest["series_checksums"][index] = short.checksum()
    path.write_text(json.dumps(manifest), encoding="utf-8")


# criterion number -> (verdict, title); filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        verdict, title = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"criterion {number:02d} {verdict:4s} {title}")


@pytest.fixture(scope="session")
def solar_fixture() -> HourlySeries:
    return load_csv(DATA_DIR / "synthetic_solar.csv", label="solar")


@pytest.fixture(scope="session")
def wind_fixture() -> HourlySeries:
    return load_csv(DATA_DIR / "synthetic_wind.csv", label="wind")


@pytest.fixture(scope="session")
def load_fixture() -> HourlySeries:
    return load_csv(DATA_DIR / "synthetic_load.csv", label="load")


@pytest.fixture(scope="session")
def nuclear_fixture() -> HourlySeries:
    return load_csv(DATA_DIR / "synthetic_nuclear.csv", label="nuclear")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
