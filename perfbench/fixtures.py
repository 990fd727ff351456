"""Synthetic hourly inputs for the benchmark, built from a length and a seed.

The solar, wind, load and nuclear shapes are those of the repository's test
fixtures, drawn from one shared RNG in the same order, so length 1440 with
seed 20240901 reproduces ``tests/data/synthetic_*.csv`` byte for byte. The
CSV text is written here rather than through the library, so the program
under test only ever receives finished files.

Usage: python3 perfbench/fixtures.py --length 8760 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

NAMES = ("solar", "wind", "load", "nuclear")


def solar_like(rng: np.random.Generator, n: int) -> np.ndarray:
    hours = np.arange(n) % 24
    shape = np.clip(np.sin(np.pi * (hours - 6) / 12.0), 0.0, None)
    daily = 800.0 + 300.0 * np.sin(2 * np.pi * np.arange(n) / (24 * 30)) + rng.normal(0, 60, n)
    vals = shape * np.clip(daily, 0, None) * (1 + rng.normal(0, 0.08, n))
    vals[shape == 0] = 0.0
    return np.clip(vals, 0.0, None)


def wind_like(rng: np.random.Generator, n: int) -> np.ndarray:
    x = np.empty(n)
    x[0] = 0.0
    eps = rng.normal(0, 0.35, n)
    for i in range(1, n):
        x[i] = 0.92 * x[i - 1] + eps[i]
    return np.clip(3000.0 + 1500.0 * x, 50.0, None)


def load_like(rng: np.random.Generator, n: int) -> np.ndarray:
    hours = np.arange(n) % 24
    diurnal = 1.0 + 0.18 * np.sin(2 * np.pi * (hours - 9) / 24.0)
    return 90000.0 * diurnal * (1 + rng.normal(0, 0.015, n))


def make_series(n: int, seed: int) -> dict[str, np.ndarray]:
    """The four input series, rounded to 2 decimals like the test fixtures."""
    rng = np.random.default_rng(seed)
    out = {name: np.round(maker(rng, n), 2) for name, maker in
           (("solar", solar_like), ("wind", wind_like), ("load", load_like))}
    out["nuclear"] = np.round(np.full(n, 30000.0) + rng.normal(0, 150, n), 2)
    return out


def csv_text(values: np.ndarray) -> str:
    """Bare ``value`` column, full float precision, CRLF rows (csv module default)."""
    return "".join(["value\r\n", *(f"{float(v)!r}\r\n" for v in values)])


def write_inputs(directory: Path, n: int, seed: int) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, values in make_series(n, seed).items():
        paths[name] = directory / f"synthetic_{name}.csv"
        paths[name].write_bytes(csv_text(values).encode("utf-8"))
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write_inputs(args.out, args.length, args.seed).values():
        print(path)


if __name__ == "__main__":
    main()
