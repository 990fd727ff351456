"""Summary statistics and chunk-level exceedance estimators.

Underage/overage compare chunk totals of a synthetic series against the
original beyond a threshold (absolute energy per chunk, or a fraction of
the original chunk's total). Over an ensemble these per-series values form
an empirical distribution with mass 1/B each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .ensemble import Ensemble
from .errors import ConfigError, LengthMismatch, SeriesTooShort
from .series import HourlySeries, chunk


@dataclass(frozen=True)
class SummaryStats:
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    std: float
    coeff_of_variation: float
    autocorr_lag: int
    autocorr: float

    def as_dict(self) -> dict[str, float]:
        return {
            "min": self.min,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.max,
            "mean": self.mean,
            "std": self.std,
            "coeff_of_variation": self.coeff_of_variation,
            f"autocorr_lag_{self.autocorr_lag}": self.autocorr,
        }


STAT_ROWS = ["Min", "First Quartile", "Median", "Third Quartile", "Max",
             "Mean", "Standard Dev.", "Coeff. of Var."]


def _autocorr(values: np.ndarray, lag: int) -> float:
    """Non-circular lag-h sample autocorrelation of the centered series."""
    x = values - values.mean()
    denom = float(x @ x)
    if denom == 0.0:
        return 0.0
    return float(x[:-lag] @ x[lag:]) / denom


def summarize(series: HourlySeries | np.ndarray, autocorr_lag: int = 24) -> SummaryStats:
    vals = series.values if isinstance(series, HourlySeries) else np.asarray(series, dtype=float)
    if autocorr_lag < 1:
        raise ConfigError(f"autocorr lag must be >= 1, got {autocorr_lag}")
    if len(vals) <= autocorr_lag:
        raise SeriesTooShort(f"length {len(vals)} must exceed autocorr lag {autocorr_lag}")
    q1, med, q3 = np.percentile(vals, [25, 50, 75])  # linear interpolation
    mean = float(vals.mean())
    std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
    return SummaryStats(
        min=float(vals.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        max=float(vals.max()),
        mean=mean,
        std=std,
        coeff_of_variation=std / mean if mean != 0 else 0.0,
        autocorr_lag=autocorr_lag,
        autocorr=_autocorr(vals, autocorr_lag),
    )


@dataclass(frozen=True)
class Threshold:
    """Per-chunk exceedance threshold: absolute (energy per chunk) or a
    fraction of the original chunk's total."""

    kind: str  # "absolute" | "proportional"
    e: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.e) and math.isfinite(self.alpha)):
            raise ConfigError(f"threshold must be finite, got e={self.e}, alpha={self.alpha}")
        if self.kind == "absolute":
            if self.e < 0:
                raise ConfigError(f"absolute threshold must be >= 0, got {self.e}")
        elif self.kind == "proportional":
            if self.alpha < 0:
                raise ConfigError(f"proportional threshold must be >= 0, got {self.alpha}")
        else:
            raise ConfigError(f"unknown threshold kind {self.kind!r}")

    def per_chunk(self, original_chunk_sums: np.ndarray) -> np.ndarray:
        if self.kind == "absolute":
            return np.full_like(original_chunk_sums, self.e)
        return self.alpha * original_chunk_sums


def _chunk_sums(original: HourlySeries, synthetic: HourlySeries, length: int) -> tuple[np.ndarray, np.ndarray]:
    if len(original) != len(synthetic):
        raise LengthMismatch(f"series lengths differ: {len(original)} vs {len(synthetic)}")
    return chunk(original, length).sums(), chunk(synthetic, length).sums()


def underage(
    original: HourlySeries, synthetic: HourlySeries, length: int, threshold: Threshold
) -> tuple[float, int]:
    """(total deficit, chunk count) over chunks whose deficit meets the threshold."""
    orig, synth = _chunk_sums(original, synthetic, length)
    deficit = orig - synth
    e = threshold.per_chunk(orig)
    hit = deficit >= e
    return float(deficit[hit].sum()), int(hit.sum())


def overage(
    original: HourlySeries, synthetic: HourlySeries, length: int, threshold: Threshold
) -> tuple[float, int]:
    """Mirror image of :func:`underage` with surplus = synthetic - original."""
    orig, synth = _chunk_sums(original, synthetic, length)
    surplus = synth - orig
    e = threshold.per_chunk(orig)
    hit = surplus >= e
    return float(surplus[hit].sum()), int(hit.sum())


@dataclass(frozen=True)
class ExceedanceReport:
    """Per-series statistic values with mass 1/B on each."""

    statistic: str
    values: np.ndarray
    masses: np.ndarray

    def describe(self) -> dict[str, float]:
        v = self.values
        q1, med, q3 = np.percentile(v, [25, 50, 75])
        return {
            "mean": float(v.mean()),
            "std": float(v.std(ddof=1)) if v.size > 1 else 0.0,
            "min": float(v.min()),
            "q1": float(q1),
            "median": float(med),
            "q3": float(q3),
            "max": float(v.max()),
        }


def empirical_distribution(
    ensemble: Ensemble,
    original: HourlySeries,
    statistic: str,
    length: int,
    threshold: Threshold,
) -> ExceedanceReport:
    """Evaluate an exceedance statistic on every ensemble member."""
    fn: Callable[[HourlySeries], float]
    if statistic == "underage":
        fn = lambda s: underage(original, s, length, threshold)[0]
    elif statistic == "overage":
        fn = lambda s: overage(original, s, length, threshold)[0]
    elif statistic == "underage_count":
        fn = lambda s: underage(original, s, length, threshold)[1]
    elif statistic == "overage_count":
        fn = lambda s: overage(original, s, length, threshold)[1]
    else:
        raise ConfigError(f"unknown statistic {statistic!r}")
    values = np.array([fn(s) for s in ensemble.series], dtype=float)
    B = len(ensemble)
    return ExceedanceReport(statistic, values, np.full(B, 1.0 / B))


def ensemble_summary_table(
    ensemble: Ensemble, original: HourlySeries | None = None, autocorr_lag: int = 24
) -> dict[str, dict[str, float]]:
    """Distribution of each summary statistic across the ensemble.

    Rows are the per-series statistics; columns are mean/std/min/25%/50%/
    75%/max over the B series, plus the original's value when supplied.
    """
    per_series = [summarize(s, autocorr_lag) for s in ensemble.series]
    rows = STAT_ROWS + [f"Autocorr. Lag: {autocorr_lag}"]
    attrs = ["min", "q1", "median", "q3", "max", "mean", "std", "coeff_of_variation", "autocorr"]
    orig = summarize(original, autocorr_lag) if original is not None else None
    table: dict[str, dict[str, float]] = {}
    for row, attr in zip(rows, attrs):
        col = np.array([getattr(s, attr) for s in per_series])
        q1, med, q3 = np.percentile(col, [25, 50, 75])
        entry = {
            "mean": float(col.mean()),
            "std": float(col.std(ddof=1)) if col.size > 1 else 0.0,
            "min": float(col.min()),
            "25%": float(q1),
            "50%": float(med),
            "75%": float(q3),
            "max": float(col.max()),
        }
        if orig is not None:
            entry["original"] = float(getattr(orig, attr))
        table[row] = entry
    return table


def write_table_csv(table: dict[str, dict[str, float]], path) -> None:
    import csv
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols: Sequence[str] = list(next(iter(table.values())).keys())
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Description", *cols])
        for row, entry in table.items():
            writer.writerow([row, *[repr(entry[c]) for c in cols]])


def histogram_csv(report: ExceedanceReport, path, bins: int = 30) -> None:
    """Emit bin edges/counts for external plotting."""
    import csv
    from pathlib import Path

    counts, edges = np.histogram(report.values, bins=bins)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, c in zip(edges[:-1], edges[1:], counts):
            writer.writerow([repr(float(left)), repr(float(right)), int(c)])
