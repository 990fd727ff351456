"""Summary statistics and chunk-level exceedance estimators.

Underage/overage compare chunk totals of a synthetic series against the
original beyond a threshold (absolute energy per chunk, or a fraction of
the original chunk's total). Over an ensemble these per-series values form
an empirical distribution with mass 1/B each.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

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
        d = asdict(self)
        d[f"autocorr_lag_{d.pop('autocorr_lag')}"] = d.pop("autocorr")
        return d


STAT_ROWS = ["Min", "First Quartile", "Median", "Third Quartile", "Max",
             "Mean", "Standard Dev.", "Coeff. of Var."]


def _autocorr(values: np.ndarray, lag: int) -> float:
    """Non-circular lag-h sample autocorrelation of the centered series."""
    x = values - values.mean()
    denom = float(x @ x)
    if denom == 0.0:
        return 0.0
    return float(x[:-lag] @ x[lag:]) / denom


def _row_stats(values: np.ndarray, autocorr_lag: int) -> dict[str, np.ndarray]:
    """Every :class:`SummaryStats` field of each row of a (rows, n) matrix, taken along axis 1."""
    if autocorr_lag < 1:
        raise ConfigError(f"autocorr lag must be >= 1, got {autocorr_lag}")
    if values.shape[1] <= autocorr_lag:
        raise SeriesTooShort(f"length {values.shape[1]} must exceed autocorr lag {autocorr_lag}")
    q1, med, q3 = np.percentile(values, [25, 50, 75], axis=1)  # linear interpolation
    mean = values.mean(axis=1)
    std = values.std(axis=1, ddof=1)
    return {
        "min": values.min(axis=1),
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": values.max(axis=1),
        "mean": mean,
        "std": std,
        "coeff_of_variation": np.divide(std, mean, out=np.zeros_like(std), where=mean != 0),
        "autocorr": np.array([_autocorr(row, autocorr_lag) for row in values]),
    }


def summarize(series: HourlySeries | np.ndarray, autocorr_lag: int = 24) -> SummaryStats:
    vals = series.values if isinstance(series, HourlySeries) else np.asarray(series, dtype=float)
    stats = _row_stats(vals.reshape(1, -1), autocorr_lag)
    return SummaryStats(autocorr_lag=autocorr_lag, **{name: float(v[0]) for name, v in stats.items()})


def _spread(values: np.ndarray) -> tuple[float, ...]:
    """Mean, std, min, quartiles and max of per-member values."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), std, float(values.min()), float(q1), float(med), float(q3), float(values.max())


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
        return dict(zip(("mean", "std", "min", "q1", "median", "q3", "max"), _spread(self.values)))


# statistic name -> (chunk comparison, field of its (total, count) result)
_STATISTICS = {
    "underage": (underage, 0),
    "overage": (overage, 0),
    "underage_count": (underage, 1),
    "overage_count": (overage, 1),
}


def empirical_distribution(
    ensemble: Ensemble,
    original: HourlySeries,
    statistic: str,
    length: int,
    threshold: Threshold,
) -> ExceedanceReport:
    """Evaluate an exceedance statistic on every ensemble member."""
    if not isinstance(statistic, str) or statistic not in _STATISTICS:
        raise ConfigError(f"unknown statistic {statistic!r}")
    fn, field = _STATISTICS[statistic]
    values = np.array([fn(original, HourlySeries(row), length, threshold)[field] for row in ensemble.values],
                      dtype=float)
    B = len(ensemble)
    return ExceedanceReport(statistic, values, np.full(B, 1.0 / B))


def ensemble_summary_table(
    ensemble: Ensemble, original: HourlySeries | None = None, autocorr_lag: int = 24
) -> dict[str, dict[str, float]]:
    """Distribution of each summary statistic across the ensemble.

    Rows are the per-series statistics, each taken along axis 1 of the
    (B, n) matrix by the code :func:`summarize` runs on one series; columns
    are mean/std/min/25%/50%/75%/max over the B series, plus the original's
    value when supplied.
    """
    columns = _row_stats(ensemble.values, autocorr_lag)
    orig = summarize(original, autocorr_lag) if original is not None else None
    table: dict[str, dict[str, float]] = {}
    for row, (attr, col) in zip(STAT_ROWS + [f"Autocorr. Lag: {autocorr_lag}"], columns.items()):
        entry = dict(zip(("mean", "std", "min", "25%", "50%", "75%", "max"), _spread(col)))
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
