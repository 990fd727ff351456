"""Summary statistics and chunk-level exceedance estimators.

Underage/overage compare chunk totals of a synthetic series against the
original beyond a threshold (absolute energy per chunk, or a fraction of
the original chunk's total). Over an ensemble these per-series values,
taken along the rows of its (B, n) matrix, form an empirical distribution
with mass 1/B each.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import Ensemble
from .errors import ConfigError, LengthMismatch, SeriesTooShort
from .series import HourlySeries, chunk_sums, write_rows


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


def _exceedance(
    original: HourlySeries, rows: np.ndarray, length: int, threshold: Threshold, under: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(total gap, chunk count) of each row of a (rows, n) matrix over the
    chunks whose deficit (``under``) or surplus against ``original`` meets the
    threshold.

    Each total is the sum of that row's compacted hits, as one series alone
    would give it; a masked sum along the axis rounds differently.
    """
    if rows.shape[1] != len(original):
        raise LengthMismatch(f"series lengths differ: {len(original)} vs {rows.shape[1]}")
    orig = chunk_sums(original.values, length)
    synth = chunk_sums(rows, length)
    gap = orig - synth if under else synth - orig
    hit = gap >= threshold.per_chunk(orig)
    return np.array([g[h].sum() for g, h in zip(gap, hit)]), hit.sum(axis=1)


def underage(
    original: HourlySeries, synthetic: HourlySeries, length: int, threshold: Threshold
) -> tuple[float, int]:
    """(total deficit, chunk count) over chunks whose deficit meets the threshold."""
    totals, counts = _exceedance(original, synthetic.values[None], length, threshold, under=True)
    return float(totals[0]), int(counts[0])


def overage(
    original: HourlySeries, synthetic: HourlySeries, length: int, threshold: Threshold
) -> tuple[float, int]:
    """Mirror image of :func:`underage` with surplus = synthetic - original."""
    totals, counts = _exceedance(original, synthetic.values[None], length, threshold, under=False)
    return float(totals[0]), int(counts[0])


@dataclass(frozen=True)
class ExceedanceReport:
    """Per-series statistic values with mass 1/B on each."""

    statistic: str
    values: np.ndarray
    masses: np.ndarray

    def describe(self) -> dict[str, float]:
        return dict(zip(("mean", "std", "min", "q1", "median", "q3", "max"), _spread(self.values)))


# statistic name -> (whether it counts deficits, field of the (totals, counts) result)
_STATISTICS = {
    "underage": (True, 0),
    "overage": (False, 0),
    "underage_count": (True, 1),
    "overage_count": (False, 1),
}


def empirical_distribution(
    ensemble: Ensemble,
    original: HourlySeries,
    statistic: str,
    length: int,
    threshold: Threshold,
) -> ExceedanceReport:
    """Evaluate an exceedance statistic on every ensemble member, along the
    rows of ``ensemble.values``."""
    if not isinstance(statistic, str) or statistic not in _STATISTICS:
        raise ConfigError(f"unknown statistic {statistic!r}")
    under, field = _STATISTICS[statistic]
    values = _exceedance(original, ensemble.values, length, threshold, under)[field].astype(float)
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
    cols = list(next(iter(table.values())))
    rows = ([row, *(repr(entry[c]) for c in cols)] for row, entry in table.items())
    write_rows(path, [["Description", *cols], *rows])


def histogram_csv(report: ExceedanceReport, path, bins: int = 30) -> None:
    """Emit bin edges/counts for external plotting."""
    counts, edges = np.histogram(report.values, bins=bins)
    rows = ([repr(float(left)), repr(float(right)), int(c)] for left, right, c in zip(edges[:-1], edges[1:], counts))
    write_rows(path, [["bin_left", "bin_right", "count"], *rows])
