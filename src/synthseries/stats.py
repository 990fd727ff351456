"""Summary statistics and chunk-level exceedance estimators.

Underage/overage compare chunk totals of a synthetic series against the
original beyond a threshold (absolute energy per chunk, or a fraction of
the original chunk's total). Over an ensemble these per-series values,
taken along the rows of each block of its members, form an empirical
distribution with mass 1/B each.

Every sum is numpy's own, taken along an array axis and never by the BLAS,
so the bytes do not depend on the CPU or the thread count. A statistic or
total that overflows float64 raises ValidationError instead of being
reported as NaN or inf.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import Ensemble
from .errors import ConfigError, LengthMismatch, SeriesTooShort, ValidationError
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


def _require_finite(what: str, *results: np.ndarray | float) -> None:
    if not all(np.isfinite(r).all() for r in results):
        raise ValidationError(f"{what} overflow float64; the values are too large to summarise")


def _row_stats(values: np.ndarray, autocorr_lag: int) -> dict[str, np.ndarray]:
    """Every :class:`SummaryStats` field of each row of a (rows, n) matrix, taken along axis 1.

    Each row is centred once, for the std (by the steps of ``std(ddof=1)``) and the
    non-circular lag autocorrelation (0 for a constant row)."""
    if autocorr_lag < 1:
        raise ConfigError(f"autocorr lag must be >= 1, got {autocorr_lag}")
    n = values.shape[1]
    if n <= autocorr_lag:
        raise SeriesTooShort(f"length {n} must exceed autocorr lag {autocorr_lag}")
    with np.errstate(over="ignore", invalid="ignore"):
        q1, med, q3 = np.percentile(values, [25, 50, 75], axis=1)  # linear interpolation
        mean = values.mean(axis=1)
        x = values - mean[:, None]
        ss = np.multiply(x, x).sum(axis=1)
        lagged = np.multiply(x[:, :-autocorr_lag], x[:, autocorr_lag:]).sum(axis=1)
        std = np.sqrt(ss / (n - 1))
        stats = {
            "min": values.min(axis=1),
            "q1": q1,
            "median": med,
            "q3": q3,
            "max": values.max(axis=1),
            "mean": mean,
            "std": std,
            "coeff_of_variation": np.divide(std, mean, out=np.zeros_like(std), where=mean != 0),
            "autocorr": np.divide(lagged, ss, out=np.zeros_like(ss), where=ss != 0),
        }
    _require_finite("summary statistics", *stats.values())
    return stats


def summarize(series: HourlySeries, autocorr_lag: int = 24) -> SummaryStats:
    stats = _row_stats(series.values.reshape(1, -1), autocorr_lag)
    return SummaryStats(autocorr_lag=autocorr_lag, **{name: float(v[0]) for name, v in stats.items()})


def _spread(values: np.ndarray) -> tuple[float, ...]:
    """Mean, std, min, quartiles and max of per-member values."""
    with np.errstate(over="ignore", invalid="ignore"):
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        spread = float(values.mean()), std, float(values.min()), float(q1), float(med), float(q3), float(values.max())
    _require_finite("the spread of the per-member values", *spread)
    return spread


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
    with np.errstate(over="ignore", invalid="ignore"):
        orig = chunk_sums(original.values, length)
        synth = chunk_sums(rows, length)
        gap = orig - synth if under else synth - orig
        hit = gap >= threshold.per_chunk(orig)
        totals = np.array([g[h].sum() for g, h in zip(gap, hit)])
    _require_finite("chunk totals or their gaps", orig, synth, totals)
    return totals, hit.sum(axis=1)


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


@dataclass(frozen=True, eq=False)
class ExceedanceReport:
    """Per-series statistic values with mass 1/B on each. Equality and hashing are by identity."""

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
    rows of each of ``ensemble.blocks()``."""
    if not isinstance(statistic, str) or statistic not in _STATISTICS:
        raise ConfigError(f"unknown statistic {statistic!r}")
    under, field = _STATISTICS[statistic]
    values = np.concatenate(
        [_exceedance(original, rows, length, threshold, under)[field] for rows in ensemble.blocks()]
    ).astype(float)
    B = len(ensemble)
    return ExceedanceReport(statistic, values, np.full(B, 1.0 / B))


def ensemble_summary_table(
    ensemble: Ensemble, original: HourlySeries | None = None, autocorr_lag: int = 24
) -> dict[str, dict[str, float]]:
    """Distribution of each summary statistic across the ensemble.

    Rows are the per-series statistics, each taken along axis 1 of each of
    ``ensemble.blocks()`` by the code :func:`summarize` runs on one series;
    columns are mean/std/min/25%/50%/75%/max over the B series, plus the
    original's value when supplied.
    """
    blocks = [_row_stats(rows, autocorr_lag) for rows in ensemble.blocks()]
    columns = {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}
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
