"""Weighted-VRE adequacy accounting for the capacity-scaling case study.

Generation is must-run nuclear plus a weighted sum of solar and wind.
Curtailment is surplus over load, attributed entirely to VRE and expressed
as a fraction of annual VRE energy. A shortfall day is a 24-hour chunk
whose total generation falls below a stated fraction of that day's demand.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ensemble import Ensemble
from .errors import ConfigError, EmptyGrid, LengthMismatch, OutOfRange, ValidationError, ZeroLoad
from .series import HourlySeries, chunk_sums, write_rows


@dataclass(frozen=True)
class VreWeights:
    solar: float
    wind: float

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in (self.solar, self.wind)):
            raise ConfigError(f"weights must be finite and >= 0, got ({self.solar}, {self.wind})")


@dataclass(frozen=True)
class AdequacyResult:
    percent_supplied: float
    percent_curtailed: float
    shortfall_days: int

    def as_dict(self) -> dict[str, float | int]:
        return {
            "percent_supplied": self.percent_supplied,
            "percent_curtailed": self.percent_curtailed,
            "shortfall_days": self.shortfall_days,
        }


def _check_lengths(*series: HourlySeries | np.ndarray) -> None:
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise LengthMismatch(f"series lengths differ: {sorted(lengths)}")


def _check_fraction(shortfall_fraction: float) -> None:
    if not math.isfinite(shortfall_fraction):
        raise OutOfRange(f"shortfall fraction must be finite, got {shortfall_fraction}")


def combine_vre(solar: HourlySeries, wind: HourlySeries, weights: VreWeights) -> HourlySeries:
    _check_lengths(solar, wind)
    return HourlySeries(weights.solar * solar.values + weights.wind * wind.values, label="vre")


def _adequacy(vre: np.ndarray, nuclear: np.ndarray, load: np.ndarray, fraction: float | None) -> AdequacyResult:
    """Adequacy of one VRE vector of the length of ``nuclear`` and ``load``;
    a ``fraction`` of None counts no shortfall days (a window of part days)."""
    if load.sum() <= 0:
        raise ZeroLoad("load energy is zero")
    gen = nuclear + vre
    if not np.isfinite(gen).all():
        raise ValidationError("generation (nuclear + VRE) is not finite")
    supplied = float(np.minimum(gen, load).sum() / load.sum())
    vre_total = float(vre.sum())
    surplus = float(np.maximum(gen - load, 0.0).sum())
    shortfall = 0 if fraction is None else int(np.sum(chunk_sums(gen, 24) < fraction * chunk_sums(load, 24)))
    return AdequacyResult(supplied, surplus / vre_total if vre_total > 0 else 0.0, shortfall)


def adequacy(
    vre: HourlySeries,
    nuclear: HourlySeries,
    load: HourlySeries,
    shortfall_fraction: float = 0.9,
) -> AdequacyResult:
    _check_lengths(vre, nuclear, load)
    _check_fraction(shortfall_fraction)
    return _adequacy(vre.values, nuclear.values, load.values, shortfall_fraction)


def weight_sweep(
    solar: HourlySeries,
    wind: HourlySeries,
    nuclear: HourlySeries,
    load: HourlySeries,
    curtailment_cap: float,
    solar_weights: Iterable[float],
    wind_weights: Iterable[float],
    shortfall_fraction: float = 0.9,
) -> list[tuple[VreWeights, AdequacyResult]]:
    """Exhaustive grid evaluation; feasible weights ranked by supplied.

    Feasibility means percent_curtailed <= cap. Ties on supplied break
    toward the smaller total build-out (solar + wind weight).
    """
    if not math.isfinite(curtailment_cap):
        raise OutOfRange(f"curtailment cap must be finite, got {curtailment_cap}")
    ww = list(wind_weights)
    grid = [VreWeights(s, w) for s in solar_weights for w in ww]
    if not grid:
        raise EmptyGrid("weight grid must be non-empty on both axes")
    _check_lengths(solar, wind, nuclear, load)
    _check_fraction(shortfall_fraction)
    results: list[tuple[VreWeights, AdequacyResult]] = []
    for weights in grid:
        vre = weights.solar * solar.values + weights.wind * wind.values
        res = _adequacy(vre, nuclear.values, load.values, shortfall_fraction)
        if res.percent_curtailed <= curtailment_cap:
            results.append((weights, res))
    results.sort(key=lambda t: (-t[1].percent_supplied, t[0].solar + t[0].wind))
    return results


def ensemble_adequacy(
    solar_ensemble: Ensemble,
    wind_ensemble: Ensemble,
    nuclear: HourlySeries,
    load: HourlySeries,
    weights: VreWeights,
    pairing_seed: int,
    pairs: int | None = None,
    shortfall_fraction: float = 0.9,
) -> list[AdequacyResult]:
    """Adequacy over randomly paired (solar, wind) synthetic series.

    Draws ``pairs`` uniform pairings (default: the larger ensemble size);
    deterministic for a fixed pairing seed, mass 1/B on each result.
    """
    B = pairs if pairs is not None else max(len(solar_ensemble), len(wind_ensemble))
    if B < 1:
        raise OutOfRange(f"pairs must be >= 1, got {B}")
    solar, wind = solar_ensemble.values, wind_ensemble.values
    _check_lengths(solar[0], wind[0], nuclear, load)
    _check_fraction(shortfall_fraction)
    rng = np.random.default_rng(pairing_seed)
    si = rng.integers(0, len(solar), size=B)
    wi = rng.integers(0, len(wind), size=B)
    return [
        _adequacy(weights.solar * solar[a] + weights.wind * wind[b], nuclear.values, load.values, shortfall_fraction)
        for a, b in zip(si, wi)
    ]


def seasonal_window(
    series: Sequence[HourlySeries], start_hour: int, duration_hours: int
) -> list[HourlySeries]:
    """Identical [start, start+duration) slice of every series."""
    _check_lengths(*series)
    n = len(series[0])
    if start_hour < 0 or duration_hours < 1 or start_hour + duration_hours > n:
        raise OutOfRange(f"window [{start_hour}, {start_hour + duration_hours}) outside [0, {n})")
    return [
        HourlySeries(s.values[start_hour : start_hour + duration_hours], label=s.label)
        for s in series
    ]


def windowed_adequacy(
    vre: HourlySeries,
    nuclear: HourlySeries,
    load: HourlySeries,
    start_hour: int,
    duration_hours: int,
    shortfall_fraction: float = 0.9,
) -> AdequacyResult:
    """Supplied/curtailed over a sub-window only (e.g. a seasonal 5-day slice)."""
    v, nuc, ld = seasonal_window([vre, nuclear, load], start_hour, duration_hours)
    if duration_hours % 24:
        # shortfall days are defined on whole days; ragged windows, which
        # may be shorter than one, only report the supplied/curtailed fractions
        return _adequacy(v.values, nuc.values, ld.values, None)
    return adequacy(v, nuc, ld, shortfall_fraction)


def sweep_table_csv(results: list[tuple[VreWeights, AdequacyResult]], path) -> None:
    rows = ([w.solar, w.wind, repr(r.percent_supplied), repr(r.percent_curtailed), r.shortfall_days]
            for w, r in results)
    write_rows(path, [["w_s", "w_w", "percent_supplied", "percent_curtailed", "shortfall_days"], *rows])


def shortfall_histogram(results: list[AdequacyResult]) -> dict[int, int]:
    return dict(sorted(Counter(r.shortfall_days for r in results).items()))
