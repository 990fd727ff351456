"""Weighted-VRE adequacy accounting for the capacity-scaling case study.

Generation is must-run nuclear plus a weighted sum of solar and wind.
Curtailment is surplus over load, attributed entirely to VRE and expressed
as a fraction of annual VRE energy. A shortfall day is a 24-hour chunk
whose total generation falls below a stated fraction of that day's demand.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .ensemble import Ensemble
from .errors import ConfigError, EmptyGrid, LengthMismatch, OutOfRange, ValidationError, ZeroLoad
from .series import HourlySeries, chunk_sums


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


def _check_lengths(*series: HourlySeries) -> None:
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise LengthMismatch(f"series lengths differ: {sorted(lengths)}")


def combine_vre(solar: HourlySeries, wind: HourlySeries, weights: VreWeights) -> HourlySeries:
    _check_lengths(solar, wind)
    return HourlySeries(weights.solar * solar.values + weights.wind * wind.values, label="vre")


def _supplied_curtailed(vre: np.ndarray, nuclear: np.ndarray, load: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Hourly generation, and the fractions of load supplied and of VRE curtailed."""
    if load.sum() <= 0:
        raise ZeroLoad("load energy is zero")
    gen = nuclear + vre
    if not np.isfinite(gen).all():
        raise ValidationError("generation (nuclear + VRE) is not finite")
    supplied = float(np.minimum(gen, load).sum() / load.sum())
    vre_total = float(vre.sum())
    surplus = float(np.maximum(gen - load, 0.0).sum())
    return gen, supplied, surplus / vre_total if vre_total > 0 else 0.0


def adequacy(
    vre: HourlySeries,
    nuclear: HourlySeries,
    load: HourlySeries,
    shortfall_fraction: float = 0.9,
) -> AdequacyResult:
    _check_lengths(vre, nuclear, load)
    if not math.isfinite(shortfall_fraction):
        raise OutOfRange(f"shortfall fraction must be finite, got {shortfall_fraction}")
    gen, supplied, curtailed = _supplied_curtailed(vre.values, nuclear.values, load.values)
    gen_daily = chunk_sums(gen, 24)
    load_daily = chunk_sums(load.values, 24)
    shortfall = int(np.sum(gen_daily < shortfall_fraction * load_daily))
    return AdequacyResult(supplied, curtailed, shortfall)


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
    ws = list(solar_weights)
    ww = list(wind_weights)
    if not ws or not ww:
        raise EmptyGrid("weight grid must be non-empty on both axes")
    results: list[tuple[VreWeights, AdequacyResult]] = []
    for s in ws:
        for w in ww:
            weights = VreWeights(s, w)
            res = adequacy(combine_vre(solar, wind, weights), nuclear, load, shortfall_fraction)
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
    rng = np.random.default_rng(pairing_seed)
    si = rng.integers(0, len(solar_ensemble), size=B)
    wi = rng.integers(0, len(wind_ensemble), size=B)
    out = []
    for a, b in zip(si, wi):
        vre = combine_vre(HourlySeries(solar_ensemble.values[a]), HourlySeries(wind_ensemble.values[b]), weights)
        out.append(adequacy(vre, nuclear, load, shortfall_fraction))
    return out


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
        # shortfall days are defined on whole days; ragged windows only
        # report the supplied/curtailed fractions
        _, supplied, curtailed = _supplied_curtailed(v.values, nuc.values, ld.values)
        return AdequacyResult(supplied, curtailed, 0)
    return adequacy(v, nuc, ld, shortfall_fraction)


def sweep_table_csv(results: list[tuple[VreWeights, AdequacyResult]], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w_s", "w_w", "percent_supplied", "percent_curtailed", "shortfall_days"])
        for w, r in results:
            writer.writerow([w.solar, w.wind, repr(r.percent_supplied), repr(r.percent_curtailed), r.shortfall_days])


def shortfall_histogram(results: list[AdequacyResult]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for r in results:
        hist[r.shortfall_days] = hist.get(r.shortfall_days, 0) + 1
    return dict(sorted(hist.items()))
