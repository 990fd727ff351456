"""Directional alteration of series.

Two methods: incremental selection (subtract clamped stochastic offsets
drawn from a normal or exponential distribution) and the altered-difference
method (transfer a scaled gap between two series onto the lower one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import (
    InvalidDistributionParams,
    InvalidProbability,
    LengthMismatch,
)
from .series import HourlySeries
from .stats import Threshold, overage, summarize, underage


@dataclass(frozen=True)
class OffsetDistribution:
    """Offset-generating distribution for incremental selection.

    ``below_probability`` (normal only; another kind refuses it) shifts the
    mean so an altered point lies below its original with that probability:
    effective mean is mu + sigma * z_pi, z_pi the standard-normal quantile at pi.
    """

    kind: str  # "normal" | "exponential"
    mean: float = 0.0
    std: float = 1.0
    below_probability: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise InvalidDistributionParams(f"mean and std must be finite, got mean={self.mean}, std={self.std}")
        if self.kind == "normal":
            if self.std <= 0:
                raise InvalidDistributionParams(f"normal std must be > 0, got {self.std}")
            if self.below_probability is not None and not 0 < self.below_probability < 1:
                raise InvalidProbability(f"below_probability {self.below_probability} not in (0, 1)")
        elif self.kind == "exponential":
            if self.mean <= 0:
                raise InvalidDistributionParams(f"exponential mean must be > 0, got {self.mean}")
            # recorded in the manifest but never drawn from, it would claim a shift that is not there
            if self.below_probability is not None:
                raise InvalidDistributionParams("below_probability applies to kind 'normal' only; remove it")
        else:
            raise InvalidDistributionParams(f"unknown distribution kind {self.kind!r}")

    def effective_mean(self) -> float:
        if self.below_probability is not None:
            return self.mean + normal_below_probability(self.std, self.below_probability)
        return self.mean

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(self.effective_mean(), self.std, size=n)
        return rng.exponential(self.mean, size=n)


@dataclass(frozen=True)
class ClampPolicy:
    """Offset bounds proportional to each observation.

    The defaults keep non-negative data non-negative: the largest
    subtractive offset equals the observation itself.
    """

    alpha_max: float = 1.0
    alpha_min: float = -1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha_max) and math.isfinite(self.alpha_min)):
            raise InvalidDistributionParams(
                f"alpha_max and alpha_min must be finite, got ({self.alpha_max}, {self.alpha_min})"
            )
        if not self.alpha_max > self.alpha_min:
            raise InvalidDistributionParams(
                f"alpha_max ({self.alpha_max}) must exceed alpha_min ({self.alpha_min})"
            )


@dataclass(frozen=True)
class AlteredSeries:
    values: HourlySeries
    method: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    source_checksums: tuple[str, ...] = ()


def normal_below_probability(std: float, pi: float) -> float:
    """Mean shift std * z_pi so offsets are positive with probability pi."""
    if std <= 0:
        raise InvalidDistributionParams(f"std must be > 0, got {std}")
    if not 0.0 < pi < 1.0:
        raise InvalidProbability(f"probability {pi} not in (0, 1)")
    # imported here: statistics loads fractions and decimal, which every
    # other CLI command would pay for at start-up
    from statistics import NormalDist

    return std * NormalDist().inv_cdf(pi)


# --- incremental selection ----------------------------------------------


def incremental_select(
    source: HourlySeries,
    dist: OffsetDistribution,
    clamp: ClampPolicy | None = None,
    seed: int = 0,
) -> AlteredSeries:
    """Subtract per-hour clamped offsets from the source.

    For each hour i a draw z is clamped to [alpha_min * x_i, alpha_max * x_i]
    and subtracted, so for non-negative data the altered value stays inside
    [x_i * (1 - alpha_max), x_i * (1 - alpha_min)]. A zero-valued hour pins
    both bounds to zero and is never altered.
    """
    clamp = clamp or ClampPolicy()
    rng = np.random.default_rng(seed)
    x = source.values
    z = dist.draw(len(source), rng)
    with np.errstate(over="ignore"):  # a bound beyond float64 is no bound
        hi = clamp.alpha_max * x
        lo = clamp.alpha_min * x
    eps = np.where(z > hi, hi, np.where(z < lo, lo, z))
    return AlteredSeries(
        values=HourlySeries(x - eps, label=f"{source.label}_inc"),
        method="incremental_select",
        params={
            "kind": dist.kind,
            "mean": dist.mean,
            "std": dist.std,
            "below_probability": dist.below_probability,
            "alpha_max": clamp.alpha_max,
            "alpha_min": clamp.alpha_min,
        },
        seed=seed,
        source_checksums=(source.checksum(),),
    )


# --- altered difference --------------------------------------------------


def altered_difference(
    high: HourlySeries,
    low: HourlySeries,
    alpha: float,
    delta_nonneg: bool = False,
    result_nonneg: bool = False,
) -> AlteredSeries:
    """R = low - alpha * (high - low), with optional floors at zero.

    Which argument is "generally higher" is the caller's call; no
    reordering is performed.
    """
    if len(high) != len(low):
        raise LengthMismatch(f"series lengths differ: {len(high)} vs {len(low)}")
    # a result that overflows float64 is left non-finite, for HourlySeries to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        delta = high.values - low.values
        if delta_nonneg:
            delta = np.maximum(delta, 0.0)
        r = low.values - alpha * delta
        if result_nonneg:
            r = np.maximum(r, 0.0)
    return AlteredSeries(
        values=HourlySeries(r, label=f"{low.label}_altdiff"),
        method="altered_difference",
        params={"alpha": alpha, "delta_nonneg": delta_nonneg, "result_nonneg": result_nonneg},
        source_checksums=(high.checksum(), low.checksum()),
    )


def direction_audit(
    altered: AlteredSeries,
    source: HourlySeries,
    chunk_hours: int = 24,
    threshold_fraction: float = 0.05,
    autocorr_lag: int = 24,
) -> dict[str, Any]:
    """Summary stats of the altered series plus daily under/over counts."""
    synthetic = altered.values
    if len(synthetic) != len(source):
        raise LengthMismatch(f"series lengths differ: {len(synthetic)} vs {len(source)}")
    thr = Threshold(kind="proportional", alpha=threshold_fraction)
    under_sum, under_count = underage(source, synthetic, chunk_hours, thr)
    over_sum, over_count = overage(source, synthetic, chunk_hours, thr)
    return {
        "method": altered.method,
        "params": altered.params,
        "stats": summarize(synthetic, autocorr_lag).as_dict(),
        "chunk_hours": chunk_hours,
        "threshold_fraction": threshold_fraction,
        "days_below": under_count,
        "days_above": over_count,
        "underage_sum": under_sum,
        "overage_sum": over_sum,
    }
