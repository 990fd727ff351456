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


@dataclass(frozen=True)
class OffsetDistribution:
    """Offset-generating distribution for incremental selection.

    ``below_probability`` (normal only) shifts the mean so an altered point
    lies below its original with that probability: effective mean is
    mu + sigma * z_pi, z_pi the standard-normal quantile at pi.
    """

    kind: str  # "normal" | "exponential"
    mean: float = 0.0
    std: float = 1.0
    below_probability: float | None = None

    def __post_init__(self):
        if self.kind == "normal":
            if self.std <= 0:
                raise InvalidDistributionParams(f"normal std must be > 0, got {self.std}")
            if self.below_probability is not None and not 0 < self.below_probability < 1:
                raise InvalidProbability(f"below_probability {self.below_probability} not in (0, 1)")
        elif self.kind == "exponential":
            if self.mean <= 0:
                raise InvalidDistributionParams(f"exponential mean must be > 0, got {self.mean}")
        else:
            raise InvalidDistributionParams(f"unknown distribution kind {self.kind!r}")

    def effective_mean(self) -> float:
        if self.kind == "normal" and self.below_probability is not None:
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


# --- standard-normal inverse CDF ----------------------------------------
#
# Rational approximation (Acklam 2003) polished with one Halley step on
# the complementary error function; absolute error well under 1e-8.
# Kept self-contained so the quantile path can be cross-checked against a
# bisection oracle on the CDF in the test suite.

_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_ppf(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise InvalidProbability(f"probability {p} not in (0, 1)")
    p_low, p_high = 0.02425, 1 - 0.02425
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    # Halley refinement; below p of about 1e-310, exp(x * x / 2) overflows, and
    # p, a subnormal, holds too few bits for the step to improve on x
    e = _norm_cdf(x) - p
    try:
        u = e * math.sqrt(2 * math.pi) * math.exp(x * x / 2.0)
    except OverflowError:
        return x
    return x - u / (1 + x * u / 2)


def normal_below_probability(std: float, pi: float) -> float:
    """Mean shift std * z_pi so offsets are positive with probability pi."""
    if std <= 0:
        raise InvalidDistributionParams(f"std must be > 0, got {std}")
    return std * _norm_ppf(pi)


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
    from .stats import Threshold, overage, summarize, underage

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
