"""Non-parametric bootstrap generation of synthetic hourly time series,
directional perturbation, and exceedance/adequacy statistics for
energy-model sensitivity analysis."""

from .adequacy import (
    AdequacyResult,
    VreWeights,
    adequacy,
    combine_vre,
    ensemble_adequacy,
    seasonal_window,
    weight_sweep,
    windowed_adequacy,
)
from .ensemble import Ensemble, child_rng, child_seed
from .kernels import ResamplingKernel, harmonic_kernel, uniform_kernel
from .nnlb import build_lag_matrix, find_neighbor_pools, generate_nnlb, generate_nnlb_batch
from .perturb import (
    AlteredSeries,
    ClampPolicy,
    OffsetDistribution,
    altered_difference,
    direction_audit,
    incremental_select,
    normal_below_probability,
)
from .sbb import build_windows, find_window_pools, generate_sbb, generate_sbb_batch
from .series import HourlySeries, chunk_sums, circular_get, load_csv, write_csv
from .stats import (
    ExceedanceReport,
    SummaryStats,
    Threshold,
    empirical_distribution,
    ensemble_summary_table,
    overage,
    summarize,
    underage,
)

__version__ = "0.1.0"

__all__ = [
    "AdequacyResult",
    "AlteredSeries",
    "ClampPolicy",
    "Ensemble",
    "ExceedanceReport",
    "HourlySeries",
    "OffsetDistribution",
    "ResamplingKernel",
    "SummaryStats",
    "Threshold",
    "VreWeights",
    "adequacy",
    "altered_difference",
    "build_lag_matrix",
    "build_windows",
    "child_rng",
    "child_seed",
    "chunk_sums",
    "circular_get",
    "combine_vre",
    "direction_audit",
    "empirical_distribution",
    "ensemble_adequacy",
    "ensemble_summary_table",
    "find_neighbor_pools",
    "find_window_pools",
    "generate_nnlb",
    "generate_nnlb_batch",
    "generate_sbb",
    "generate_sbb_batch",
    "harmonic_kernel",
    "incremental_select",
    "load_csv",
    "normal_below_probability",
    "overage",
    "seasonal_window",
    "summarize",
    "underage",
    "uniform_kernel",
    "weight_sweep",
    "windowed_adequacy",
    "write_csv",
]
