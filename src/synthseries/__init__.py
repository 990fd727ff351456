"""Non-parametric bootstrap generation of synthetic hourly time series,
directional perturbation, and exceedance/adequacy statistics for
energy-model sensitivity analysis.

Public names are imported from their modules on first use (PEP 562), so
``import synthseries`` loads no numpy; ``synthseries.cli`` relies on that to
fix the BLAS thread count before numpy starts it.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_HOMES = {
    "adequacy": (
        "AdequacyResult", "VreWeights", "adequacy", "combine_vre", "ensemble_adequacy",
        "seasonal_window", "weight_sweep", "windowed_adequacy",
    ),
    "ensemble": ("Ensemble", "child_rng", "child_seed"),
    "kernels": ("ResamplingKernel", "harmonic_kernel", "uniform_kernel"),
    "nnlb": ("build_lag_matrix", "find_neighbor_pools", "generate_nnlb", "generate_nnlb_batch"),
    "perturb": (
        "AlteredSeries", "ClampPolicy", "OffsetDistribution", "altered_difference", "direction_audit",
        "incremental_select", "normal_below_probability",
    ),
    "sbb": ("build_windows", "find_window_pools", "generate_sbb", "generate_sbb_batch"),
    "series": ("HourlySeries", "chunk_sums", "load_csv", "write_csv"),
    "stats": (
        "ExceedanceReport", "SummaryStats", "Threshold", "empirical_distribution", "ensemble_summary_table",
        "overage", "summarize", "underage",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """Importing a submodule binds it on its package; the public function
    ``adequacy`` keeps its name over the submodule of the same name."""

    def __setattr__(self, name: str, value: object) -> None:
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
