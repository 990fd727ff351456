"""Command-line front end.

Subcommands: generate, perturb, analyze, vre. Each run is driven by a JSON
config file (documented in the README); a handful of flags override config
scalars. Seeds are mandatory and explicit so every run is reproducible;
every run writes a manifest with config, seeds, and input checksums.

Exit codes: 0 success, 2 configuration error, 3 IO error, 4 numerical
validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable

# OpenBLAS reads this once, when numpy loads it, so it is set before the first
# import below that pulls numpy in. Left unset, it starts one thread per CPU in
# every command, which costs CPU time and nothing else: the library makes no
# BLAS call, so no output byte depends on it. Set outright, not defaulted, so a
# caller's setting cannot bring the threads back. The package namespace imports
# nothing eagerly (see __init__), so library callers keep their own setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import stats as st
from .adequacy import (
    VreWeights,
    adequacy as compute_adequacy,
    combine_vre,
    ensemble_adequacy,
    shortfall_histogram,
    sweep_table_csv,
    weight_sweep,
)
from .ensemble import Ensemble
from .errors import ChecksumMismatch, ConfigError, IOErrorSS, SynthSeriesError
from .nnlb import generate_nnlb_batch
from .perturb import ClampPolicy, OffsetDistribution, altered_difference, direction_audit, incremental_select
from .sbb import generate_sbb_batch
from .series import HourlySeries, load_csv, write_csv, write_json, write_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def _load_config(path: str) -> dict[str, Any]:
    p = Path(path)
    if not p.exists():
        raise IOErrorSS(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _refuse_non_finite(cfg, "config")
    return cfg


def _refuse_non_finite(value: Any, key: str) -> None:
    """Python's json reads NaN, Infinity and numbers beyond a float (as inf),
    which JSON has none of. Outputs echo parts of the config, so such a number
    anywhere in it is a config error naming its key."""
    if isinstance(value, dict):
        for name, item in value.items():
            _refuse_non_finite(item, name)
    elif isinstance(value, list):
        if any(isinstance(item, float) and not math.isfinite(item) for item in value):
            raise ConfigError(f"{key!r} must be a list of finite numbers, got {value!r}")
        for item in value:
            _refuse_non_finite(item, key)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")


def _coerce(value: Any, kind: type, key: str) -> Any:
    """``kind(value)``; a value that does not convert, a bool, a string, or a
    float with a fractional part where an integer is wanted is a config error
    (the config holds no NaN or infinite float). ``int`` and ``float`` would
    take the last three silently: ``int(2.9)`` is 2, ``float(True)`` is 1.0
    and ``int(" 4 ")`` is 4."""
    name = "an integer" if kind is int else "a number"
    if isinstance(value, (bool, str)) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key!r} must be {name}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be {name}, got {value!r}") from None


_REQUIRED = object()

# what a value of each kind checked by ``isinstance`` must be, as errors say it
_KIND_NAMES = {bool: "true or false", dict: "a JSON object", str: "a column name string", Path: "a path string",
               list: "a list of finite numbers"}


def _get(cfg: dict[str, Any], key: str, kind: type | None = None, default: Any = _REQUIRED) -> Any:
    """``cfg[key]`` read as ``kind``; an absent key gives ``default`` as it
    is, or is a config error if there is none. ``int`` and ``float`` go
    through ``_coerce``; a ``Path`` is a string, returned as a ``Path``; a
    ``list`` holds finite JSON numbers and no bools, and is passed on as
    written (outputs echo it); no kind takes the value as written."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"config missing required key {key!r}")
        return default
    value = cfg[key]
    if kind in (int, float):
        return _coerce(value, kind, key)
    valid = kind is None or isinstance(value, str if kind is Path else kind)
    if valid and kind is list:
        try:
            valid = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in value)
        except OverflowError:  # an int beyond the largest float
            valid = False
    if not valid:
        raise ConfigError(f"{key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return Path(value) if kind is Path else value


def _seed(cfg: dict[str, Any], key: str) -> int:
    seed = _get(cfg, key, int)
    if seed < 0:
        raise ConfigError(f"{key!r} must be a non-negative integer, got {seed}")
    return seed


def _load_series(cfg: dict[str, Any], key: str, value_column: str) -> HourlySeries:
    path = _get(cfg, key, Path)
    if not path.exists():
        raise IOErrorSS(f"input file not found: {path}")
    return load_csv(path, value_column=value_column)


# --- subcommands ----------------------------------------------------------


def cmd_generate(cfg: dict[str, Any]) -> int:
    value_column = _get(cfg, "value_column", str, "value")
    source = _load_series(cfg, "input", value_column)
    method = _get(cfg, "method")
    params = _get(cfg, "params", dict)
    B = _get(cfg, "B", int)
    seed = _seed(cfg, "seed")
    out_dir = _get(cfg, "output_dir", Path)
    include_self = _get(params, "include_self", bool, True)
    if method == "nnlb":
        ens = generate_nnlb_batch(
            source, _get(params, "lag", int), _get(params, "k", int), B, seed,
            kernel=params.get("kernel", "harmonic"), include_self=include_self,
        )
    elif method == "sbb":
        ens = generate_sbb_batch(
            source, _get(params, "sash", int), _get(params, "p", int), B, seed,
            kernel=params.get("kernel", "uniform"), include_self=include_self,
        )
    else:
        raise ConfigError(f"unknown method {method!r} (choose nnlb or sbb)")
    ens.save(out_dir)
    print(f"wrote {B} series to {out_dir}")
    return EXIT_OK


def cmd_perturb(cfg: dict[str, Any]) -> int:
    value_column = _get(cfg, "value_column", str, "value")
    method = _get(cfg, "method")
    out_dir = _get(cfg, "output_dir", Path)
    if method == "incremental":
        source = _load_series(cfg, "input", value_column)
        seed = _seed(cfg, "seed")
        dcfg = _get(cfg, "distribution", dict)
        below = dcfg.get("below_probability")
        dist = OffsetDistribution(
            kind=_get(dcfg, "kind"),
            mean=_get(dcfg, "mean", float, 0.0),
            std=_get(dcfg, "std", float, 1.0),
            below_probability=None if below is None else _coerce(below, float, "below_probability"),
        )
        ccfg = _get(cfg, "clamp", dict, {})
        clamp = ClampPolicy(
            alpha_max=_get(ccfg, "alpha_max", float, 1.0),
            alpha_min=_get(ccfg, "alpha_min", float, -1.0),
        )
        altered = incremental_select(source, dist, clamp, seed)
        audit_source = source
    elif method == "altered_difference":
        # the method draws nothing, so a seed would be recorded but never used
        if "seed" in cfg:
            raise ConfigError("'seed' is not used by method 'altered_difference'; remove it")
        high = _load_series(cfg, "high", value_column)
        low = _load_series(cfg, "low", value_column)
        altered = altered_difference(
            high, low, _get(cfg, "alpha", float),
            delta_nonneg=_get(cfg, "delta_nonneg", bool, False),
            result_nonneg=_get(cfg, "result_nonneg", bool, False),
        )
        audit_key = cfg.get("audit_against", "high")
        if audit_key not in ("high", "low"):
            raise ConfigError(f"'audit_against' must be 'high' or 'low', got {audit_key!r}")
        audit_source = high if audit_key == "high" else low
    else:
        raise ConfigError(f"unknown method {method!r} (choose incremental or altered_difference)")

    audit = direction_audit(
        altered, audit_source,
        chunk_hours=_get(cfg, "chunk_hours", int, 24),
        threshold_fraction=_get(cfg, "threshold_fraction", float, 0.05),
    )
    # written only now, so a config error above leaves no output behind
    write_csv(altered.values, out_dir / "altered.csv")
    write_json(audit, out_dir / "audit.json")
    manifest = {
        "method": altered.method,
        "params": altered.params,
        "seed": altered.seed,
        "source_checksums": list(altered.source_checksums),
        "config": cfg,
    }
    write_json(manifest, out_dir / "manifest.json")
    print(f"wrote altered series and audit to {out_dir}")
    return EXIT_OK


def cmd_analyze(cfg: dict[str, Any]) -> int:
    value_column = _get(cfg, "value_column", str, "value")
    ens = Ensemble.load(_get(cfg, "ensemble_dir", Path))
    original = _load_series(cfg, "original", value_column)
    if original.checksum() != ens.source_checksum:
        raise ChecksumMismatch(
            f"original {cfg['original']} is not the series the ensemble in {cfg['ensemble_dir']} was generated from"
        )
    out_dir = _get(cfg, "output_dir", Path)
    autocorr_lag = _get(cfg, "autocorr_lag", int, 24)
    table = st.ensemble_summary_table(ens, original, autocorr_lag)
    tcfg = _get(cfg, "threshold", dict, {"kind": "proportional", "alpha": 0.05})
    threshold = st.Threshold(
        kind=tcfg.get("kind", "proportional"),
        e=_get(tcfg, "e", float, 0.0),
        alpha=_get(tcfg, "alpha", float, 0.0),
    )
    length = _get(cfg, "chunk_hours", int, 24)
    statistic = cfg.get("statistic", "underage_count")
    report = st.empirical_distribution(ens, original, statistic, length, threshold)
    distribution = report.describe()
    # written only now, so an error above leaves no output behind
    st.write_table_csv(table, out_dir / "summary_table.csv")
    st.histogram_csv(report, out_dir / "exceedance_histogram.csv")
    write_json(
        {
            "statistic": statistic,
            "chunk_hours": length,
            "threshold": tcfg,
            "distribution": distribution,
            "values": report.values.tolist(),
        },
        out_dir / "exceedance.json",
    )
    print(f"wrote analysis to {out_dir}")
    return EXIT_OK


def cmd_vre(cfg: dict[str, Any]) -> int:
    value_column = _get(cfg, "value_column", str, "value")
    solar = _load_series(cfg, "solar", value_column)
    wind = _load_series(cfg, "wind", value_column)
    nuclear = _load_series(cfg, "nuclear", value_column)
    load = _load_series(cfg, "load", value_column)
    out_dir = _get(cfg, "output_dir", Path)
    fraction = _get(cfg, "shortfall_fraction", float, 0.9)
    if not any(k in cfg for k in ("weights", "sweep", "ensembles")):
        raise ConfigError("vre config needs at least one of: weights, sweep, ensembles")
    if "ensembles" in cfg and "weights" not in cfg:
        raise ConfigError("ensemble adequacy requires fixed 'weights'")
    # outputs are written only once every input has been read and checked
    # and every result computed, so a run that fails leaves none behind
    writes: list[Callable[[], None]] = []
    if "weights" in cfg:
        w = _get(cfg, "weights", dict)
        weights = VreWeights(_get(w, "solar", float), _get(w, "wind", float))
        vre = combine_vre(solar, wind, weights)
        result = compute_adequacy(vre, nuclear, load, fraction)
        writes.append(partial(write_json, {"weights": w, **result.as_dict()}, out_dir / "adequacy.json"))

    if "sweep" in cfg:
        sw = _get(cfg, "sweep", dict)
        results = weight_sweep(
            solar, wind, nuclear, load,
            curtailment_cap=_get(sw, "curtailment_cap", float),
            solar_weights=_get(sw, "solar_weights", list),
            wind_weights=_get(sw, "wind_weights", list),
            shortfall_fraction=fraction,
        )
        writes.append(partial(sweep_table_csv, results, out_dir / "sweep.csv"))

    if "ensembles" in cfg:
        e = _get(cfg, "ensembles", dict)
        pairs = e.get("pairs")
        results = ensemble_adequacy(
            Ensemble.load(_get(e, "solar_dir", Path)),
            Ensemble.load(_get(e, "wind_dir", Path)),
            nuclear, load, weights,
            pairing_seed=_seed(e, "pairing_seed"),
            pairs=None if pairs is None else _coerce(pairs, int, "pairs"),
            shortfall_fraction=fraction,
        )
        hist = shortfall_histogram(results)
        writes.append(partial(
            write_json,
            {
                "weights": w,
                # int keys: sort_keys orders the days as numbers, before
                # json writes them as strings ("5" before "10")
                "shortfall_histogram": hist,
                "supplied": [r.percent_supplied for r in results],
                "curtailed": [r.percent_curtailed for r in results],
            },
            out_dir / "ensemble_adequacy.json",
        ))
        rows = [["shortfall_days", "count"], *hist.items()]
        writes.append(partial(write_rows, out_dir / "shortfall_histogram.csv", rows))

    for write in writes:
        write()
    print(f"wrote case-study outputs to {out_dir}")
    return EXIT_OK


# --- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="synthseries")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the overrides of config keys it reads
    for name, helptext, keys in [
        ("generate", "generate a bootstrap ensemble from one observed series", ("seed", "B")),
        ("perturb", "directionally alter a series (incremental / altered-difference)", ("seed",)),
        ("analyze", "summary tables and exceedance distributions for an ensemble", ()),
        ("vre", "weighted-VRE adequacy case study", ()),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to JSON config file")
        p.add_argument("--output-dir", default=argparse.SUPPRESS, help="override config output_dir")
        for key in keys:
            p.add_argument(f"--{key}", type=int, default=argparse.SUPPRESS, help=f"override config {key}")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "perturb": cmd_perturb,
    "analyze": cmd_analyze,
    "vre": cmd_vre,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg.update((key, getattr(args, key)) for key in ("seed", "output_dir", "B") if hasattr(args, key))
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOErrorSS as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SynthSeriesError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
