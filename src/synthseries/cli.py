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


def _given(cfg: dict[str, Any], **kinds: type | None) -> dict[str, Any]:
    """The keys of ``kinds`` that ``cfg`` sets, each read by ``_get`` as its
    kind, to pass on as keywords: a key the config leaves out takes the
    library's default."""
    return {key: _get(cfg, key, kind) for key, kind in kinds.items() if key in cfg}


def _load_series(cfg: dict[str, Any], key: str, column: dict[str, str]) -> HourlySeries:
    path = _get(cfg, key, Path)
    if not path.exists():
        raise IOErrorSS(f"input file not found: {path}")
    return load_csv(path, **column)


# --- subcommands ----------------------------------------------------------
# Each command reads and checks its whole config and computes every result,
# then returns its outputs' writers and its stdout line for ``main`` to run.

Outputs = tuple[list[Callable[[], Any]], str]


def cmd_generate(cfg: dict[str, Any]) -> Outputs:
    source = _load_series(cfg, "input", _given(cfg, value_column=str))
    method = _get(cfg, "method")
    params = _get(cfg, "params", dict)
    B = _get(cfg, "B", int)
    seed = _seed(cfg, "seed")
    out_dir = _get(cfg, "output_dir", Path)
    options = _given(params, include_self=bool, kernel=None)
    if method == "nnlb":
        ens = generate_nnlb_batch(source, _get(params, "lag", int), _get(params, "k", int), B, seed, **options)
    elif method == "sbb":
        ens = generate_sbb_batch(source, _get(params, "sash", int), _get(params, "p", int), B, seed, **options)
    else:
        raise ConfigError(f"unknown method {method!r} (choose nnlb or sbb)")
    return [partial(ens.save, out_dir)], f"wrote {B} series to {out_dir}"


def cmd_perturb(cfg: dict[str, Any]) -> Outputs:
    column = _given(cfg, value_column=str)
    method = _get(cfg, "method")
    out_dir = _get(cfg, "output_dir", Path)
    if method == "incremental":
        source = _load_series(cfg, "input", column)
        seed = _seed(cfg, "seed")
        dcfg = _get(cfg, "distribution", dict)
        below = dcfg.get("below_probability")
        dist = OffsetDistribution(
            _get(dcfg, "kind"), **_given(dcfg, mean=float, std=float),
            below_probability=None if below is None else _coerce(below, float, "below_probability"),
        )
        clamp = ClampPolicy(**_given(_get(cfg, "clamp", dict, {}), alpha_max=float, alpha_min=float))
        altered = incremental_select(source, dist, clamp, seed)
        audit_source = source
    elif method == "altered_difference":
        # the method draws nothing, so a seed would be recorded but never used
        if "seed" in cfg:
            raise ConfigError("'seed' is not used by method 'altered_difference'; remove it")
        high = _load_series(cfg, "high", column)
        low = _load_series(cfg, "low", column)
        altered = altered_difference(
            high, low, _get(cfg, "alpha", float), **_given(cfg, delta_nonneg=bool, result_nonneg=bool)
        )
        audit_key = cfg.get("audit_against", "high")
        if audit_key not in ("high", "low"):
            raise ConfigError(f"'audit_against' must be 'high' or 'low', got {audit_key!r}")
        audit_source = high if audit_key == "high" else low
    else:
        raise ConfigError(f"unknown method {method!r} (choose incremental or altered_difference)")

    audit = direction_audit(altered, audit_source, **_given(cfg, chunk_hours=int, threshold_fraction=float))
    manifest = {
        "method": altered.method,
        "params": altered.params,
        "seed": altered.seed,
        "source_checksums": list(altered.source_checksums),
        "config": cfg,
    }
    return [
        partial(write_csv, altered.values, out_dir / "altered.csv"),
        partial(write_json, audit, out_dir / "audit.json"),
        partial(write_json, manifest, out_dir / "manifest.json"),
    ], f"wrote altered series and audit to {out_dir}"


def cmd_analyze(cfg: dict[str, Any]) -> Outputs:
    column = _given(cfg, value_column=str)
    ens = Ensemble.load(_get(cfg, "ensemble_dir", Path))
    original = _load_series(cfg, "original", column)
    if original.checksum() != ens.source_checksum:
        raise ChecksumMismatch(
            f"original {cfg['original']} is not the series the ensemble in {cfg['ensemble_dir']} was generated from"
        )
    out_dir = _get(cfg, "output_dir", Path)
    table = st.ensemble_summary_table(ens, original, **_given(cfg, autocorr_lag=int))
    tcfg = _get(cfg, "threshold", dict, {"kind": "proportional", "alpha": 0.05})
    threshold = st.Threshold(kind=tcfg.get("kind", "proportional"), **_given(tcfg, e=float, alpha=float))
    length = _get(cfg, "chunk_hours", int, 24)
    statistic = cfg.get("statistic", "underage_count")
    report = st.empirical_distribution(ens, original, statistic, length, threshold)
    exceedance = {
        "statistic": statistic,
        "chunk_hours": length,
        "threshold": tcfg,
        "distribution": report.describe(),
        "values": report.values.tolist(),
    }
    return [
        partial(st.write_table_csv, table, out_dir / "summary_table.csv"),
        partial(st.histogram_csv, report, out_dir / "exceedance_histogram.csv"),
        partial(write_json, exceedance, out_dir / "exceedance.json"),
    ], f"wrote analysis to {out_dir}"


def cmd_vre(cfg: dict[str, Any]) -> Outputs:
    column = _given(cfg, value_column=str)
    solar, wind, nuclear, load = [_load_series(cfg, key, column) for key in ("solar", "wind", "nuclear", "load")]
    out_dir = _get(cfg, "output_dir", Path)
    fraction = _given(cfg, shortfall_fraction=float)
    if not any(k in cfg for k in ("weights", "sweep", "ensembles")):
        raise ConfigError("vre config needs at least one of: weights, sweep, ensembles")
    if "ensembles" in cfg and "weights" not in cfg:
        raise ConfigError("ensemble adequacy requires fixed 'weights'")
    writes: list[Callable[[], Any]] = []
    if "weights" in cfg:
        w = _get(cfg, "weights", dict)
        weights = VreWeights(_get(w, "solar", float), _get(w, "wind", float))
        result = compute_adequacy(combine_vre(solar, wind, weights), nuclear, load, **fraction)
        writes.append(partial(write_json, {"weights": w, **result.as_dict()}, out_dir / "adequacy.json"))

    if "sweep" in cfg:
        sw = _get(cfg, "sweep", dict)
        results = weight_sweep(
            solar, wind, nuclear, load,
            curtailment_cap=_get(sw, "curtailment_cap", float),
            solar_weights=_get(sw, "solar_weights", list),
            wind_weights=_get(sw, "wind_weights", list),
            **fraction,
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
            **fraction,
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
    return writes, f"wrote case-study outputs to {out_dir}"


# --- entry point -----------------------------------------------------------

# name -> (command, help, the config keys besides output_dir a flag overrides)
_COMMANDS: dict[str, tuple[Callable[[dict[str, Any]], Outputs], str, tuple[str, ...]]] = {
    "generate": (cmd_generate, "generate a bootstrap ensemble from one observed series", ("seed", "B")),
    "perturb": (cmd_perturb, "directionally alter a series (incremental / altered-difference)", ("seed",)),
    "analyze": (cmd_analyze, "summary tables and exceedance distributions for an ensemble", ()),
    "vre": (cmd_vre, "weighted-VRE adequacy case study", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="synthseries")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the overrides of config keys it reads
    for name, (_, helptext, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to JSON config file")
        p.add_argument("--output-dir", default=argparse.SUPPRESS, help="override config output_dir")
        for key in keys:
            p.add_argument(f"--{key}", type=int, default=argparse.SUPPRESS, help=f"override config {key}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command, _, keys = _COMMANDS[args.command]
        cfg = _load_config(args.config)
        cfg.update((key, getattr(args, key)) for key in ("output_dir", *keys) if hasattr(args, key))
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        writes, message = command(cfg)
        for write in writes:
            write()
        print(message)
        return EXIT_OK
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
