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
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable

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
from .errors import ChecksumMismatch, ConfigError, IOErrorSS, SynthSeriesError, ValidationError
from .kernels import make_kernel
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
    return cfg


def _coerce(value: Any, kind: type, key: str) -> Any:
    """``kind(value)``; a value that does not convert, a NaN or infinite
    float, a bool, a string, or a float with a fractional part where an
    integer is wanted is a config error. ``int`` and ``float`` would take the
    last three silently: ``int(2.9)`` is 2, ``float(True)`` is 1.0 and
    ``int(" 4 ")`` is 4."""
    name = "an integer" if kind is int else "a number"
    if isinstance(value, (bool, str)) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key!r} must be {name}, got {value!r}")
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be {name}, got {value!r}") from None
    if kind is float and not math.isfinite(result):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    return result


def _require(cfg: dict[str, Any], key: str, kind: type | None = None) -> Any:
    if key not in cfg:
        raise ConfigError(f"config missing required key {key!r}")
    return cfg[key] if kind is None else _coerce(cfg[key], kind, key)


def _seed(cfg: dict[str, Any], key: str) -> int:
    seed = _require(cfg, key, int)
    if seed < 0:
        raise ConfigError(f"{key!r} must be a non-negative integer, got {seed}")
    return seed


def _path(cfg: dict[str, Any], key: str) -> Path:
    value = _require(cfg, key)
    if not isinstance(value, str):
        raise ConfigError(f"{key!r} must be a path string, got {value!r}")
    return Path(value)


def _get(cfg: dict[str, Any], key: str, kind: type, default: Any) -> Any:
    return _coerce(cfg.get(key, default), kind, key)


def _flag(cfg: dict[str, Any], key: str, default: bool) -> bool:
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value


def _section(cfg: dict[str, Any], key: str, default: dict[str, Any] | None = None) -> dict[str, Any]:
    """A nested JSON object: required unless a default is given."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _numbers(cfg: dict[str, Any], key: str) -> list[float]:
    """A list of finite JSON numbers, passed on as written (outputs echo them)."""
    values = _require(cfg, key)
    if not isinstance(values, list) or not all(
        (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and math.isfinite(v))
        for v in values
    ):
        raise ConfigError(f"{key!r} must be a list of finite numbers, got {values!r}")
    return values


def _value_column(cfg: dict[str, Any]) -> str:
    value = cfg.get("value_column", "value")
    if not isinstance(value, str):
        raise ConfigError(f"'value_column' must be a column name string, got {value!r}")
    return value


def _load_series(cfg: dict[str, Any], key: str, value_column: str) -> HourlySeries:
    path = _path(cfg, key)
    if not path.exists():
        raise IOErrorSS(f"input file not found: {path}")
    return load_csv(path, value_column=value_column)


# --- subcommands ----------------------------------------------------------


def cmd_generate(cfg: dict[str, Any], threads: int) -> int:
    value_column = _value_column(cfg)
    source = _load_series(cfg, "input", value_column)
    method = _require(cfg, "method")
    params = _section(cfg, "params")
    B = _require(cfg, "B", int)
    seed = _seed(cfg, "seed")
    out_dir = _path(cfg, "output_dir")
    include_self = _flag(params, "include_self", True)
    if method == "nnlb":
        k = _require(params, "k", int)
        kernel = make_kernel(params.get("kernel", "harmonic"), k)
        ens = generate_nnlb_batch(
            source, _require(params, "lag", int), k, B, seed,
            kernel=kernel, include_self=include_self, threads=threads,
        )
    elif method == "sbb":
        p = _require(params, "p", int)
        kernel = make_kernel(params.get("kernel", "uniform"), p)
        ens = generate_sbb_batch(
            source, _require(params, "sash", int), p, B, seed,
            kernel=kernel, include_self=include_self, threads=threads,
        )
    else:
        raise ConfigError(f"unknown method {method!r} (choose nnlb or sbb)")
    ens.save(out_dir)
    print(f"wrote {B} series to {out_dir}")
    return EXIT_OK


def cmd_perturb(cfg: dict[str, Any], threads: int) -> int:
    value_column = _value_column(cfg)
    method = _require(cfg, "method")
    out_dir = _path(cfg, "output_dir")
    if method == "incremental":
        source = _load_series(cfg, "input", value_column)
        seed = _seed(cfg, "seed")
        dcfg = _section(cfg, "distribution")
        below = dcfg.get("below_probability")
        dist = OffsetDistribution(
            kind=_require(dcfg, "kind"),
            mean=_get(dcfg, "mean", float, 0.0),
            std=_get(dcfg, "std", float, 1.0),
            below_probability=None if below is None else _coerce(below, float, "below_probability"),
        )
        ccfg = _section(cfg, "clamp", {})
        clamp = ClampPolicy(
            alpha_max=_get(ccfg, "alpha_max", float, 1.0),
            alpha_min=_get(ccfg, "alpha_min", float, -1.0),
        )
        altered = incremental_select(source, dist, clamp, seed)
        audit_source = source
    elif method == "altered_difference":
        high = _load_series(cfg, "high", value_column)
        low = _load_series(cfg, "low", value_column)
        altered = altered_difference(
            high, low, _require(cfg, "alpha", float),
            delta_nonneg=_flag(cfg, "delta_nonneg", False),
            result_nonneg=_flag(cfg, "result_nonneg", False),
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


def cmd_analyze(cfg: dict[str, Any], threads: int) -> int:
    value_column = _value_column(cfg)
    ens = Ensemble.load(_path(cfg, "ensemble_dir"))
    original = _load_series(cfg, "original", value_column)
    if original.checksum() != ens.source_checksum:
        raise ChecksumMismatch(
            f"original {cfg['original']} is not the series the ensemble in {cfg['ensemble_dir']} was generated from"
        )
    out_dir = _path(cfg, "output_dir")
    autocorr_lag = _get(cfg, "autocorr_lag", int, 24)
    table = st.ensemble_summary_table(ens, original, autocorr_lag)
    tcfg = _section(cfg, "threshold", {"kind": "proportional", "alpha": 0.05})
    threshold = st.Threshold(
        kind=tcfg.get("kind", "proportional"),
        e=_get(tcfg, "e", float, 0.0),
        alpha=_get(tcfg, "alpha", float, 0.0),
    )
    length = _get(cfg, "chunk_hours", int, 24)
    statistic = cfg.get("statistic", "underage_count")
    report = st.empirical_distribution(ens, original, statistic, length, threshold)
    # written only now, so a config error above leaves no output behind
    st.write_table_csv(table, out_dir / "summary_table.csv")
    st.histogram_csv(report, out_dir / "exceedance_histogram.csv")
    write_json(
        {
            "statistic": statistic,
            "chunk_hours": length,
            "threshold": tcfg,
            "distribution": report.describe(),
            "values": report.values.tolist(),
        },
        out_dir / "exceedance.json",
    )
    print(f"wrote analysis to {out_dir}")
    return EXIT_OK


def cmd_vre(cfg: dict[str, Any], threads: int) -> int:
    value_column = _value_column(cfg)
    solar = _load_series(cfg, "solar", value_column)
    wind = _load_series(cfg, "wind", value_column)
    nuclear = _load_series(cfg, "nuclear", value_column)
    load = _load_series(cfg, "load", value_column)
    out_dir = _path(cfg, "output_dir")
    fraction = _get(cfg, "shortfall_fraction", float, 0.9)
    if not any(k in cfg for k in ("weights", "sweep", "ensembles")):
        raise ConfigError("vre config needs at least one of: weights, sweep, ensembles")
    if "ensembles" in cfg and "weights" not in cfg:
        raise ConfigError("ensemble adequacy requires fixed 'weights'")
    # outputs are written only once every input has been read and checked
    # and every result computed, so a run that fails leaves none behind
    writes: list[Callable[[], None]] = []
    if "weights" in cfg:
        w = _section(cfg, "weights")
        weights = VreWeights(_require(w, "solar", float), _require(w, "wind", float))
        vre = combine_vre(solar, wind, weights)
        result = compute_adequacy(vre, nuclear, load, fraction)
        writes.append(partial(write_json, {"weights": w, **result.as_dict()}, out_dir / "adequacy.json"))

    if "sweep" in cfg:
        sw = _section(cfg, "sweep")
        results = weight_sweep(
            solar, wind, nuclear, load,
            curtailment_cap=_require(sw, "curtailment_cap", float),
            solar_weights=_numbers(sw, "solar_weights"),
            wind_weights=_numbers(sw, "wind_weights"),
            shortfall_fraction=fraction,
        )
        writes.append(partial(sweep_table_csv, results, out_dir / "sweep.csv"))

    if "ensembles" in cfg:
        e = _section(cfg, "ensembles")
        pairs = e.get("pairs")
        results = ensemble_adequacy(
            Ensemble.load(_path(e, "solar_dir")),
            Ensemble.load(_path(e, "wind_dir")),
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
        return _COMMANDS[args.command](cfg, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOErrorSS as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, SynthSeriesError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
