#!/usr/bin/env python3
"""Case-study pipeline benchmark for synthseries.

Run from the root of a checkout:

    python3 perfbench/run.py --workload year_casestudy --seed 1 --seconds 45 --trace 0

One run writes synthetic inputs for the workload from ``--seed`` (set-up),
then runs the seven-command case-study chain (generate x3, analyze x2,
perturb, vre) as CLI processes, one after another, for at most about
``--seconds`` seconds and at least once (see ``measure``). Timings are
medians over the chains. It checks every output (see ``check.py``) and
prints the metrics, each with its unit, then one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``
(each child then runs under ``tracer.py``). A record of the run, with the
machine and run context, is written under ``.bench_work/results/``.

``--write-pins`` stores the outputs of this run as the pinned values for the
workload; use it only at the default seed and only when outputs are meant
to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import pipeline  # noqa: E402

DEFAULT_SEED = 20240901
# setup_s is the median CPU time of one set-up over bursts of SETUP_REPEATS
# taken after every command: a set-up lasts 4-40 ms, and set-ups timed
# together at one moment of the run spread 30-45% between runs
SETUP_REPEATS = 5
# a chain starts only if predicted to end within --seconds; one that overruns
# that by this much has hung, and its running command is killed
HANG_MARGIN_S = 60.0
UNITS = {
    "pipeline_s": "s", "generate_s": "s",
    "series_per_s": "1/s", "pipeline_cpu_s": "s", "peak_rss_mb": "MB",
    "disk_mb": "MB", "setup_s": "s",
}


def median(values):
    return statistics.median(values) if values else 0.0


# --- end-to-end metrics -----------------------------------------------------


def end_to_end(results: list[pipeline.CommandResult], wl: pipeline.Workload,
               setup_times: list[float], disk_bytes: int) -> dict[str, float]:
    """Each command's figures are its medians over the run; stage and
    pipeline times are sums of those medians."""
    by_name: dict[str, list[pipeline.CommandResult]] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)

    def per_command(field):
        return [(rs[0].stage, median([getattr(r, field) for r in rs])) for rs in by_name.values()]

    wall = per_command("wall_s")
    generate_s = sum(t for stage, t in wall if stage == "generate")
    return {
        "pipeline_s": sum(t for _, t in wall),
        "generate_s": generate_s,
        "series_per_s": 3 * wl.B / generate_s if generate_s > 0 else 0.0,
        "pipeline_cpu_s": sum(t for _, t in per_command("cpu_s")),
        "peak_rss_mb": max(kb for _, kb in per_command("maxrss_kb")) / 1024.0,
        "disk_mb": disk_bytes / 1e6,
        "setup_s": median(setup_times),
    }


# --- per-layer metrics from the traced children -----------------------------

LAYER_SPANS = {
    "nnlb.build_lag_matrix_s": "nnlb.build_lag_matrix",
    "nnlb.find_neighbor_pools_s": "nnlb.find_neighbor_pools",
    "nnlb.generate_batch_s": "nnlb.generate_batch",
    "sbb.build_windows_s": "sbb.build_windows",
    "sbb.find_window_pools_s": "sbb.find_window_pools",
    "sbb.generate_batch_s": "sbb.generate_batch",
    "ensemble.save_s": "ensemble.save",
    "ensemble.load_s": "ensemble.load",
    "stats.summary_table_s": "stats.summary_table",
    "stats.empirical_distribution_s": "stats.empirical_distribution",
    "adequacy.ensemble_adequacy_s": "adequacy.ensemble_adequacy",
    "adequacy.weight_sweep_s": "adequacy.weight_sweep",
    "perturb.incremental_select_s": "perturb.incremental_select",
    "perturb.direction_audit_s": "perturb.direction_audit",
    "series.load_csv_s": "series.load_csv",
}
TAGS = [g[0] for g in pipeline.GENERATORS]


def _span_s(records, name) -> float:
    return sum(s["end"] - s["start"] for rec in records for s in rec["spans"] if s["name"] == name)


def per_layer(records: list[dict], chain: list[pipeline.CommandResult], ensemble_tree: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced chain; ``records`` are the children's trace files."""
    by_name = {rec["command"]: rec for rec in records}
    m: dict[str, float] = {name: _span_s(records, span) for name, span in LAYER_SPANS.items()}
    evals = useful = 0
    for tag in TAGS:
        rec = by_name[f"generate_{tag}"]
        m[f"neighbors.{tag}_s"] = _span_s([rec], "neighbors.nearest_rows")
        searches = rec["searches"]
        m[f"neighbors.unique_row_share.{tag}"] = sum(s["unique_rows"] for s in searches) / sum(s["n"] for s in searches)
        m[f"neighbors.tie_rows.{tag}"] = sum(s["tie_rows"] for s in searches)
        evals += sum(s["n"] ** 2 for s in searches)
        useful += sum(s["k"] * s["n"] for s in searches)
    m["neighbors.distance_evals"] = evals
    m["neighbors.useful_ratio"] = useful / evals
    embed_and_pools = sum(m[f"{name}_s"] for name in (
        "sbb.build_windows", "sbb.find_window_pools", "nnlb.build_lag_matrix", "nnlb.find_neighbor_pools"))
    m["ensemble.sample_s"] = m["sbb.generate_batch_s"] + m["nnlb.generate_batch_s"] - embed_and_pools
    for threads in ("1", "2"):
        m[f"ensemble.sample_t{threads}_s"] = sum(rec["sample_s_by_threads"].get(threads, 0.0) for rec in records)
    m["ensemble.bytes_written"], m["ensemble.files_written"] = ensemble_tree
    # a command's own time ends when its main() returns; top-level spans are the layer calls
    started = {r.name: r.started for r in chain}
    own_s = {rec["command"]: rec["main_end"] - started[rec["command"]] for rec in records}
    command_s = sum(own_s.values())
    for stage in ("analyze", "vre"):
        m[f"cli.{stage}_s"] = sum(own_s[r.name] for r in chain if r.stage == stage)
    top_level = sum(s["end"] - s["start"] for rec in records for s in rec["spans"] if s["parent"] is None)
    m["cli.import_s"] = median([rec["import_s"] for rec in records])
    m["cli.processes"] = len(chain)
    m["cli.overhead_s"] = command_s - top_level
    return m


PER_LAYER_UNITS = {  # in the order BENCHMARK.json lists them
    "neighbors.solar_sbb_s": "s",
    "neighbors.wind_sbb_s": "s",
    "neighbors.solar_nnlb_s": "s",
    "neighbors.distance_evals": "count",
    "neighbors.useful_ratio": "ratio",
    "neighbors.unique_row_share.solar_sbb": "ratio",
    "neighbors.unique_row_share.wind_sbb": "ratio",
    "neighbors.unique_row_share.solar_nnlb": "ratio",
    "neighbors.tie_rows.solar_sbb": "count",
    "neighbors.tie_rows.wind_sbb": "count",
    "neighbors.tie_rows.solar_nnlb": "count",
    "nnlb.build_lag_matrix_s": "s",
    "nnlb.find_neighbor_pools_s": "s",
    "nnlb.generate_batch_s": "s",
    "sbb.build_windows_s": "s",
    "sbb.find_window_pools_s": "s",
    "sbb.generate_batch_s": "s",
    "ensemble.sample_s": "s",
    "ensemble.sample_t1_s": "s",
    "ensemble.sample_t2_s": "s",
    "ensemble.save_s": "s",
    "ensemble.load_s": "s",
    "ensemble.bytes_written": "bytes",
    "ensemble.files_written": "count",
    "stats.summary_table_s": "s",
    "stats.empirical_distribution_s": "s",
    "adequacy.ensemble_adequacy_s": "s",
    "adequacy.weight_sweep_s": "s",
    "perturb.incremental_select_s": "s",
    "perturb.direction_audit_s": "s",
    "series.load_csv_s": "s",
    "cli.import_s": "s",
    "cli.processes": "count",
    "cli.overhead_s": "s",
    "cli.analyze_s": "s",
    "cli.vre_s": "s",
}


# --- run context ------------------------------------------------------------


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith(prefix)), None)
    except OSError:
        return None


def _llc() -> str | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = sorted((int((d / "level").read_text()), (d / "size").read_text().strip())
                        for d in caches.glob("index*"))
    except (OSError, ValueError):
        return None
    return levels[-1][1] if levels else None


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # git would report an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def context(root: Path, args, wl: pipeline.Workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "n": wl.n, "B": wl.B, "threads": wl.threads,
        "nproc": os.cpu_count(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name") or platform.processor() or None,
        "llc": _llc(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": _commit(root), "src_sha256": _src_digest(root),
    }


# --- main -------------------------------------------------------------------


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers (numpy SeedSequence)")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    return parser.parse_args(argv)


@dataclass
class Chain:
    """One pass over the seven commands."""

    results: list[pipeline.CommandResult]
    digests: dict[str, str]  # output digest per command
    records: list[dict] = field(default_factory=list)  # trace files of a traced chain
    ensemble_tree: tuple[int, int] = (0, 0)  # (bytes, files) of the three ensembles


def time_setups(work: Path, wl: pipeline.Workload, seed: int) -> list[float]:
    """CPU time of each of SETUP_REPEATS set-ups; each rewrites the same bytes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.process_time()
        pipeline.setup(work, wl, seed)
        times.append(time.process_time() - t)
    return times


def measure(root: Path, work: Path, commands: list[pipeline.Command], wl: pipeline.Workload, seed: int,
            seconds: float, trace: bool) -> tuple[list[Chain], float, list[float]]:
    """Run chains while the next is predicted, from the last one's time, to
    end within ``seconds``; the first always runs. After each command a burst
    of set-ups is timed, so the set-up samples spread over the run."""
    deadline = time.monotonic() + seconds + HANG_MARGIN_S
    chains: list[Chain] = []
    setup_times: list[float] = []
    measured = took = 0.0
    while not chains or measured + took <= seconds:
        trace_dir = work / "trace" / str(len(chains)) if trace else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(work / "out", ignore_errors=True)
        t = time.monotonic()
        results = []
        for cmd in commands:
            results += pipeline.run_chain(root, work, [cmd], wl.threads, deadline, trace_dir)
            setup_times += time_setups(work, wl, seed)
        took = time.monotonic() - t
        measured += took
        chain = Chain(results, {c.name: pipeline.tree_digest(c.output) for c in commands})
        if trace_dir is not None:
            chain.records = [json.loads(p.read_text(encoding="utf-8"))
                             for p in (trace_dir / f"{c.name}.json" for c in commands) if p.is_file()]
            trees = [pipeline.tree_bytes(work / "out" / tag) for tag in TAGS]
            chain.ensemble_tree = (sum(b for b, _ in trees), sum(f for _, f in trees))
        chains.append(chain)
        if any(r.returncode != 0 for r in results):
            break
    return chains, measured, setup_times


def _exit_on_sigterm(signum, frame):
    # unwinds through run_command, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    t_begin = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "synthseries" / "cli.py").is_file():
        print(f"error: {root} is not a synthseries checkout (no src/synthseries)", file=sys.stderr)
        return 2
    if args.write_pins and args.seed != DEFAULT_SEED:
        print(f"error: pins are kept for the default seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    wl = pipeline.WORKLOADS[args.workload]
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)

    commands = pipeline.setup(work, wl, args.seed)
    chains, measured, setup_times = measure(root, work, commands, wl, args.seed, args.seconds, bool(args.trace))
    results = [r for chain in chains for r in chain.results]
    disk_bytes = pipeline.tree_bytes(work / "out")[0]

    # correctness: the last chain's outputs are checked in full; every command
    # run must exit cleanly and leave the same bytes as in the last chain
    pins_path = HERE / "pins" / f"{args.workload}.json"
    pins = None
    if args.seed == DEFAULT_SEED and pins_path.is_file() and not args.write_pins:
        pins = json.loads(pins_path.read_text(encoding="utf-8"))["outputs"]
    returncodes = {r.name: r.returncode for r in results}
    final = chains[-1].digests
    problems, observed = check.check(commands, returncodes, work / "inputs", wl, args.seed, pins)
    for i, chain in enumerate(chains):
        traced = {rec["command"] for rec in chain.records} if args.trace else set(chain.digests)
        for r in chain.results:
            if r.returncode != 0 or chain.digests[r.name] != final[r.name] or r.name not in traced:
                problems.setdefault(r.name, []).append(f"chain {i}: failed, untraced or output bytes differ")
    attempted = len(results)
    failed = sum(1 for r in results if r.name in problems)
    if args.write_pins and not problems:
        pins_path.parent.mkdir(parents=True, exist_ok=True)
        pins_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "outputs": observed},
                                        indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote pins to {pins_path}")

    if args.trace:
        layers = [per_layer(chain.records, chain.results, chain.ensemble_tree) for chain in chains
                  if len(chain.records) == len(commands)]
        # counts repeat exactly between chains; median_low keeps them whole numbers
        metrics = {name: (median if unit == "s" else statistics.median_low)([m[name] for m in layers])
                   for name, unit in PER_LAYER_UNITS.items()} if layers else {}
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(results, wl, setup_times, disk_bytes)
        units = UNITS

    ctx = context(root, args, wl)
    ctx.update(chains=len(chains), measured_s=measured,
               pinned=pins is not None, run_s=time.monotonic() - t_begin)
    record = {"context": ctx, "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": metrics, "chains": [[r.__dict__ for r in chain.results] for chain in chains]}
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    shutil.rmtree(work / "out", ignore_errors=True)

    print("context " + json.dumps(ctx, sort_keys=True))
    if pins is None:
        print(f"note: no pinned values compared (they are kept for seed {DEFAULT_SEED}): ensemble members past "
              f"the first {check.LIBRARY_MEMBERS} were checked against their manifest checksums only, "
              f"and the perturb output by shape only")
    for name, problem_list in sorted(problems.items()):
        for p in problem_list:
            print(f"FAIL {name}: {p}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:38s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_ratio':38s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
