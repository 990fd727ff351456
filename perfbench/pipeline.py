"""The case-study chain as seven CLI commands, and a runner that times them.

Each workload writes its inputs and JSON configs under a work directory and
runs generate x3, analyze x2, perturb x1 and vre x1 one after another (a
closed loop with one client). Every command is a fresh interpreter running
``python -m synthseries.cli`` against ``src/`` of the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import fixtures

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    n: int
    B: int
    threads: int


WORKLOADS = {
    "year_casestudy": Workload(n=8760, B=100, threads=1),
    "month_ensemble": Workload(n=720, B=2000, threads=2),
}

# (tag, input series, method, params) of the three generate commands
GENERATORS = (
    ("solar_sbb", "solar", "sbb", {"sash": 2, "p": 20}),
    ("wind_sbb", "wind", "sbb", {"sash": 4, "p": 100}),
    ("solar_nnlb", "solar", "nnlb", {"lag": 5, "k": 20}),
)
WEIGHTS = {"solar": 45, "wind": 22}
SWEEP = {
    "curtailment_cap": 0.2,
    "solar_weights": [5 * i for i in range(1, 21)],
    "wind_weights": [5 * i for i in range(1, 15)],
}
PERTURB_DIST = {"kind": "normal", "mean": 25.0, "std": 25.0}


@dataclass(frozen=True)
class Command:
    name: str
    stage: str  # generate | analyze | perturb | vre
    config: Path
    output: Path


def write_configs(work: Path, wl: Workload, seed: int) -> list[Command]:
    """Configs for the chain; inputs must already be in ``work/inputs``."""
    inputs = {name: str(work / "inputs" / f"synthetic_{name}.csv") for name in fixtures.NAMES}
    out = work / "out"
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    specs: list[tuple[str, str, dict]] = []
    for tag, series, method, params in GENERATORS:
        specs.append((f"generate_{tag}", "generate", {
            "input": inputs[series], "method": method, "params": params,
            "B": wl.B, "seed": seed, "output_dir": str(out / tag),
        }))
    for tag in ("solar_sbb", "solar_nnlb"):
        specs.append((f"analyze_{tag}", "analyze", {
            "ensemble_dir": str(out / tag), "original": inputs["solar"],
            "output_dir": str(out / f"analyze_{tag}"),
        }))
    specs.append(("perturb_wind", "perturb", {
        "method": "incremental", "input": inputs["wind"], "seed": seed,
        "distribution": PERTURB_DIST, "output_dir": str(out / "perturb_wind"),
    }))
    specs.append(("vre", "vre", {
        **{k: inputs[k] for k in ("solar", "wind", "nuclear", "load")},
        "weights": WEIGHTS, "sweep": SWEEP,
        "ensembles": {"solar_dir": str(out / "solar_sbb"), "wind_dir": str(out / "wind_sbb"),
                      "pairing_seed": seed, "pairs": wl.B},
        "output_dir": str(out / "vre"),
    }))
    commands = []
    for name, stage, cfg in specs:
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        commands.append(Command(name, stage, path, Path(cfg["output_dir"])))
    return commands


def setup(work: Path, wl: Workload, seed: int) -> list[Command]:
    """Everything a run needs before the first command: inputs and configs."""
    fixtures.write_inputs(work / "inputs", wl.n, seed)
    return write_configs(work, wl, seed)


@dataclass(frozen=True)
class CommandResult:
    name: str
    stage: str
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    started: float  # time.monotonic() just before the child was spawned


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_command(argv: list[str], env: dict[str, str], log: Path, timeout_s: float) -> tuple[int, float, float, int, float]:
    """Run one child to completion; its own rusage comes from wait4.

    A timer kills the child at the deadline, so a hung command ends the run
    as a failure instead of outliving it. If the wait is interrupted (an
    exception, or SIGTERM turned into SystemExit by ``run.py``), the child
    is killed and reaped before the exception goes on.
    """
    with log.open("wb") as err:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=err, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, started


def run_chain(
    root: Path, work: Path, commands: list[Command], threads: int, deadline: float,
    trace_dir: Path | None = None,
) -> list[CommandResult]:
    """Run the commands in order, each after the one before has ended.

    With ``trace_dir`` each child runs under ``perfbench/tracer.py``, which
    writes that command's spans and counts to ``trace_dir/<name>.json``.
    """
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    results = []
    for cmd in commands:
        cli = ["--threads", str(threads), cmd.stage, str(cmd.config)]
        if trace_dir is None:
            argv = [sys.executable, "-m", "synthseries.cli", *cli]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_dir / f"{cmd.name}.json"), cmd.name, *cli]
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            results.append(CommandResult(cmd.name, cmd.stage, -1, 0.0, 0.0, 0, time.monotonic()))
            continue
        rc, wall, cpu, rss, started = run_command(argv, env, logs / f"{cmd.name}.log", remaining)
        results.append(CommandResult(cmd.name, cmd.stage, rc, wall, cpu, rss, started))
    return results


def tree_bytes(path: Path) -> tuple[int, int]:
    """(bytes, files) of every regular file under ``path``."""
    total = files = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            total += os.stat(os.path.join(dirpath, name)).st_size
            files += 1
    return total, files


def tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\0" + file.read_bytes())
    return h.hexdigest()
