"""Output-correctness gate for the case-study chain.

Four kinds of check, each charged to the command whose output it reads:

* on any seed, structural checks: every ensemble member file matches its
  manifest ``series_checksums`` entry (sha256 of the float64 buffer), has
  length n, there are B of them; analyze, perturb and vre outputs have the
  sizes and ranges the chain implies;
* on any seed, the first 4 members of each CLI ensemble equal those of a
  library ``generate_*_batch(B=4)`` call with the same seed, which checks
  that member b depends only on its child seed, at the workload's threads;
* on any seed, every analyze and vre number equals a plain-numpy
  recomputation (``reference``) from the inputs and the CLI's own ensembles,
  to a relative 1e-9; it shares no code with the library;
* at the default seed, every output number is pinned in ``pins/<workload>.json``:
  ensembles by a digest of their ``series_checksums`` list (not the
  manifest bytes, whose ``child_seeds`` may change), integer counts
  exactly, floats to a relative 1e-9.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import fixtures
from pipeline import GENERATORS, SWEEP, WEIGHTS, Command, Workload

REL_TOL = 1e-9
REF_ABS_TOL = 1e-12  # the reference sums in another order; results that should be 0 may not be exactly
LIBRARY_MEMBERS = 4


def read_member(path: Path) -> np.ndarray:
    """One series CSV (header row, value in the last column) as float64."""
    lines = path.read_bytes().split()
    return np.array([line.rsplit(b",", 1)[-1] for line in lines[1:]]).astype(float)


def sha256_values(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def read_table(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# --- observations: the numbers each command produced -----------------------


def observe(cmd: Command) -> dict:
    """The output numbers of one command, flattened to comparable values."""
    out = cmd.output
    if cmd.stage == "generate":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        checksums = manifest["series_checksums"]
        return {"members": len(checksums),
                "series_checksums_sha256": hashlib.sha256("\n".join(checksums).encode()).hexdigest()}
    if cmd.stage == "analyze":
        rows = read_table(out / "summary_table.csv")
        cols = rows[0][1:]
        obs = {f"summary/{r[0]}/{c}": float(v) for r in rows[1:] for c, v in zip(cols, r[1:])}
        exc = json.loads((out / "exceedance.json").read_text(encoding="utf-8"))
        obs.update({f"exceedance/{k}": float(v) for k, v in exc["distribution"].items()})
        obs["exceedance/values"] = [int(v) for v in exc["values"]]
        hist = read_table(out / "exceedance_histogram.csv")[1:]
        obs["histogram/edges"] = [float(r[0]) for r in hist] + [float(hist[-1][1])]
        obs["histogram/counts"] = [int(r[2]) for r in hist]
        return obs
    if cmd.stage == "perturb":
        audit = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        obs = {f"audit/stats/{k}": float(v) for k, v in audit["stats"].items()}
        obs.update({f"audit/{k}": int(audit[k]) for k in ("days_below", "days_above")})
        obs.update({f"audit/{k}": float(audit[k]) for k in ("underage_sum", "overage_sum")})
        obs["altered_sha256"] = sha256_values(read_member(out / "altered.csv"))
        return obs
    # vre
    fixed = json.loads((out / "adequacy.json").read_text(encoding="utf-8"))
    obs = {f"fixed/{k}": float(fixed[k]) for k in ("percent_supplied", "percent_curtailed")}
    obs["fixed/shortfall_days"] = int(fixed["shortfall_days"])
    sweep = read_table(out / "sweep.csv")[1:]
    obs["sweep/weights"] = [float(x) for r in sweep for x in r[:2]]
    obs["sweep/fractions"] = [float(x) for r in sweep for x in r[2:4]]
    obs["sweep/shortfall_days"] = [int(r[4]) for r in sweep]
    ens = json.loads((out / "ensemble_adequacy.json").read_text(encoding="utf-8"))
    obs["ensemble/histogram"] = [[int(k), int(v)] for k, v in ens["shortfall_histogram"].items()]
    obs["ensemble/supplied"] = [float(x) for x in ens["supplied"]]
    obs["ensemble/curtailed"] = [float(x) for x in ens["curtailed"]]
    return obs


def same(got, want, abs_tol: float = 0.0) -> bool:
    """Ints and strings exactly; floats to a relative ``REL_TOL``; lists elementwise."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same(g, w, abs_tol) for g, w in zip(got, want)))
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)
    return type(got) is type(want) and got == want


def differing(got: dict, want: dict, abs_tol: float = 0.0) -> list[str]:
    """Keys missing on either side or whose values are not ``same``."""
    return [key for key in sorted(set(want) | set(got))
            if key not in got or key not in want or not same(got[key], want[key], abs_tol)]


def compare_pins(observed: dict[str, dict], pins: dict[str, dict]) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    for name, want in pins.items():
        for key in differing(observed.get(name, {}), want):
            problems.setdefault(name, []).append(f"pinned value differs: {key}")
    return problems


# --- reference: analyze and vre recomputed with plain numpy -----------------
# Written from the definitions the CLI documents (summary statistics of each
# member, underage-count exceedance on 24-hour chunks against 5% of the
# original, weighted-VRE adequacy), vectorised over the members, so a
# change to the library's loops or ensemble IO is checked on any seed.


def _day_sums(x: np.ndarray) -> np.ndarray:
    """24-hour sums along the last axis; a ragged last day wraps around, as in the library."""
    pad = -x.shape[-1] % 24
    if pad:
        x = np.concatenate([x, x[..., :pad]], axis=-1)
    return x.reshape(*x.shape[:-1], -1, 24).sum(axis=-1)


def _member_stats(x: np.ndarray, lag: int) -> np.ndarray:
    """Rows of per-member statistics in the summary table's row order; ``x`` is (members, n)."""
    q1, med, q3 = np.percentile(x, [25, 50, 75], axis=-1)
    mean = x.mean(axis=-1)
    std = x.std(axis=-1, ddof=1)
    centred = x - mean[..., None]
    denom = (centred * centred).sum(axis=-1)
    lagged = (centred[..., :-lag] * centred[..., lag:]).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(mean != 0, std / mean, 0.0)
        autocorr = np.where(denom != 0, lagged / denom, 0.0)
    return np.array([x.min(axis=-1), q1, med, q3, x.max(axis=-1), mean, std, cv, autocorr])


SUMMARY_ROWS = ["Min", "First Quartile", "Median", "Third Quartile", "Max",
                "Mean", "Standard Dev.", "Coeff. of Var.", "Autocorr. Lag: 24"]


def _describe(col: np.ndarray) -> dict[str, float]:
    q1, med, q3 = np.percentile(col, [25, 50, 75])
    return {"mean": float(col.mean()), "std": float(col.std(ddof=1)), "min": float(col.min()),
            "q1": float(q1), "median": float(med), "q3": float(q3), "max": float(col.max())}


def reference_analyze(members: np.ndarray, original: np.ndarray) -> dict:
    per_member = _member_stats(members, 24)
    orig = _member_stats(original[None, :], 24)[:, 0]
    obs = {}
    for row, col, o in zip(SUMMARY_ROWS, per_member, orig):
        d = _describe(col)
        for key, name in (("mean", "mean"), ("std", "std"), ("min", "min"), ("q1", "25%"),
                          ("median", "50%"), ("q3", "75%"), ("max", "max")):
            obs[f"summary/{row}/{name}"] = d[key]
        obs[f"summary/{row}/original"] = float(o)
    orig_days = _day_sums(original)
    counts = ((orig_days - _day_sums(members)) >= 0.05 * orig_days).sum(axis=-1)
    obs.update({f"exceedance/{k}": v for k, v in _describe(counts.astype(float)).items()})
    obs["exceedance/values"] = [int(v) for v in counts]
    hist, edges = np.histogram(counts.astype(float), bins=30)
    obs["histogram/edges"] = [float(e) for e in edges]
    obs["histogram/counts"] = [int(c) for c in hist]
    return obs


def _adequacy(solar, wind, nuclear, load, ws, ww):
    """(supplied, curtailed, shortfall days) of ``ws``·solar + ``ww``·wind; leading axes broadcast."""
    vre = ws * solar + ww * wind
    gen = nuclear + vre
    supplied = np.minimum(gen, load).sum(axis=-1) / load.sum()
    vre_total = vre.sum(axis=-1)
    surplus = np.maximum(gen - load, 0.0).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        curtailed = np.where(vre_total > 0, surplus / vre_total, 0.0)
    shortfall = (_day_sums(gen) < 0.9 * _day_sums(load)).sum(axis=-1)
    return supplied, curtailed, shortfall


def reference_vre(inputs: dict[str, np.ndarray], solar_members: np.ndarray, wind_members: np.ndarray,
                  pairing_seed: int, pairs: int) -> dict:
    solar, wind, nuclear, load = (inputs[k] for k in ("solar", "wind", "nuclear", "load"))
    supplied, curtailed, shortfall = _adequacy(solar, wind, nuclear, load, WEIGHTS["solar"], WEIGHTS["wind"])
    obs = {"fixed/percent_supplied": float(supplied), "fixed/percent_curtailed": float(curtailed),
           "fixed/shortfall_days": int(shortfall)}
    grid = [(float(s), float(w)) for s in SWEEP["solar_weights"] for w in SWEEP["wind_weights"]]
    rows = []
    for s, w in grid:
        sup, cur, short = _adequacy(solar, wind, nuclear, load, s, w)
        if cur <= SWEEP["curtailment_cap"]:
            rows.append((s, w, float(sup), float(cur), int(short)))
    rows.sort(key=lambda r: (-r[2], r[0] + r[1]))
    obs["sweep/weights"] = [x for r in rows for x in r[:2]]
    obs["sweep/fractions"] = [x for r in rows for x in r[2:4]]
    obs["sweep/shortfall_days"] = [r[4] for r in rows]
    rng = np.random.default_rng(pairing_seed)  # the pairing the vre config asks for
    si = rng.integers(0, len(solar_members), size=pairs)
    wi = rng.integers(0, len(wind_members), size=pairs)
    supplied, curtailed, shortfall = _adequacy(solar_members[si], wind_members[wi], nuclear, load,
                                               WEIGHTS["solar"], WEIGHTS["wind"])
    days, counts = np.unique(shortfall, return_counts=True)
    obs["ensemble/histogram"] = [[int(d), int(c)] for d, c in zip(days, counts)]
    obs["ensemble/supplied"] = [float(x) for x in supplied]
    obs["ensemble/curtailed"] = [float(x) for x in curtailed]
    return obs


# --- checks that hold on any seed ------------------------------------------


def _check_ensemble(cmd: Command, wl: Workload) -> tuple[list[str], np.ndarray | None]:
    """(problems, the members as a (B, n) array, or None if they do not form one)."""
    manifest = json.loads((cmd.output / "manifest.json").read_text(encoding="utf-8"))
    files, checksums = manifest["series_files"], manifest["series_checksums"]
    problems = [] if len(files) == len(checksums) == wl.B else [f"{len(files)} members, expected {wl.B}"]
    members = []
    for b, (name, want) in enumerate(zip(files, checksums)):
        values = read_member(cmd.output / name)
        if values.shape != (wl.n,) or sha256_values(values) != want:
            problems.append(f"member {b} does not match its manifest checksum")
        members.append(values)
    return problems, (np.array(members) if not problems else None)


def _check_outputs(cmd: Command, obs: dict, wl: Workload) -> list[str]:
    days = math.ceil(wl.n / 24)
    bad = []
    if cmd.stage == "analyze":
        values = obs["exceedance/values"]
        if len(values) != wl.B or not all(0 <= v <= days for v in values):
            bad.append("exceedance values: wrong count or out of range")
        if sum(obs["histogram/counts"]) != wl.B:
            bad.append("exceedance histogram does not count B members")
        if not all(math.isfinite(v) for k, v in obs.items() if k.startswith("summary/")):
            bad.append("summary table has a non-finite entry")
    elif cmd.stage == "perturb":
        altered = read_member(cmd.output / "altered.csv")
        if altered.shape != (wl.n,) or not np.all(np.isfinite(altered)):
            bad.append("altered series has the wrong length or a non-finite value")
    elif cmd.stage == "vre":
        fractions = [obs["fixed/percent_supplied"], obs["fixed/percent_curtailed"],
                     *obs["ensemble/supplied"], *obs["ensemble/curtailed"]]
        if not all(0.0 <= f <= 1.0 for f in fractions):
            bad.append("adequacy fraction outside [0, 1]")
        if len(obs["ensemble/supplied"]) != wl.B or sum(c for _, c in obs["ensemble/histogram"]) != wl.B:
            bad.append("ensemble adequacy does not cover B pairs")
    return bad


def library_members(inputs: Path, tag: str, seed: int) -> list[np.ndarray]:
    """First members of the same ensemble, generated by a library call."""
    from synthseries.nnlb import generate_nnlb_batch
    from synthseries.sbb import generate_sbb_batch
    from synthseries.series import load_csv

    _, series, method, params = next(g for g in GENERATORS if g[0] == tag)
    source = load_csv(inputs / f"synthetic_{series}.csv")
    if method == "sbb":
        ens = generate_sbb_batch(source, params["sash"], params["p"], LIBRARY_MEMBERS, seed)
    else:
        ens = generate_nnlb_batch(source, params["lag"], params["k"], LIBRARY_MEMBERS, seed)
    return [s.values for s in ens.series]


def _reference(cmd: Command, inputs: dict[str, np.ndarray], ensembles: dict[str, np.ndarray]) -> dict | None:
    """The reference numbers of an analyze or vre command; None when an ensemble
    it reads failed its own checks (that failure is charged to its generate command)."""
    cfg = json.loads(cmd.config.read_text(encoding="utf-8"))
    if cmd.stage == "analyze":
        members = ensembles.get(cfg["ensemble_dir"])
        return None if members is None else reference_analyze(members, inputs["solar"])
    e = cfg["ensembles"]
    solar, wind = ensembles.get(e["solar_dir"]), ensembles.get(e["wind_dir"])
    if solar is None or wind is None:
        return None
    return reference_vre(inputs, solar, wind, e["pairing_seed"], e["pairs"])


def check(commands: list[Command], returncodes: dict[str, int], inputs: Path, wl: Workload,
          seed: int, pins: dict | None) -> tuple[dict[str, list[str]], dict[str, dict]]:
    """(problems per command name, observations per command name)."""
    problems: dict[str, list[str]] = {}
    observed: dict[str, dict] = {}
    series = {name: read_member(inputs / f"synthetic_{name}.csv") for name in fixtures.NAMES}
    ensembles: dict[str, np.ndarray] = {}  # output dir -> members, for ensembles that passed their checks
    # the library batches rebuild their pools, the slow part on a long series:
    # two threads run them (the distance and sort kernels release the GIL)
    # while this one reads the CLI outputs; threads, not processes, so the
    # gate leaves nothing running behind it (a spawned process pool also
    # starts a resource-tracker process that outlives the pool)
    with ThreadPoolExecutor(max_workers=2) as pool:
        library = {cmd.name: pool.submit(library_members, inputs, cmd.name.removeprefix("generate_"), seed)
                   for cmd in commands if cmd.stage == "generate" and returncodes.get(cmd.name) == 0}
        for cmd in commands:
            if returncodes.get(cmd.name) != 0:
                problems[cmd.name] = [f"exit code {returncodes.get(cmd.name)}"]
                continue
            members = None
            try:
                observed[cmd.name] = obs = observe(cmd)
                bad = _check_outputs(cmd, obs, wl)
                if cmd.stage == "generate":
                    found, members = _check_ensemble(cmd, wl)
                    bad += found
                elif cmd.stage in ("analyze", "vre"):
                    want = _reference(cmd, series, ensembles)
                    if want is not None:
                        bad += [f"differs from the reference: {key}" for key in differing(obs, want, REF_ABS_TOL)]
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                bad = [f"unreadable output: {exc!r}"]
            if cmd.name in library:
                try:
                    lib = library[cmd.name].result()
                except Exception as exc:  # any library failure is this command's failed check
                    bad.append(f"library batch failed: {exc!r}")
                else:
                    if members is None or not all(map(np.array_equal, members[:LIBRARY_MEMBERS], lib)):
                        bad.append("first members differ from the library batch with the same seed")
            if bad:
                problems[cmd.name] = bad
            elif members is not None:
                ensembles[str(cmd.output)] = members
    if pins is not None:
        for name, found in compare_pins(observed, pins).items():
            problems.setdefault(name, []).extend(found)
    return problems, observed
