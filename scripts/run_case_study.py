#!/usr/bin/env python3
"""Reproduce the headline experiments on the PJM 2021 fixtures.

Runs the two bootstrap ensembles on solar and wind, prints their summary
tables, then runs the weighted-VRE adequacy case study (fixed weights and
the synthetic shortfall-day distribution). Requires the fixtures under
data/pjm/ (see scripts/fetch_pjm_data.py); writes CSV outputs under the
chosen --out-dir.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from synthseries.adequacy import VreWeights, adequacy, combine_vre, ensemble_adequacy, shortfall_histogram
from synthseries.nnlb import generate_nnlb_batch
from synthseries.sbb import generate_sbb_batch
from synthseries.series import load_csv, write_rows
from synthseries.stats import ensemble_summary_table, write_table_csv

DEFAULT_DATA = Path(__file__).resolve().parent.parent / "data" / "pjm"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=str(DEFAULT_DATA))
    parser.add_argument("--out-dir", default="case_study_out")
    parser.add_argument("--B", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20210101)
    args = parser.parse_args()

    data = Path(args.data_dir)
    series = {name: load_csv(data / f"{name}_2021.csv", label=name) for name in ("solar", "wind", "nuclear", "load")}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ensembles = {}
    for name, sash, p in (("solar", 2, 20), ("wind", 4, 100)):
        src = series[name]
        ensembles[name] = generate_sbb_batch(src, sash, p, args.B, args.seed)
        table = ensemble_summary_table(ensembles[name], src)
        write_table_csv(table, out / f"sbb_{name}_summary.csv")
        print(f"SBB {name} (sash={sash}, p={p}): mean-of-means "
              f"{ensembles[name].values.mean(axis=1).mean():.2f} vs original {src.mean:.2f}")

    nnlb = generate_nnlb_batch(series["solar"], 5, 20, args.B, args.seed)
    write_table_csv(ensemble_summary_table(nnlb, series["solar"]), out / "nnlb_solar_summary.csv")
    print(f"NNLB solar (l=5, k=20): mean-of-means {nnlb.values.mean(axis=1).mean():.2f}")

    for ws, ww in ((45, 22), (84, 64)):
        res = adequacy(combine_vre(series["solar"], series["wind"], VreWeights(ws, ww)),
                       series["nuclear"], series["load"])
        print(f"weights ({ws},{ww}): supplied {res.percent_supplied:.2%}, "
              f"curtailed {res.percent_curtailed:.2%}, shortfall days {res.shortfall_days}")

    results = ensemble_adequacy(ensembles["solar"], ensembles["wind"], series["nuclear"], series["load"],
                                VreWeights(84, 64), pairing_seed=args.seed, pairs=args.B)
    hist = shortfall_histogram(results)
    days = sorted(d for d in hist for _ in range(hist[d]))
    print(f"synthetic shortfall days over {args.B} pairs: min {days[0]}, "
          f"median {days[len(days) // 2]}, max {days[-1]}")
    write_rows(out / "shortfall_histogram.csv", [["shortfall_days", "count"], *hist.items()])
    print(f"tables written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
