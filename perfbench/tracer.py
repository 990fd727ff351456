"""Run one synthseries CLI command with spans around its library calls.

Usage: python perfbench/tracer.py OUT_JSON COMMAND_NAME <synthseries cli args...>

Before the command runs, the public functions the CLI calls into each layer
are replaced, in the modules that look them up, by wrappers that record a
span (name, start, end, parent) in memory. Work only the trace needs (the
neighbour-search counts and re-timing the sampling step at 1 and 2 threads)
runs after the command has finished and is excluded from its time. All of it
is written to OUT_JSON at the end. Outputs are the same as an untraced run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.searches: list[tuple] = []  # (matrix, k, include_self, k-th distances)
        self.batches: list[tuple[tuple, dict]] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.monotonic(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_return=None):
        """Replace ``owner.attr`` with a spanned call; returns the original."""
        fn = getattr(owner, attr)

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        # a classmethod read from its class is already bound; keep it that way
        setattr(owner, attr, staticmethod(traced) if inspect.ismethod(fn) and isinstance(owner, type) else traced)
        return fn


def search_counts(matrix, k: int, include_self: bool, kth, block: int = 512) -> dict:
    """Exact counts for one ``nearest_rows`` call.

    A row is tied at the pool boundary when some candidate outside its pool
    is exactly as far as its k-th neighbour, i.e. more than k candidates lie
    within the k-th distance. Distances are recomputed as the search does.
    """
    import numpy as np
    from scipy.spatial.distance import cdist

    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    ties = 0
    for start in range(0, n, block):
        stop = min(start + block, n)
        d = cdist(m[start:stop], m)
        d[np.arange(stop - start), np.arange(start, stop)] = 0.0 if include_self else np.inf
        ties += int(np.count_nonzero((d <= kth[start:stop, None]).sum(axis=1) > k))
    return {"n": n, "k": k, "unique_rows": int(np.unique(m, axis=0).shape[0]), "tie_rows": ties}


def install(tracer: Tracer) -> dict:
    """Wrap the layer entry points; returns the originals needed afterwards."""
    from synthseries import cli, nnlb, sbb, stats
    from synthseries.ensemble import Ensemble

    def keep_search(args, kwargs, result):
        include_self = kwargs.get("include_self", args[2] if len(args) > 2 else True)
        tracer.searches.append((args[0], int(args[1]), bool(include_self), result[1][:, -1].copy()))

    def keep_batch(args, kwargs, result):
        tracer.batches.append((args, kwargs))

    originals = {}
    for mod, layer, build, pools in ((sbb, "sbb", "build_windows", "find_window_pools"),
                                     (nnlb, "nnlb", "build_lag_matrix", "find_neighbor_pools")):
        tracer.wrap(mod, build, f"{layer}.{build}")
        tracer.wrap(mod, pools, f"{layer}.{pools}")
        tracer.wrap(mod, "nearest_rows", "neighbors.nearest_rows", keep_search)
        originals["run_batch"] = tracer.wrap(mod, "run_batch", "ensemble.run_batch", keep_batch)
    tracer.wrap(cli, "generate_sbb_batch", "sbb.generate_batch")
    tracer.wrap(cli, "generate_nnlb_batch", "nnlb.generate_batch")
    tracer.wrap(cli, "load_csv", "series.load_csv")
    tracer.wrap(cli, "incremental_select", "perturb.incremental_select")
    tracer.wrap(cli, "direction_audit", "perturb.direction_audit")
    tracer.wrap(cli, "weight_sweep", "adequacy.weight_sweep")
    tracer.wrap(cli, "ensemble_adequacy", "adequacy.ensemble_adequacy")
    tracer.wrap(stats, "ensemble_summary_table", "stats.summary_table")
    tracer.wrap(stats, "empirical_distribution", "stats.empirical_distribution")
    tracer.wrap(Ensemble, "save", "ensemble.save")
    tracer.wrap(Ensemble, "load", "ensemble.load")
    return originals


def main(argv: list[str]) -> int:
    out_path, command, cli_args = argv[0], argv[1], argv[2:]
    # nothing heavy is imported before this, so it is the program's own cost
    t0 = time.perf_counter()
    from synthseries import cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    originals = install(tracer)
    rc = cli.main(cli_args)
    main_end = time.monotonic()

    # trace-only work, after the command's own time has been taken
    sample_t = {}
    for threads in (1, 2):
        t = time.perf_counter()
        for args, kwargs in tracer.batches:
            originals["run_batch"](*args, **{**kwargs, "threads": threads})
        sample_t[str(threads)] = time.perf_counter() - t
    record = {
        "command": command,
        "returncode": rc,
        "import_s": import_s,
        "main_end": main_end,
        "spans": tracer.spans,
        "searches": [search_counts(*s) for s in tracer.searches],
        "sample_s_by_threads": sample_t if tracer.batches else {},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
