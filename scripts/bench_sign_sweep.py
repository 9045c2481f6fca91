#!/usr/bin/env python3
"""Time ``schauder.unconditionality_constant`` by level and write BENCH_sign.json.

    PYTHONPATH=src python3 scripts/bench_sign_sweep.py [--runs 5] [--out BENCH_sign.json]

Cases at alpha = 0.3, seed 0, one thread: the sampled sweep (256 sampled sign
patterns) at m = 1..5, p = 3, 100 trials, and the exhaustive sweep (all
2**(2m) patterns) at m = 1..3, p = 4, 5000 trials at m <= 2 and 1000 at
m = 3.  Each case runs once untimed as a warm-up, then ``--runs`` times; the
record holds the minimum and median seconds of the whole sweep, of its probe
draws (``task_gaussian_stack``), of its martingale differences
(``filtration_differences``, one call per probe run) and of its norms
(``batched_weighted_lp_norm``, the probes' own norms and every pattern
block), and the distinct patterns evaluated and the probes kept.
"""

import argparse
import functools
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from walshlab import schauder
from walshlab.states import LpContext, StateSpec

ALPHA = 0.3
SEED = 0
CASES = [("sampled", m, 3.0, 100) for m in range(1, 6)] + [
    ("exhaustive", 1, 4.0, 5000),
    ("exhaustive", 2, 4.0, 5000),
    ("exhaustive", 3, 4.0, 1000),
]


def timed(fn, spent: list):
    """``fn`` that appends the seconds of each call to ``spent``."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)

    return wrapper


def summary(times: list, key: str) -> dict:
    return {f"{key}_min_s": min(times), f"{key}_median_s": statistics.median(times)}


# Record key of each timed layer, by its name in ``schauder``.
LAYERS = {
    "task_gaussian_stack": "draw",
    "filtration_differences": "differences",
    "batched_weighted_lp_norm": "norm",
}


def time_case(mode: str, m: int, p: float, trials: int, runs: int) -> dict:
    ctx = LpContext(p, StateSpec(ALPHA, m))
    sweep = functools.partial(schauder.unconditionality_constant, ctx, mode, trials=trials, seed=SEED)
    originals = {name: getattr(schauder, name) for name in LAYERS}
    spent = {name: [] for name in LAYERS}
    for name, fn in originals.items():
        setattr(schauder, name, timed(fn, spent[name]))
    try:
        report = sweep()  # warm-up
        totals, layer_s = [], {name: [] for name in LAYERS}
        for _ in range(runs):
            for calls in spent.values():
                calls.clear()
            start = time.perf_counter()
            sweep()
            totals.append(time.perf_counter() - start)
            for name, calls in spent.items():
                layer_s[name].append(sum(calls))
    finally:
        for name, fn in originals.items():
            setattr(schauder, name, fn)

    record = {"mode": mode, "m": m, "p": p, "trials": trials,
              "patterns": report.patterns, "probes": report.probes}
    record.update(summary(totals, "sweep"))
    for name, key in LAYERS.items():
        record.update(summary(layer_s[name], key))
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="BENCH_sign.json")
    args = ap.parse_args()

    cases = []
    for mode, m, p, trials in CASES:
        record = time_case(mode, m, p, trials, args.runs)
        cases.append(record)
        print(json.dumps(record), flush=True)

    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "alpha": ALPHA,
        "seed": SEED,
        "sign_block_bytes": schauder.SIGN_BLOCK_BYTES,
    }
    with open(args.out, "w") as fh:
        json.dump({"environment": environment, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
