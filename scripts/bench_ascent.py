#!/usr/bin/env python3
"""Time the multi-start ascent on its two estimators and write BENCH_ascent.json.

    PYTHONPATH=src python3 scripts/bench_ascent.py [--runs 5] [--out BENCH_ascent.json]

Cases: ``estimate_norm_lp`` of the partial sum P_n, n = 4**m // 3, at
m = 1..4 (p = 3, alpha = 0.3, left side, 8 restarts), and
``classical_norm_estimate`` at n = 2**level // 3, levels 2..8 (p = 4,
alpha = 0.3, 8 restarts).  Each case runs once untimed as a warm-up, then
``--runs`` times; the record holds the minimum and median seconds, the value,
and the ascent rounds the case needed (one gradient call per round of a
block of restarts, summed over blocks).  A partial-sum handle is built and
materialized outside the timed call, so the times cover the ascent only.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from walshlab import classical, schauder
from walshlab.classical import classical_norm_estimate
from walshlab.schauder import estimate_norm_lp, partial_sum_handle
from walshlab.states import LpContext, StateSpec

RESTARTS = 8
ALPHA = 0.3


def count_rounds(module, name: str, run) -> int:
    """Run ``run()`` once with ``module.name`` (the estimator's gradient) counting its calls."""
    original = getattr(module, name)
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        run()
    finally:
        setattr(module, name, original)
    return calls


def time_case(run, runs: int) -> dict:
    run()  # warm-up
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        value = run()
        times.append(time.perf_counter() - start)
    return {"min_s": min(times), "median_s": statistics.median(times), "value": value}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="BENCH_ascent.json")
    args = ap.parse_args()

    cases = []
    for m in range(1, 5):
        n = 4**m // 3
        handle = partial_sum_handle(n, m, ALPHA)
        handle.matrix()
        ctx = LpContext(3.0, StateSpec(ALPHA, m))

        def run(handle=handle, ctx=ctx):
            return estimate_norm_lp(handle, ctx, restarts=RESTARTS, seed=0).value

        record = {"estimator": "estimate_norm_lp", "m": m, "n": n, "p": 3.0, "restarts": RESTARTS}
        record.update(time_case(run, args.runs))
        record["rounds"] = count_rounds(schauder, "weighted_lp_gradient", run)
        cases.append(record)
        print(json.dumps(record), flush=True)
    for level in range(2, 9):
        n = (1 << level) // 3

        def run(n=n, level=level):
            return classical_norm_estimate(n, level, ALPHA, 4.0, restarts=RESTARTS, seed=0)[0]

        record = {"estimator": "classical_norm_estimate", "level": level, "n": n, "p": 4.0,
                  "restarts": RESTARTS}
        record.update(time_case(run, args.runs))
        record["rounds"] = count_rounds(classical, "_weighted_vector_gradient", run)
        cases.append(record)
        print(json.dumps(record), flush=True)

    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "ascent_block": schauder.ASCENT_BLOCK,
    }
    with open(args.out, "w") as fh:
        json.dump({"environment": environment, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
