#!/usr/bin/env python3
"""Time the multi-start ascent on its two estimators and write BENCH_ascent.json.

    PYTHONPATH=src python3 scripts/bench_ascent.py [--runs 5] [--out BENCH_ascent.json]

Single cells: ``estimate_norm_lp`` of the partial sum P_n, n = 4**m // 3, at
m = 1..4 (p = 3, alpha = 0.3, left side, 8 restarts), and
``classical_norm_estimate`` at n = 2**level // 3, levels 2..8 (p = 4,
alpha = 0.3, 8 restarts).  Whole sweeps, whose cells climb in lockstep
blocks: ``basis_constant_sweep`` estimates of every n at m = 1..3 (p = 3,
alpha = 0.3, 4 restarts, seed 0), and ``classical_norm_estimates`` of
n = 0..11 at levels 4..8 (p = 4, alpha = 0.3, 8 restarts, cell n seeded n).
Each case runs once untimed as a warm-up, then ``--runs`` times; the record
holds the minimum and median seconds, the value (the largest over a sweep),
the rounds of the dual power iteration the case needed (summed over blocks)
and its norm calls.  A single cell's partial-sum handle
is built and materialized outside the timed call, so those times cover the
ascent only; a sweep's times include building its operators.
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
from walshlab.classical import classical_norm_estimate, classical_norm_estimates
from walshlab.schauder import ESTIMATE, basis_constant_sweep, estimate_norm_lp, partial_sum_handle
from walshlab.states import LpContext, StateSpec

RESTARTS = 8
SWEEP_RESTARTS = 4
ALPHA = 0.3
# The norm each estimator's iteration calls, by module.
MATRIX_CALLS = {"norm_calls": (schauder, "batched_weighted_lp_norm")}
VECTOR_CALLS = {"norm_calls": (classical, "_weighted_vector_norm")}


def count_calls(targets: dict, run) -> dict:
    """Run ``run()`` once with each ``module.name`` of ``targets`` counting its calls,
    and count its rounds: a round of a block makes one call of the norm-gradient
    callback that ``multistart_ascent`` receives (the dual gradients call the
    norm's gradient functions themselves, so those are not counted)."""
    counts = {"rounds": 0, **dict.fromkeys(targets, 0)}
    originals = {key: getattr(module, name) for key, (module, name) in targets.items()}
    ascents = {module: module.multistart_ascent for module in (schauder, classical)}

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return counted

    def counting_rounds(ascent):
        def counted(mats, draw, norm_of, norm_gradient, *rest):
            return ascent(mats, draw, norm_of, counting("rounds", norm_gradient), *rest)

        return counted

    for key, (module, name) in targets.items():
        setattr(module, name, counting(key, originals[key]))
    for module, ascent in ascents.items():
        module.multistart_ascent = counting_rounds(ascent)
    try:
        run()
    finally:
        for key, (module, name) in targets.items():
            setattr(module, name, originals[key])
        for module, ascent in ascents.items():
            module.multistart_ascent = ascent
    return counts


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

    def record(case: dict, run, calls: dict) -> None:
        case.update(time_case(run, args.runs))
        case.update(count_calls(calls, run))
        cases.append(case)
        print(json.dumps(case), flush=True)

    for m in range(1, 5):
        n = 4**m // 3
        handle = partial_sum_handle(n, m, ALPHA)
        handle.matrix()
        ctx = LpContext(3.0, StateSpec(ALPHA, m))

        def run(handle=handle, ctx=ctx):
            return estimate_norm_lp(handle, ctx, restarts=RESTARTS, seed=0).value

        case = {"estimator": "estimate_norm_lp", "m": m, "n": n, "p": 3.0, "restarts": RESTARTS}
        record(case, run, MATRIX_CALLS)
    for level in range(2, 9):
        n = (1 << level) // 3

        def run(n=n, level=level):
            return classical_norm_estimate(n, level, ALPHA, 4.0, restarts=RESTARTS, seed=0)[0]

        case = {"estimator": "classical_norm_estimate", "level": level, "n": n, "p": 4.0, "restarts": RESTARTS}
        record(case, run, VECTOR_CALLS)
    for m in range(1, 4):
        ctx = LpContext(3.0, StateSpec(ALPHA, m))

        def run(ctx=ctx, m=m):
            rows = basis_constant_sweep(ctx, 4**m - 1, ESTIMATE, restarts=SWEEP_RESTARTS, seed=0)
            return max(max(row.value, row.decomp_value) for row in rows)

        case = {"estimator": "basis_constant_sweep", "m": m, "nmax": 4**m - 1, "p": 3.0,
                "restarts": SWEEP_RESTARTS}
        record(case, run, MATRIX_CALLS)
    for level in range(4, 9):
        ns = range(12)

        def run(level=level, ns=ns):
            return max(value for value, _ in classical_norm_estimates(ns, level, ALPHA, 4.0, RESTARTS, list(ns)))

        case = {"estimator": "classical_norm_estimates", "level": level, "nmax": 11, "p": 4.0,
                "restarts": RESTARTS}
        record(case, run, VECTOR_CALLS)

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
