#!/usr/bin/env python3
"""Time the exact p = 2 engines against the dense oracle and write BENCH_exact2.json.

    PYTHONPATH=src python3 scripts/bench_exact2.py [--runs 5] [--out BENCH_exact2.json]

Cases: ``exact_norm_p2`` of the partial sum P_n at m = 1..4 for n in
{0, 15, 4**m - 1} (alpha = 0.3, left side), and ``classical_norm_exact2`` at
levels 1..8 for n in {0, 15, 2**level - 1} (alpha = 0.3); an n outside the
level is skipped.  The oracle is the dense engine of ``tests/helpers.py``,
the top eigenvalue of the whole N x N similarity's Gram matrix.  A
partial-sum handle is built outside the timed calls and materialized by the
untimed warm-up, so the matrix cases time the engines alone; the classical
cases include building the 2**level x 2**level projection, which both
engines do.  Each case runs once untimed as a warm-up, then ``--runs`` times
per engine; the record holds the minimum and median seconds of each, the
engine's row count r (``handle.rows``), and the relative difference of the
two values.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from helpers import dense_classical_norm_exact2, dense_exact_norm_p2  # noqa: E402
from walshlab.classical import classical_norm_exact2  # noqa: E402
from walshlab.schauder import exact_norm_p2, partial_sum_handle  # noqa: E402
from walshlab.states import StateSpec  # noqa: E402

ALPHA = 0.3


def time_case(run, runs: int) -> tuple[dict, float]:
    value = run()  # warm-up
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return {"min_s": min(times), "median_s": statistics.median(times)}, value


def record(kind: str, size: int, n: int, rows: int, engine, oracle, runs: int) -> dict:
    engine_times, value = time_case(engine, runs)
    oracle_times, reference = time_case(oracle, runs)
    out = {"kind": kind, "level": size, "n": n, "alpha": ALPHA, "rows": rows}
    out.update({f"engine_{k}": v for k, v in engine_times.items()})
    out.update({f"oracle_{k}": v for k, v in oracle_times.items()})
    out["speedup_median"] = oracle_times["median_s"] / engine_times["median_s"]
    out["value"] = value
    out["rel_diff"] = abs(value - reference) / reference
    print(json.dumps(out), flush=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="BENCH_exact2.json")
    args = ap.parse_args()

    cases = []
    for m in range(1, 5):
        spec = StateSpec(ALPHA, m)
        for n in sorted({0, 15, 4**m - 1} & set(range(4**m))):
            handle = partial_sum_handle(n, m, ALPHA)
            rows = handle.rows
            cases.append(record(
                "matrix", m, n, rows,
                lambda: exact_norm_p2(handle, spec).value,
                lambda: dense_exact_norm_p2(handle, spec),
                args.runs,
            ))
    for level in range(1, 9):
        for n in sorted({0, 15, 2**level - 1} & set(range(2**level))):
            cases.append(record(
                "classical", level, n, n + 1,
                lambda: classical_norm_exact2(n, level, ALPHA),
                lambda: dense_classical_norm_exact2(n, level, ALPHA),
                args.runs,
            ))

    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "runs": args.runs,
    }
    with open(args.out, "w") as fh:
        json.dump({"environment": environment, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
