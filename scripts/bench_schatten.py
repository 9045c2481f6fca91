#!/usr/bin/env python3
"""Time ``linalg.schatten_norm`` on sign-sweep sized stacks and write BENCH_schatten.json.

    PYTHONPATH=src python3 scripts/bench_schatten.py [--runs 5] [--out BENCH_schatten.json]

Cases: one stack of seeded complex Gaussian 2**m x 2**m matrices at m = 1..8,
as large as one pattern block of the sign sweep (``SIGN_BLOCK_BYTES``, so
2**20 / 4**m matrices), at p = 1.5 (the SVD of x), 3 and inf (eigenvalues
of the Gram matrix x* x) and 4 (||x* x||_F, no decomposition).  Each case
runs once untimed as a warm-up, then ``--runs`` times; the record holds the
minimum and median seconds.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from walshlab.linalg import schatten_norm
from walshlab.schauder import SIGN_BLOCK_BYTES

PS = (1.5, 3.0, 4.0, np.inf)


def time_case(run, runs: int) -> dict:
    run()  # warm-up
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return {"min_s": min(times), "median_s": statistics.median(times)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="BENCH_schatten.json")
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    cases = []
    for m in range(1, 9):
        d = 1 << m
        count = SIGN_BLOCK_BYTES // (d * d * np.dtype(np.complex128).itemsize)
        xs = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        for p in PS:
            record = {"m": m, "p": "inf" if np.isinf(p) else p, "matrices": count,
                      "engine": "svd" if p < 2 else "gram"}
            record.update(time_case(lambda: schatten_norm(xs, p), args.runs))
            cases.append(record)
            print(json.dumps(record), flush=True)

    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "sign_block_bytes": SIGN_BLOCK_BYTES,
    }
    with open(args.out, "w") as fh:
        json.dump({"environment": environment, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
