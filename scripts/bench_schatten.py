#!/usr/bin/env python3
"""Time ``linalg.schatten_norm`` on sign-sweep sized stacks and write BENCH_schatten.json.

    PYTHONPATH=src python3 scripts/bench_schatten.py [--runs 5] [--out BENCH_schatten.json]

Cases: one 16 MiB stack (``CASE_BYTES``, so 2**20 / 4**m matrices) of seeded
complex Gaussian 2**m x 2**m matrices at m = 1..8, the size of one pattern
block of the sign sweep when the committed record was taken, at p = 1.5 (the
SVD of x), 3 and inf (eigenvalues of the Gram matrix x* x) and 4
(||x* x||_F, no decomposition).  Each case runs once untimed as a warm-up,
then ``--runs`` times; the record holds the minimum and median seconds.
"""

import sys

import numpy as np

from levelbench import main, time_case
from walshlab.linalg import schatten_norm

PS = (1.5, 3.0, 4.0, np.inf)
CASE_BYTES = 1 << 24


def cases(runs: int):
    rng = np.random.default_rng(0)
    for m in range(1, 9):
        d = 1 << m
        count = CASE_BYTES // (d * d * np.dtype(np.complex128).itemsize)
        xs = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        for p in PS:
            case = {"m": m, "p": "inf" if np.isinf(p) else p, "matrices": count,
                    "engine": "svd" if p < 2 else "gram"}
            case.update(time_case(lambda: schatten_norm(xs, p), runs)[0])
            yield case


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_schatten.json", cases, case_bytes=CASE_BYTES))
