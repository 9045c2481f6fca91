#!/usr/bin/env python3
"""Time the factor-map kernel, the Walsh transform and the filtration by level and write BENCH_kernel.json.

    PYTHONPATH=src python3 scripts/bench_kernel.py [--runs 5] [--out BENCH_kernel.json]

Cases: one 16 MiB stack (``CASE_BYTES``, so 2**20 / 4**m matrices) of seeded
complex Gaussian 2**m x 2**m matrices at m = 1..8, the size of one pattern
block of the sign sweep when the committed record was taken, under four
calls: ``apply_factor_maps`` with one seeded complex 4x4 map on every
factor, ``walsh_coefficients`` of the stack, ``walsh_synthesize`` of those
coefficients, and ``cond_expect`` onto step m (alpha = 0.3; at m = 1 that
step is the last one, where the expectation is a copy).  Each case runs
once untimed as a warm-up, then ``--runs`` times; the record holds the
minimum and median seconds.
"""

import sys

import numpy as np

from levelbench import main, time_case
from walshlab.linalg import apply_factor_maps
from walshlab.states import StateSpec, cond_expect
from walshlab.walsh import walsh_coefficients, walsh_synthesize

ALPHA = 0.3
CASE_BYTES = 1 << 24


def cases(runs: int):
    rng = np.random.default_rng(0)
    factor_map = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for m in range(1, 9):
        d = 1 << m
        count = CASE_BYTES // (d * d * np.dtype(np.complex128).itemsize)
        xs = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        coefficients = walsh_coefficients(xs)
        spec = StateSpec(ALPHA, m)
        calls = {
            "apply_factor_maps": lambda: apply_factor_maps(xs, dict.fromkeys(range(m), factor_map)),
            "walsh_coefficients": lambda: walsh_coefficients(xs),
            "walsh_synthesize": lambda: walsh_synthesize(coefficients, m),
            "cond_expect": lambda: cond_expect(xs, m, spec),
        }
        for call, run in calls.items():
            yield {"m": m, "call": call, "matrices": count, **time_case(run, runs)[0]}


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_kernel.json", cases, alpha=ALPHA, case_bytes=CASE_BYTES))
