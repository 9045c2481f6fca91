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

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from helpers import dense_classical_norm_exact2, dense_exact_norm_p2  # noqa: E402
from levelbench import main, time_case  # noqa: E402
from walshlab.classical import classical_norm_exact2  # noqa: E402
from walshlab.schauder import exact_norm_p2, partial_sum_handle  # noqa: E402
from walshlab.states import StateSpec  # noqa: E402

ALPHA = 0.3


def case(kind: str, size: int, n: int, rows: int, engine, oracle, runs: int) -> dict:
    engine_times, value = time_case(engine, runs, "engine_")
    oracle_times, reference = time_case(oracle, runs, "oracle_")
    return {"kind": kind, "level": size, "n": n, "alpha": ALPHA, "rows": rows,
            **engine_times, **oracle_times,
            "speedup_median": oracle_times["oracle_median_s"] / engine_times["engine_median_s"],
            "value": value, "rel_diff": abs(value - reference) / reference}


def cases(runs: int):
    for m in range(1, 5):
        spec = StateSpec(ALPHA, m)
        for n in sorted({0, 15, 4**m - 1} & set(range(4**m))):
            handle = partial_sum_handle(n, m, ALPHA)
            yield case(
                "matrix", m, n, handle.rows,
                lambda: exact_norm_p2(handle, spec).value,
                lambda: dense_exact_norm_p2(handle, spec),
                runs,
            )
    for level in range(1, 9):
        for n in sorted({0, 15, 2**level - 1} & set(range(2**level))):
            yield case(
                "classical", level, n, n + 1,
                lambda: classical_norm_exact2(n, level, ALPHA),
                lambda: dense_classical_norm_exact2(n, level, ALPHA),
                runs,
            )


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_exact2.json", cases))
