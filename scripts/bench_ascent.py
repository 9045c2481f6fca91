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

import sys

from levelbench import main, patched, time_case
from walshlab import classical, schauder
from walshlab.classical import classical_norm_estimate, classical_norm_estimates
from walshlab.schauder import ESTIMATE, basis_constant_sweep, estimate_norm_lp, partial_sum_handle
from walshlab.states import LpContext, StateSpec

RESTARTS = 8
SWEEP_RESTARTS = 4
ALPHA = 0.3
# The norm each estimator's iteration calls.
MATRIX_NORM = (schauder, "batched_weighted_lp_norm")
VECTOR_NORM = (classical, "_weighted_vector_norm")


def count_calls(norm: tuple, run) -> dict:
    """Run ``run()`` once with the ``(module, name)`` norm counting its calls,
    and count its rounds: a round of a block makes one call of the norm-gradient
    callback that ``multistart_ascent`` receives (the dual gradients call the
    norm's gradient functions themselves, so those are not counted)."""
    counts = {"rounds": 0, "norm_calls": 0}

    def counting(key):
        def wrap(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return wrap

    def counting_rounds(ascent):
        def counted(mats, draw, norm_of, norm_gradient, *rest):
            return ascent(mats, draw, norm_of, counting("rounds")(norm_gradient), *rest)

        return counted

    with patched([
        (*norm, counting("norm_calls")),
        (schauder, "multistart_ascent", counting_rounds),
        (classical, "multistart_ascent", counting_rounds),
    ]):
        run()
    return counts


def case(keys: dict, run, norm: tuple, runs: int) -> dict:
    times, value = time_case(run, runs)
    return {**keys, **times, "value": value, **count_calls(norm, run)}


def cases(runs: int):
    for m in range(1, 5):
        n = 4**m // 3
        handle = partial_sum_handle(n, m, ALPHA)
        handle.matrix()
        ctx = LpContext(3.0, StateSpec(ALPHA, m))
        yield case(
            {"estimator": "estimate_norm_lp", "m": m, "n": n, "p": 3.0, "restarts": RESTARTS},
            lambda: estimate_norm_lp(handle, ctx, restarts=RESTARTS, seed=0).value,
            MATRIX_NORM, runs,
        )
    for level in range(2, 9):
        n = (1 << level) // 3
        yield case(
            {"estimator": "classical_norm_estimate", "level": level, "n": n, "p": 4.0, "restarts": RESTARTS},
            lambda: classical_norm_estimate(n, level, ALPHA, 4.0, restarts=RESTARTS, seed=0)[0],
            VECTOR_NORM, runs,
        )
    for m in range(1, 4):
        ctx = LpContext(3.0, StateSpec(ALPHA, m))

        def run():
            rows = basis_constant_sweep(ctx, 4**m - 1, ESTIMATE, restarts=SWEEP_RESTARTS, seed=0)
            return max(max(row.value, row.decomp_value) for row in rows)

        yield case(
            {"estimator": "basis_constant_sweep", "m": m, "nmax": 4**m - 1, "p": 3.0, "restarts": SWEEP_RESTARTS},
            run, MATRIX_NORM, runs,
        )
    for level in range(4, 9):
        ns = range(12)
        yield case(
            {"estimator": "classical_norm_estimates", "level": level, "nmax": 11, "p": 4.0, "restarts": RESTARTS},
            lambda: max(value for value, _ in classical_norm_estimates(ns, level, ALPHA, 4.0, RESTARTS, list(ns))),
            VECTOR_NORM, runs,
        )


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_ascent.json", cases, ascent_block=schauder.ASCENT_BLOCK))
