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

import functools
import sys

from levelbench import main, patched, time_case, timing
from walshlab import schauder
from walshlab.states import LpContext, StateSpec

ALPHA = 0.3
SEED = 0
CASES = [("sampled", m, 3.0, 100) for m in range(1, 6)] + [
    ("exhaustive", 1, 4.0, 5000),
    ("exhaustive", 2, 4.0, 5000),
    ("exhaustive", 3, 4.0, 1000),
]
# Record key of each timed layer, by its name in ``schauder``.
LAYERS = {
    "task_gaussian_stack": "draw",
    "filtration_differences": "differences",
    "batched_weighted_lp_norm": "norm",
}


def cases(runs: int):
    for mode, m, p, trials in CASES:
        ctx = LpContext(p, StateSpec(ALPHA, m))
        sweep = functools.partial(schauder.unconditionality_constant, ctx, mode, trials=trials, seed=SEED)
        splits = {key: [] for key in LAYERS.values()}
        with patched([(schauder, name, timing(splits[key])) for name, key in LAYERS.items()]):
            times, report = time_case(sweep, runs, "sweep_", splits)
        yield {"mode": mode, "m": m, "p": p, "trials": trials,
               "patterns": report.patterns, "probes": report.probes, **times}


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_sign.json", cases,
                  alpha=ALPHA, seed=SEED, sign_block_bytes=schauder.SIGN_BLOCK_BYTES))
