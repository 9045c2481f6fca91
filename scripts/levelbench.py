"""The harness of the level-scaling scripts (``scripts/bench_*.py``).

A script hands ``main`` its docstring, its default record path, a generator
of case records and the environment keys of its own; ``main`` parses
``--runs``/``--out``, prints each case as it comes and writes
``{"environment", "cases"}`` to ``--out``.  Like every CLI command, the
cases run on one OpenBLAS thread.  A case is timed by ``time_case``
(one untimed warm-up, then ``--runs`` timed calls; minimum and median
seconds), and ``patched`` rebinds module attributes to counting or timing
wrappers for the length of a block.  A script run as
``python3 scripts/bench_x.py`` has ``scripts/`` on its path, so it imports
this module as ``levelbench``.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import time

import numpy as np

from walshlab.linalg import pin_blas_threads


def summary(times: list, prefix: str = "") -> dict:
    """``{prefix}min_s`` and ``{prefix}median_s`` of ``times``."""
    return {f"{prefix}min_s": min(times), f"{prefix}median_s": statistics.median(times)}


def time_case(run, runs: int, prefix: str = "", splits: dict | None = None) -> tuple[dict, object]:
    """Call ``run()`` once untimed, then ``runs`` times; returns the summary of
    those times under ``prefix`` and the warm-up's value.

    ``splits`` maps a record key to the list a ``timing`` wrapper appends the
    seconds of each call to; each list is summed per timed run and summarized
    under ``{key}_``.
    """
    splits = splits or {}
    value = run()
    times, split_times = [], {key: [] for key in splits}
    for _ in range(runs):
        for spent in splits.values():
            spent.clear()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
        for key, spent in splits.items():
            split_times[key].append(sum(spent))
    out = summary(times, prefix)
    for key, spent in split_times.items():
        out.update(summary(spent, f"{key}_"))
    return out, value


def timing(spent: list):
    """A wrapper for ``patched`` that appends the seconds of each call to ``spent``."""

    def wrap(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - start)

        return timed

    return wrap


@contextlib.contextmanager
def patched(rebinds):
    """Rebind each ``(owner, name, wrap)``: ``owner.name`` is ``wrap(original)``
    inside the block and the original again after it."""
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in rebinds]
    try:
        for (owner, name, wrap), (*_, original) in zip(rebinds, originals):
            setattr(owner, name, wrap(original))
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def write_record(path: str, cases: list, runs: int, blas: tuple, **environment) -> None:
    """Dump ``{"environment", "cases"}`` to ``path``; the environment holds the
    Python and numpy versions, the BLAS numpy was built against and its thread
    count (``blas``, as ``pin_blas_threads`` returns them), the machine, the
    usable CPUs and ``runs``, then the script's own ``environment`` keys."""
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas[0],
        "blas_threads": blas[1],
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "runs": runs,
        **environment,
    }
    with open(path, "w") as fh:
        json.dump({"environment": environment, "cases": cases}, fh, indent=1)
        fh.write("\n")


def main(doc: str, out: str, cases, **environment) -> int:
    """Parse ``--runs`` (default 5) and ``--out`` (default ``out``), record every
    case of ``cases(runs)`` and write the record."""
    ap = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default=out)
    args = ap.parse_args()

    blas = pin_blas_threads()
    records = []
    for case in cases(args.runs):
        records.append(case)
        print(json.dumps(case), flush=True)
    write_record(args.out, records, args.runs, blas, **environment)
    print(f"wrote {len(records)} cases to {args.out}")
    return 0
