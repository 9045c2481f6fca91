"""The benchmark's workloads: fixed lists of walshlab CLI argv.

The sizes are chosen so that one pass takes 2 to 4 s on a 2-CPU machine and a
run of ``run_seconds`` holds several passes, whose median is reported.

Pass k of a run is built from the workload seed and k alone, so the same seed
always gives the same sequence of argv.  Stochastic commands draw new seeds
in every pass: their cost depends on the random start, so a run's median then
covers several random instances instead of one.  Every file a command writes
or reads is named relative to the run's work directory, which the runner makes
the current directory.

Each command carries the name of the check that judges its output (see
``checks.py``).  Exact checks compare against stored references for every
seed; estimate checks compare against the stored seed's references and fall
back to invariants for any other seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: str
    param: int | None = None  # expected Walsh index for the "unit-coefficients" check

    @property
    def out(self) -> str | None:
        """The file the command writes (its ``--out``), compared byte for byte."""
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None

    @property
    def label(self) -> str:
        """Per-command name in the trace: the subcommand, and the suite for verify."""
        if self.argv[0] == "verify":
            return "verify-" + self.argv[self.argv.index("--suite") + 1]
        return self.argv[0]


def _cmd(text: str, check: str, param: int | None = None) -> Command:
    return Command(tuple(text.split()), check, param)


def pool_workers() -> int:
    """Worker count for the pooled command: 2, but never more CPUs than we may use."""
    return min(2, len(os.sched_getaffinity(0)))


def pass_rng(seed: int, pass_index: int) -> random.Random:
    """Source of every random input of one pass (a string seed hashes stably)."""
    return random.Random(f"{seed}/{pass_index}")


def _seeds(seed: int, pass_index: int, count: int) -> list[int]:
    rng = pass_rng(seed, pass_index)
    return [rng.randrange(2**31) for _ in range(count)]


def p2_exact(seed: int, pass_index: int) -> list[Command]:
    """Exact p=2 norms, no estimator: most time goes to probe materialisation
    in ``OperatorHandle.matrix`` and the dense SVD.  The matrix-free engine and
    the worker-pool question show here; the first command uses the pool."""
    workers = pool_workers()
    return [
        _cmd(f"basis-constants --level 3 --alpha 0.3 --p 2 --method exact2 --nmax 15 "
             f"--workers {workers} --out bc3.csv", "exact-csv"),
        _cmd("basis-constants --level 4 --alpha 0.1 --p 2 --method exact2 --side right --nmax 2 "
             "--out bc4.csv", "exact-csv"),
        _cmd("tensor-sweep --level 1 --level2 2 --alpha 0.3 --alpha2 0.1 --p 2 --nmax 15 --out ts.csv",
             "exact-csv"),
        _cmd("classical --level 8 --alpha 0.3 --p 2 --nmax 15 --out cl.csv", "exact-csv"),
    ]


def lp_estimate(seed: int, pass_index: int) -> list[Command]:
    """The multi-start ascent on tiny matrices (``estimate_norm_lp``,
    ``classical_norm_estimate``, ``schatten_norm``); exact2 never runs.
    Batched restarts or an SVD-based ``singular_values`` show here."""
    s0, s1, s2 = _seeds(seed, pass_index, 3)
    return [
        _cmd(f"basis-constants --level 2 --alpha 0.3 --p 3 --method estimate --restarts 4 --nmax 3 "
             f"--seed {s0} --out bc.csv", "estimate-csv"),
        _cmd(f"tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --p 3 --nmax 5 --restarts 4 "
             f"--seed {s1} --out ts.csv", "estimate-csv"),
        _cmd(f"classical --level 6 --alpha 0.3 --p 4 --nmax 11 --restarts 8 --seed {s2} --out cl.csv",
             "estimate-csv"),
    ]


def sign_sweep(seed: int, pass_index: int) -> list[Command]:
    """Tens of thousands of single-probe ``mart_diff`` calls, then batched SVDs
    over large stacks: the per-call cost of ``apply_factor_maps`` and the one
    memory-heavy path."""
    s0, s1 = _seeds(seed, pass_index, 2)
    return [
        _cmd(f"unconditionality --level 2 --alpha 0.3 --p 4 --mode exhaustive --trials 5000 "
             f"--seed {s0} --out ex.csv", "sign-csv"),
        _cmd(f"unconditionality --level 3 --alpha 0.1 --p 3 --mode sampled --trials 100 "
             f"--seed {s1} --out sa.csv", "sign-csv"),
    ]


def verify_suites(seed: int, pass_index: int) -> list[Command]:
    """One matrix per call at sizes up to m=8, the O(16^m) ``gram_matrix``, the
    JSON codec and the suite bodies in ``cli``.  A batching change should leave
    it unchanged; a kernel that is slow on single large calls shows here."""
    index = pass_rng(seed, 0).randrange(4**8)  # one matrix per run: coeffs and norm read its file
    return [
        _cmd(f"gen-walsh --index {index} --level 8 --out w.json", "exit-code"),
        _cmd("coeffs --in w.json --out wc.json", "unit-coefficients", index),
        _cmd("norm --p 1 --alpha 0.02 --in w.json", "unit-norm"),
        _cmd("verify --suite walsh --level 4 --alpha 0.3", "verify-rows"),
        _cmd("verify --suite expectations --level 2 --alpha 0.1", "verify-rows"),
        _cmd("verify --suite blocks --level 7 --alpha 0.3", "verify-rows"),
        _cmd("verify --suite identity --level 2 --alpha 0.3", "verify-rows"),
    ]


WORKLOADS = {
    "p2-exact": p2_exact,
    "lp-estimate": lp_estimate,
    "sign-sweep": sign_sweep,
    "verify-suites": verify_suites,
}

# A small instance of every command a workload runs, at its level but with
# one cell (the verify suites, whose cost grows about 16x per level, at level
# 1): it loads lazy imports, starts the BLAS and worker threads and
# touches each code path once, so that the timed passes do not pay for first
# use.
WARMUP = {
    "p2-exact": [
        "basis-constants --level 3 --alpha 0.3 --p 2 --method exact2 --nmax 1 --workers {workers} --out warm1.csv",
        "basis-constants --level 4 --alpha 0.1 --p 2 --method exact2 --side right --nmax 0 --out warm2.csv",
        "tensor-sweep --level 1 --level2 2 --alpha 0.3 --alpha2 0.1 --p 2 --nmax 1 --out warm3.csv",
        "classical --level 8 --alpha 0.3 --p 2 --nmax 0 --out warm4.csv",
    ],
    "lp-estimate": [
        "basis-constants --level 2 --alpha 0.3 --p 3 --method estimate --restarts 1 --nmax 0 --seed 0 --out warm1.csv",
        "tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --p 3 --nmax 0 --restarts 1 --seed 0 --out warm2.csv",
        "classical --level 6 --alpha 0.3 --p 4 --nmax 0 --restarts 1 --seed 0 --out warm3.csv",
    ],
    "sign-sweep": [
        "unconditionality --level 2 --alpha 0.3 --p 4 --mode exhaustive --trials 10 --seed 0 --out warm1.csv",
        "unconditionality --level 3 --alpha 0.1 --p 3 --mode sampled --trials 10 --seed 0 --out warm2.csv",
    ],
    "verify-suites": [
        "gen-walsh --index 3 --level 8 --out warm.json",
        "coeffs --in warm.json --out warmc.json",
        "norm --p 1 --alpha 0.02 --in warm.json",
        "verify --suite walsh --level 1 --alpha 0.3",
        "verify --suite expectations --level 1 --alpha 0.1",
        "verify --suite blocks --level 1 --alpha 0.3",
        "verify --suite identity --level 1 --alpha 0.3",
    ],
}


def warm_up(run_command, workload: str) -> None:
    """Run the workload's warm-up commands through ``walshlab.cli.run_command``."""
    for text in WARMUP[workload]:
        argv = text.format(workers=pool_workers()).split()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run_command(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up command failed ({rc}): {' '.join(argv)}")


def reference_key(argv) -> str:
    """Key of a command in the reference file: its argv without the worker count,
    which must not change any output."""
    argv = list(argv)
    if "--workers" in argv:
        k = argv.index("--workers")
        del argv[k : k + 2]
    return " ".join(argv)
