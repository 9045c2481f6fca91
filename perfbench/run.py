"""walshlab benchmark: runs one workload of CLI commands and prints its metrics.

    python3 perfbench/run.py --workload p2-exact --seed 0 --seconds 20 --trace 0

Run from the root of a source tree: the package is imported from ``src/``.
One process runs one workload as a closed loop with a single client: the
commands of the workload run back to back through ``walshlab.cli.run_command``,
each after the previous one returns.  After an untimed warm-up the process
repeats timed passes over the commands until ``--seconds`` have elapsed.
numpy and its BLAS keep their default thread counts.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``wall_s``: median wall time of a pass;
* ``cpu_s``: median user+sys CPU time of a pass, over all threads;
* ``peak_rss_mb``: peak resident memory of this process;
* ``setup_s``: median time for a fresh interpreter to import ``walshlab.cli``
  and finish the warm-up, over several interpreters.

Each pass runs the workload's commands for that pass (``workloads.py``): the
exact ones repeat, the stochastic ones draw new seeds from the workload seed.

``failed / attempted`` is the error rate: a command fails when it exits
non-zero, prints a FAIL row, has an output that misses its reference or an
invariant (``checks.py``), or writes other bytes than an earlier run of the
same argv.

With ``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics of ``trace.py`` as medians over the traced passes, the
wall time of each command, and the tracing overhead (traced minus untraced
pass time).  A traced pass must write the same bytes as an untraced one.  The
spans of the last traced pass are written to
``.bench_work/spans-<workload>-seed<seed>.jsonl``.

Every run also prints the environment: git revision (when the tree is a git
checkout), a digest of the sources, Python, numpy, BLAS and its thread
count, the CPU count, the seed and the pass count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 6  # fresh interpreters timed for setup_s

from checks import Outcome, command_problems, load_references  # noqa: E402
from trace import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, warm_up  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_one(cli, argv, out: str | None) -> tuple[Outcome, float, float]:
    """Run one command in-process; returns its outcome, wall and CPU seconds."""
    if out is not None and os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = cli.run_command(list(argv))
        except Exception:  # a crash is a failed command; the run goes on
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    output = None
    if out is not None and os.path.exists(out):
        with open(out) as fh:
            output = fh.read()
    if rc != 0:
        print(f"command failed ({rc}): {' '.join(argv)}\n{stderr.getvalue()}", file=sys.stderr)
    return Outcome(rc, stdout.getvalue(), output), wall, cpu


def run_pass(cli, commands):
    """One pass over the workload: outcomes, and wall/CPU seconds per command."""
    return [run_one(cli, cmd.argv, cmd.out) for cmd in commands]


def setup_seconds(workload: str, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import walshlab.cli and warm up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                       cwd=workdir, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _blas() -> tuple[str, int | None]:
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def environment(seed: int, passes: int) -> dict:
    import numpy as np

    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            revision = done.stdout.strip() or None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "walshlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas, threads = _blas()
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "passes": passes,
    }


class Judge:
    """Counts attempted and failed commands; a command run again must write
    the same bytes as the first time."""

    def __init__(self, references):
        self.references = references
        self.first: dict[tuple, Outcome] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, cmd, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {' '.join(cmd.argv)}: {reason}", file=sys.stderr)

    def judge(self, commands, outcomes: list[Outcome]) -> None:
        for cmd, out in zip(commands, outcomes):
            self.attempted += 1
            problems = command_problems(cmd, out, self.references)
            if out != self.first.setdefault(cmd.argv, out):
                problems.append("output differs from an earlier run of the same command")
            if problems:
                self.fail(cmd, "; ".join(problems[:3]))


def _pass_wall(results) -> float:
    return sum(wall for _, wall, _ in results)


def plain_passes(cli, build, judge: Judge, seconds: float) -> list:
    """Timed passes, at least one, until ``seconds`` have elapsed."""
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        commands = build(len(passes))
        passes.append(run_pass(cli, commands))
        judge.judge(commands, [outcome for outcome, _, _ in passes[-1]])
    return passes


def traced_passes(cli, build, judge: Judge, seconds: float, tracer: Tracer) -> tuple[list, list[dict]]:
    """Pairs of an untraced and a traced pass over the same commands until
    ``seconds`` have elapsed; returns the untraced passes and the per-layer
    metrics of each traced one."""
    plain, layers = [], []
    t_end = time.perf_counter() + seconds
    while not plain or time.perf_counter() < t_end:
        commands = build(len(plain))
        plain.append(run_pass(cli, commands))
        judge.judge(commands, [outcome for outcome, _, _ in plain[-1]])
        tracer.reset()
        tracer.install()
        try:
            results = run_pass(cli, commands)
        finally:
            tracer.uninstall()
        judge.judge(commands, [outcome for outcome, _, _ in results])
        per_pass = dict.fromkeys(metric_units(), 0.0)
        per_pass.update(tracer.layer_metrics())
        for cmd, (_, wall, _) in zip(commands, results):
            per_pass[f"cli.{cmd.label}.wall_s"] += wall
        per_pass["trace.overhead_s"] = _pass_wall(results) - _pass_wall(plain[-1])
        per_pass["trace.overhead_share"] = per_pass["trace.overhead_s"] / _pass_wall(plain[-1])
        layers.append(per_pass)
    return plain, layers


def check_worker_invariance(cli, commands, judge: Judge) -> None:
    """A pooled command must write the same bytes as with one worker."""
    for cmd in commands:
        argv = list(cmd.argv)
        if "--workers" in argv and argv[argv.index("--workers") + 1] != "1":
            argv[argv.index("--workers") + 1] = "1"
            outcome, _, _ = run_one(cli, argv, cmd.out)
            judge.attempted += 1
            if outcome.rc != 0 or outcome.output != judge.first[cmd.argv].output:
                judge.fail(cmd, "CSV differs from the --workers 1 CSV")


def measure(workload: str, seed: int, seconds: float, trace: bool, references: dict | None = None) -> dict:
    """Run the workload; returns attempted, failed, the metrics and their sample counts."""
    sys.path.insert(0, str(SRC))
    from walshlab import cli

    def build(pass_index: int):
        return WORKLOADS[workload](seed, pass_index)

    judge = Judge(load_references() if references is None else references)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    home = os.getcwd()
    try:
        setup = None if trace else setup_seconds(workload, workdir)
        os.chdir(workdir)
        warm_up(cli.run_command, workload)
        if trace:
            tracer = Tracer()
            plain, layers = traced_passes(cli, build, judge, seconds, tracer)
            samples = {name: [per_pass[name] for per_pass in layers] for name in metric_units()}
            units = metric_units()
        else:
            plain = plain_passes(cli, build, judge, seconds)
            samples = {
                "wall_s": [_pass_wall(results) for results in plain],
                "cpu_s": [sum(cpu for _, _, cpu in results) for results in plain],
                "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
                "setup_s": setup,
            }
            units = END_TO_END
        check_worker_invariance(cli, build(0), judge)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        tracer.write_spans(WORK / f"spans-{workload}-seed{seed}.jsonl")
    return {
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": units[name]} for name in units},
        "samples": {name: len(samples[name]) for name in units},
        "passes": len(plain),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="walshlab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "walshlab" / "cli.py").is_file():
        print(f"error: no walshlab sources under {SRC}; run from a walshlab source tree", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed, result["passes"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {result['passes']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']:6s} n={result['samples'][name]}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':44s} {rate:14.6g} ratio  ({result['failed']} of {result['attempted']} commands failed)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
