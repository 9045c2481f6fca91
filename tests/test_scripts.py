"""Every script under scripts/ starts: ``--help`` exits 0, so a stale import fails here.
Two level-scaling records are rerun and held to their committed values."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from walshlab.linalg import _openblas

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_exits_0(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_bench_exact2_reproduces_its_committed_record(tmp_path):
    # The exact p = 2 values are deterministic: a change to the harness or to
    # the engines that moves a committed record fails here.
    out = tmp_path / "exact2.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_exact2.py"), "--runs", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    committed = json.loads((ROOT / "BENCH_exact2.json").read_text())["cases"]
    record = json.loads(out.read_text())
    # The harness pins OpenBLAS to one thread, as every CLI command does.
    assert record["environment"]["blas_threads"] == (None if _openblas()[1] is None else 1)
    rerun = record["cases"]
    identity = ("kind", "level", "n", "alpha", "rows")
    assert [[case[k] for k in identity] for case in rerun] == [[case[k] for k in identity] for case in committed]
    for new, old in zip(rerun, committed):
        assert math.isclose(new["value"], old["value"], rel_tol=1e-12, abs_tol=0.0), new


def test_bench_ascent_reproduces_its_committed_record(tmp_path):
    # The seeded ascents are deterministic, and they climb on handle.matrix():
    # a change to the materialized matrices or to the iteration moves a value,
    # a round count or a norm-call count of the committed record.
    out = tmp_path / "ascent.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_ascent.py"), "--runs", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    committed = json.loads((ROOT / "BENCH_ascent.json").read_text())["cases"]
    rerun = json.loads(out.read_text())["cases"]
    measured = ("min_s", "median_s", "value", "rounds", "norm_calls")

    def identity(case):
        return {k: v for k, v in case.items() if k not in measured}

    assert [identity(case) for case in rerun] == [identity(case) for case in committed]
    for new, old in zip(rerun, committed):
        assert math.isclose(new["value"], old["value"], rel_tol=1e-12, abs_tol=0.0), new
        assert (new["rounds"], new["norm_calls"]) == (old["rounds"], old["norm_calls"]), new


def test_sweep_residuals_writes_its_table(tmp_path):
    # Level 1 at two biases: 3 truncation indices x 2 sides x 2 biases, and the
    # tracial residuals vanish, through the decomposition operators' apply path.
    out = tmp_path / "residuals.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_residuals.py"), "--level", "1", "--alphas", "0.5", "0.3",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, *lines = out.read_text().splitlines()
    assert header == "n,p,alpha,side,method,value,converged"
    assert len(lines) == 12
    rows = [line.split(",") for line in lines]
    tracial = [float(row[5]) for row in rows if float(row[2]) == 0.5]
    assert len(tracial) == 6 and max(tracial) <= 1e-12
