"""The benchmark's stored reference outputs (perfbench/references.json), checked
through its own judgement (perfbench/checks.py) on the commands that are quick
to run: the exact p = 2 sweeps, the estimate sweeps at the reference seed and
three verify suites.  A change to the CLI that moves an output fails here, and
not only in a benchmark run.  The two sign sweeps at the reference seed must
match their references byte for byte."""

import importlib.util
import json
import pathlib
import sys

import pytest

from walshlab import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
VERIFY_SUITES = ("verify-identity", "verify-blocks", "verify-expectations")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``checks`` and ``workloads`` modules; ``checks`` imports its sibling by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        # Loaded by path, under a name no test or library module takes; its
        # dataclasses look their module up in sys.modules.
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        checks = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        yield checks, sys.modules["workloads"]
    finally:
        sys.modules.pop("perfbench_checks", None)
        sys.modules.pop("workloads", None)


def test_cli_outputs_match_benchmark_references(perfbench, tmp_path, monkeypatch, capsys):
    checks, workloads = perfbench
    references = checks.load_references()
    seed = references["seed"]
    commands = [
        *workloads.p2_exact(seed, 0),
        *workloads.lp_estimate(seed, 0),
        *(cmd for cmd in workloads.verify_suites(seed, 0) if cmd.label in VERIFY_SUITES),
    ]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for cmd in commands:
        assert workloads.reference_key(cmd.argv) in references["outputs"], cmd.argv
        rc = cli.run_command(list(cmd.argv))
        stdout = capsys.readouterr().out
        output = (tmp_path / cmd.out).read_text() if cmd.out else None
        assert checks.command_problems(cmd, checks.Outcome(rc, stdout, output), references) == [], cmd.argv


def test_sign_sweep_csv_matches_benchmark_references_and_manifest_records_sweep(
    perfbench, tmp_path, monkeypatch, capsys
):
    # The sweep's size goes to the manifest only: each CSV body equals its stored
    # reference byte for byte, and stdout carries nothing but max_ratio.
    checks, workloads = perfbench
    references = checks.load_references()
    exhaustive, sampled = workloads.sign_sweep(references["seed"], 0)
    monkeypatch.chdir(tmp_path)
    sizes = {}
    for cmd in (exhaustive, sampled):
        assert cli.run_command(list(cmd.argv)) == 0
        body = (tmp_path / cmd.out).read_text()
        assert body == references["outputs"][workloads.reference_key(cmd.argv)], cmd.argv
        assert capsys.readouterr().out == f"max_ratio={body.splitlines()[1].split(',')[-1]}\n"
        manifest = json.loads((tmp_path / (cmd.out + ".manifest.json")).read_text())
        sizes[cmd.out] = manifest["sweep"]
    # Exhaustive at m = 2: all 2**4 patterns over 16 Walsh matrices, 16 matrix
    # units and 5000 draws.  Sampled at m = 3: 256 draws of 2**6 patterns, and
    # 64 + 64 + 100 probes.
    assert sizes[exhaustive.out] == {"patterns": 16, "probes": 5032}
    assert sizes[sampled.out]["probes"] == 228
    assert 1 < sizes[sampled.out]["patterns"] <= 64
