"""Every script under scripts/ starts: ``--help`` exits 0, so a stale import fails here."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_exits_0(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
