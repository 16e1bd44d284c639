"""The scripts in demos/ run end to end against this tree's package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ttlr

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no script in demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_warning_free(demo, tmp_path):
    # a copy, since noise_sweep.py writes its rows next to itself
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(Path(ttlr.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
