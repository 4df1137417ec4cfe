"""The demos are public API: each `demos/0*.py` runs to the end in a fresh
interpreter with the library on PYTHONPATH, as from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ifo_lab

SRC = Path(ifo_lab.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("0*.py"))
# 01-03 take 0.4, 2.3 and 9 s; 04 takes about 33 s and runs with the gate
SLOW = {"04_baselines_comparison.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(p, id=p.name, marks=[pytest.mark.acceptance] if p.name in SLOW else [])
    for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
