"""Smoke tests for the experiment scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import kpng
from kpng.kmodulus import K_MAX, K_MIN

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_k_sweep_prints_one_row_per_k():
    src = str(Path(kpng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(SCRIPTS / "k_sweep.py"), "--size", "32"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(range(K_MIN, K_MAX + 1))
    assert all(len(row) == 7 for row in rows)
