"""Each demo prints the bytes recorded in demos/expected, as CI's demo step checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_recorded_bytes(demo):
    # as CI runs it: warnings are errors and the package comes from src
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
