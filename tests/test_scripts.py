"""The scripts under scripts/ still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sharpness_curve_prints_one_row_per_j():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPLAP_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(ROOT / "scripts" / "sharpness_curve.py"), "--jmax", "2"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert all(len(row) == 5 for row in rows)
