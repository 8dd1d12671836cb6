"""The benchmark's trace hooks still find the library layers they rebind.

``perfbench/child.py --mode trace`` rebinds named hplap functions and
raises if no module refers to one of them any more; this runs it on a
one-row sweep so that a refactor learns of a lost hook from the tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_hooks_record_hardy_ratio_and_1d_quadrature(tmp_path):
    marks = tmp_path / "marks.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPLAP_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--mode", "trace", "--marks", str(marks), "--",
           "sweep", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--alpha", "0", "--mode", "sharpness",
           "--corpus-samples", "4000", "--out", str(tmp_path / "sweep.csv")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(marks.read_text())["spans"]}
    assert {"verify.hardy_ratio", "quadrature.grid_integral_1d"} <= names
