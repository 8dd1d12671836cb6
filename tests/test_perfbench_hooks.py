"""The benchmark's trace hooks still find the library layers they rebind.

``perfbench/child.py --mode trace`` rebinds named hplap functions and
raises if no module refers to one of them any more; these run it on a
sweep and on verify suites, so that a refactor learns of a
lost hook, or of a result the hooks misread, from the tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trace_spans(tmp_path, hplap_args):
    marks = tmp_path / "marks.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPLAP_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--mode", "trace", "--marks", str(marks), "--"]
    proc = subprocess.run(cmd + hplap_args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(marks.read_text())["spans"]


def test_trace_hooks_record_hardy_ratio_and_1d_quadrature(tmp_path):
    # a sweep row is a radial quotient: hardy_ratio integrates it in 1-D
    # and draws nothing
    sweep = ["sweep", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--alpha", "0", "--mode", "sharpness",
             "--corpus-samples", "4000", "--out", str(tmp_path / "sweep.csv")]
    names = {span[0] for span in _trace_spans(tmp_path, sweep)}
    assert {"verify.hardy_ratio", "quadrature.grid_integral_1d"} <= names
    assert not names & {"quadrature.mc_region_multi", "quadrature.draw", "verify.evaluate"}
    # the modulated quotients of lemma2 draw their directions under
    # hardy_ratio, and draw and evaluate them inside mc_region_multi
    spans = _trace_spans(tmp_path, ["verify", "--suite", "lemma2", "--corpus-samples", "4000",
                                    "--out", str(tmp_path / "reports"), "--stamp", "T"])
    up = {name: [_ancestors(spans, i) for i, span in enumerate(spans) if span[0] == name]
          for name in ("quadrature.draw", "verify.evaluate")}
    assert up["quadrature.draw"] and all("verify.hardy_ratio" in names for names in up["quadrature.draw"])
    assert any("quadrature.mc_region_multi" in names for names in up["quadrature.draw"])
    assert up["verify.evaluate"] and all("quadrature.mc_region_multi" in names for names in up["verify.evaluate"])


def test_traced_draws_accept_at_most_their_candidates(tmp_path):
    # the trace counts a draw's candidates from its n and its accepted
    # points from the third result, the in-region mask.  lemma2's modulated
    # quotients draw full points; the ball moments draw only their radii,
    # so the moments suite records no draw
    spans = _trace_spans(tmp_path, ["verify", "--suite", "lemma2", "--corpus-samples", "4000",
                                    "--out", str(tmp_path / "reports"), "--stamp", "T"])
    draws = [span[4] for span in spans if span[0] == "quadrature.draw"]
    assert draws
    for attrs in draws:
        assert type(attrs["accepted"]) is int and type(attrs["candidates"]) is int
        assert 0 < attrs["accepted"] <= attrs["candidates"]
    spans = _trace_spans(tmp_path, ["verify", "--suite", "moments", "--samples", "20000",
                                    "--out", str(tmp_path / "reports"), "--stamp", "T"])
    names = {span[0] for span in spans}
    assert "quadrature.mc_region_multi" in names and "quadrature.draw" not in names


def _ancestors(spans, i):
    names = []
    while spans[i][3] >= 0:
        i = spans[i][3]
        names.append(spans[i][0])
    return names


def test_trace_hooks_see_the_polar_density_and_uncertainty_integrals(tmp_path):
    # the uncertainty suite integrates through integrate_polar: its
    # integrands are evaluated inside mc_region_multi, and every draw there
    # still accepts at most its candidates.  fundamental_solution integrates
    # psi by the meridian and radial rules: psi is evaluated under the 1-D
    # rule, and nothing is drawn
    spans = _trace_spans(tmp_path, ["verify", "--suite", "fundamental_solution", "--suite", "uncertainty",
                                    "--samples", "20000", "--corpus-samples", "8000",
                                    "--out", str(tmp_path / "reports"), "--stamp", "T"])
    evaluate = [i for i, span in enumerate(spans)
                if span[0] == "verify.evaluate" and "verify.suite.uncertainty" in _ancestors(spans, i)]
    assert evaluate and all("quadrature.mc_region_multi" in _ancestors(spans, i) for i in evaluate)
    draws = [span[4] for span in spans if span[0] == "quadrature.draw"]
    assert draws and all(0 < attrs["accepted"] <= attrs["candidates"] for attrs in draws)
    density = [(span[0], _ancestors(spans, i)) for i, span in enumerate(spans)
               if "verify.suite.fundamental_solution" in _ancestors(spans, i)]
    assert any(name == "closedform.psi" and "quadrature.grid_integral_1d" in up for name, up in density)
    assert not {name for name, _ in density} & {"quadrature.draw", "quadrature.mc_region_multi", "verify.evaluate"}
