"""The reports of the `verify-heis1` command,

    hplap verify --suite all --group heisenberg:1 --k 1 --p 2 --seed 20240 --stamp golden

against copies committed under tests/data/.  They pin "reports do not
change" for changes that mean to make the library faster or smaller; a
change that means to change reports regenerates the files and names the
fields that moved."""

import math
import os
from pathlib import Path

from hplap import cli
from hplap.report import from_kv

DATA = Path(__file__).parent / "data"

#: (suite, check, field) -> (kind, bound) for fields whose last digits are round-off, against 1e-12 relative for
#: every other numeric field: the median z of the radial reduction is a quotient of differences at round-off
#: (about 1e-3, the suite's note says below 1e-2), and the uncertainty-main stderr is the quadrature term of a
#: quotient exact to the quadrature floor, whose gain - 1 is the difference of two sums that agree to ~12 digits
WIDER = {
    ("hardy", "radial-reduction-median-z", "observed"): ("abs", 1e-2),
    ("hardy", "radial-reduction-median-z", "margin"): ("abs", 1e-2),
    ("uncertainty", "uncertainty-main", "stderr"): ("rel", 1e-6),
}


def test_verify_reports_match_the_golden_reports(tmp_path, monkeypatch):
    for key in [key for key in os.environ if key.startswith("HPLAP_")]:
        monkeypatch.delenv(key)
    args = ["verify", "--suite", "all", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--seed", "20240",
            "--stamp", "golden", "--out", str(tmp_path)]
    assert cli.main(args) == 1  # sharpness/final-ratio is red on heisenberg:1
    golden = sorted(DATA.glob("*-heisenberg_1-golden.kv"))
    assert len(golden) == 7 and sorted(path.name for path in tmp_path.iterdir()) == [path.name for path in golden]
    for path in golden:
        want, got = from_kv(path.read_text()), from_kv((tmp_path / path.name).read_text())
        assert (got.suite, got.group, got.config, got.overall_pass) == (want.suite, want.group, want.config,
                                                                        want.overall_pass)
        assert [(c.check_id, c.kind, c.passed) for c in got.checks] == [(c.check_id, c.kind, c.passed)
                                                                        for c in want.checks]
        for w, g in zip(want.checks, got.checks):
            for field in ("observed", "target", "tolerance", "stderr", "margin"):
                kind, bound = WIDER.get((want.suite, w.check_id, field), ("rel", 1e-12))
                x, y = getattr(w, field), getattr(g, field)
                close = abs(x - y) <= bound if kind == "abs" else math.isclose(y, x, rel_tol=bound, abs_tol=0.0)
                assert close, (want.suite, w.check_id, field, x, y)
