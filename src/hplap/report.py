"""Structured verification reports and their key-value serialization.

A report is a flat, self-describing "key = value" document with dotted
key paths, one line per field, in a fixed order:

    suite = lemma1
    group = heisenberg:1
    config.k = 1.0
    ...
    check.0.check_id = grad-sq
    check.0.kind = deterministic
    check.0.observed = 1.93e-09
    ...
    overall_pass = true

Value encoding: booleans are ``true``/``false``, integers are bare
digits, floats use Python repr (which round-trips exactly), everything
else is a raw string.  String values that themselves parse as numbers or
contain newlines are not representable; none of the schema's string
fields (suite names, group ids, check ids) do.

The document contains exactly the deterministic payload: repeated runs
with the same seed produce bit-identical files.  Wall-clock time is kept
on the in-memory report for console display but deliberately excluded
from the canonical serialization.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "VerificationReport", "to_kv", "to_csv", "from_kv"]


@dataclass
class CheckRecord:
    """Outcome of one verification check.

    kind is "deterministic" (tolerance on |observed - target|, target 0
    for a max error), "stochastic"
    (|observed - target| judged against nsigma * stderr) or "bound"
    (observed compared one-sidedly against target).  margin is the signed
    distance to the pass boundary in the check's natural units (positive
    = passing).
    """

    check_id: str
    kind: str
    observed: float
    target: float
    tolerance: float
    stderr: float
    margin: float
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    group: str
    config: dict
    checks: list = field(default_factory=list)
    overall_pass: bool = True
    wall_time_s: float = 0.0  # console-only; not serialized

    def add(self, rec: CheckRecord) -> CheckRecord:
        """Append a check; a nan in it is an evaluation failure, not a FAIL verdict."""
        if any(math.isnan(v) for v in (rec.observed, rec.target, rec.stderr, rec.margin)):
            raise ValueError(f"{self.suite}/{rec.check_id} evaluated to nan; "
                             "the parameters are outside the range where it can be evaluated")
        self.checks.append(rec)
        self.overall_pass = bool(self.overall_pass and rec.passed)
        return rec

    def add_deterministic(self, check_id: str, observed: float, tolerance: float, target: float = 0.0) -> CheckRecord:
        """Deterministic check: passes iff |observed - target| <= tolerance,
        a max error against the default target 0 or a value against its
        closed form."""
        dev = abs(observed - target)
        return self.add(
            CheckRecord(
                check_id=check_id,
                kind="deterministic",
                observed=float(observed),
                target=float(target),
                tolerance=float(tolerance),
                stderr=0.0,
                margin=float(tolerance - dev),
                passed=bool(dev <= tolerance),
            )
        )

    def add_stochastic(
        self, check_id: str, observed: float, target: float, stderr: float, nsigma: float = 3.0
    ) -> CheckRecord:
        """Monte Carlo check: passes iff |observed - target| <= nsigma * stderr."""
        dev = abs(observed - target)
        return self.add(
            CheckRecord(
                check_id=check_id,
                kind="stochastic",
                observed=float(observed),
                target=float(target),
                tolerance=float(nsigma),
                stderr=float(stderr),
                margin=float(nsigma * stderr - dev),
                passed=bool(dev <= nsigma * stderr),
            )
        )

    def add_bound(
        self,
        check_id: str,
        observed: float,
        bound: float,
        direction: str,
        stderr: float = 0.0,
        nsigma: float = 0.0,
    ) -> CheckRecord:
        """One-sided check: observed >= bound - nsigma*stderr (direction
        "above") or observed <= bound + nsigma*stderr (direction "below")."""
        slack = nsigma * stderr
        if direction == "above":
            margin = observed - (bound - slack)
        elif direction == "below":
            margin = (bound + slack) - observed
        else:
            raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
        return self.add(
            CheckRecord(
                check_id=check_id,
                kind=f"bound-{direction}",
                observed=float(observed),
                target=float(bound),
                tolerance=float(nsigma),
                stderr=float(stderr),
                margin=float(margin),
                passed=bool(margin >= 0.0),
            )
        )

    def summary_line(self) -> str:
        status = "PASS" if self.overall_pass else "FAIL"
        npass = sum(1 for c in self.checks if c.passed)
        return (
            f"[{status}] {self.suite} group={self.group} "
            f"checks={npass}/{len(self.checks)} wall={self.wall_time_s:.2f}s"
        )


_CHECK_FIELDS = ("check_id", "kind", "observed", "target", "tolerance", "stderr", "margin", "passed")


def _encode(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    return str(v)


def _decode(s: str):
    if s == "true":
        return True
    if s == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def to_kv(report: VerificationReport) -> str:
    """Canonical deterministic serialization (excludes wall time)."""
    lines = [f"suite = {report.suite}", f"group = {report.group}"]
    for key in report.config:
        lines.append(f"config.{key} = {_encode(report.config[key])}")
    lines.append(f"n_checks = {len(report.checks)}")
    for i, c in enumerate(report.checks):
        for f in _CHECK_FIELDS:
            lines.append(f"check.{i}.{f} = {_encode(getattr(c, f))}")
    lines.append(f"overall_pass = {_encode(report.overall_pass)}")
    return "\n".join(lines) + "\n"


def to_csv(report: VerificationReport) -> str:
    """One row per check under a header of the check fields, values encoded
    as in :func:`to_kv`; the suite, group and config are not included."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CHECK_FIELDS)
    writer.writerows([_encode(getattr(c, f)) for f in _CHECK_FIELDS] for c in report.checks)
    return buf.getvalue()


def from_kv(text: str) -> VerificationReport:
    """Parse a key-value report document back into a report object."""
    flat: dict[str, object] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed report line: {line!r}")
        flat[key] = _decode(val)
    config = {}
    for key, val in flat.items():
        if key.startswith("config."):
            config[key[len("config."):]] = val
    n = int(flat.get("n_checks", 0))
    checks = []
    for i in range(n):
        kwargs = {f: flat[f"check.{i}.{f}"] for f in _CHECK_FIELDS}
        kwargs["observed"] = float(kwargs["observed"])
        kwargs["target"] = float(kwargs["target"])
        kwargs["tolerance"] = float(kwargs["tolerance"])
        kwargs["stderr"] = float(kwargs["stderr"])
        kwargs["margin"] = float(kwargs["margin"])
        checks.append(CheckRecord(**kwargs))
    return VerificationReport(
        suite=str(flat["suite"]),
        group=str(flat["group"]),
        config=config,
        checks=checks,
        overall_pass=bool(flat["overall_pass"]),
    )
