#!/usr/bin/env python3
"""hplap benchmark: end-to-end and per-layer costs of the verification CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-heis1 --seed 20240 --seconds 50 --trace 0

Every run starts fresh interpreters (one per command, a closed loop with a
single client) that run ``hplap`` through ``perfbench/child.py``.  The
seed is passed to hplap's ``--seed``; everything else about a workload is
fixed in ``WORKLOADS``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the command in plain/traced pairs
and reports the per-layer metrics.  Every command's output goes through
the correctness gate (``gate_verify`` / ``gate_sweep``).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` counts checks (report checks, sweep rows and one exit
status per command) and ``failed`` counts checks whose verdict deviates
from the expected table.  See perfbench/README.md for the reasons behind
each workload and metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

#: no command may outlive this; a whole run must end within 180 s
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 5
#: BLAS/OpenMP threads: one, so reductions (and thus reports) do not
#: depend on the machine's core count and a run uses one core of nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"

SUITE_ORDER = ("lemma1", "fundamental_solution", "moments", "hardy", "sharpness", "lemma2", "uncertainty")

WORKLOADS = {
    # desk configuration at default sample counts: integrand evaluation
    # and the moment reduction dominate; rejection sampling accepts ~58%
    "verify-heis1": {
        "argv": ["verify", "--suite", "all", "--group", "heisenberg:1", "--k", "1", "--p", "2"],
        "group": "heisenberg:1",
        "returncode": 1,
        # checks per suite at the parent commit, used to count a suite
        # that raises (and writes no report) as all-failed
        "suite_checks": dict(zip(SUITE_ORDER, (3, 4, 5, 10, 5, 3, 3))),
        # red by design (README, "Known red check"): must read FAIL
        "expected_fail": {"sharpness": ("final-ratio",)},
    },
    # m + q = 7: 4x corpus samples, 5-sigma band, ~9.5% acceptance, so
    # Sampler.draw dominates
    "verify-quat1": {
        "argv": ["verify", "--suite", "all", "--group", "quaternionic:1", "--k", "2", "--p", "3"],
        "group": "quaternionic:1",
        "returncode": 0,
        "suite_checks": dict(zip(SUITE_ORDER, (3, 4, 5, 11, 5, 3, 3))),
        "expected_fail": {},
    },
    # many small shell regions, each on its own stream, plus the
    # non-integer k = 1.5 path and the 1-D polar reduction
    "sweep-heis": {
        "argv": ["sweep", "--group", "heisenberg:1", "--k", "1,1.5,2", "--p", "1.5,2,2.5,3",
                 "--alpha=-1,-0.5,0,0.5,1", "--mode", "sharpness", "--corpus-samples", "240000"],
        "group": "heisenberg:1",
        "returncode": 0,
        "grid": {"m": 2, "q": 1, "k": (1.0, 1.5, 2.0), "p": (1.5, 2.0, 2.5, 3.0),
                 "alpha": (-1.0, -0.5, 0.0, 0.5, 1.0)},
    },
}

def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


# ---------------------------------------------------------------------------
# running one command


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPLAP_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


class Command:
    """One hplap command in a fresh interpreter.  ``setup_s`` runs from
    just before the spawn to the first suite (or sweep row); ``wall_s``
    from there until the command returns."""

    def __init__(self, run_dir: Path, tag: str, mode: str, argv: list, deadline: float):
        self.out = run_dir / tag
        self.out.mkdir(parents=True)
        marks_path = self.out / "marks.json"
        cmd = [sys.executable, str(CHILD), "--mode", mode, "--marks", str(marks_path), "--"] + argv
        t_spawn = now()
        with open(self.out / "console.log", "w") as log:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - t_spawn))
                self.returncode = proc.returncode
            except subprocess.TimeoutExpired:
                self.returncode = None
        self.marks = None
        if marks_path.exists():
            self.marks = json.loads(marks_path.read_text())
            if Path(self.marks["hplap_file"]).resolve().parent != (SRC / "hplap").resolve():
                raise SystemExit(f"hplap was imported from {self.marks['hplap_file']}, not from {SRC}")
        self.ok = self.marks is not None and self.marks["first_start"] is not None
        if self.ok:
            self.setup_s = self.marks["first_start"] - t_spawn
            self.wall_s = self.marks["end"] - self.marks["first_start"]

    def log_tail(self, n=15) -> str:
        lines = (self.out / "console.log").read_text(errors="replace").splitlines()
        return "\n".join(lines[-n:])


def workload_argv(name: str, seed: int, out: Path) -> list:
    wl = WORKLOADS[name]
    if wl["argv"][0] == "verify":
        return wl["argv"] + ["--seed", str(seed), "--out", str(out / "reports"), "--stamp", "bench"]
    return wl["argv"] + ["--seed", str(seed), "--out", str(out / "sweep.csv")]


# ---------------------------------------------------------------------------
# correctness gate


class GateResult:
    def __init__(self):
        self.checks = []  # check keys, in order
        self.failed = set()
        self.notes = []
        self.digests = {}  # output file name -> sha256
        self.keys_by_file = {}
        self.rel_errors = []  # stderr / |observed| of the Monte Carlo estimates (see time_to_1pct)

    def check(self, key, ok: bool, why: str = "", file: str = ""):
        self.checks.append(key)
        self.keys_by_file.setdefault(file, []).append(key)
        if not ok:
            self.failed.add(key)
            self.notes.append(f"{'/'.join(map(str, key))}: {why}")

    def fail_file(self, file: str, why: str):
        self.failed.update(self.keys_by_file.get(file, []))
        self.notes.append(f"{file}: {why}")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gate_verify(name: str, cmd: Command, seed: int) -> GateResult:
    from hplap.report import from_kv

    wl = WORKLOADS[name]
    g = GateResult()
    reports = {}
    for path in sorted((cmd.out / "reports").glob("*.kv")) if (cmd.out / "reports").is_dir() else []:
        g.digests[path.name] = _digest(path)
        try:
            rep = from_kv(path.read_text())
        except (KeyError, TypeError, ValueError) as exc:
            g.check((path.name,), False, f"unparsable report: {exc!r}")
            continue
        reports[rep.suite] = (rep, path.name)
    for suite, n_expected in wl["suite_checks"].items():
        if suite not in reports:
            for i in range(n_expected):
                g.check((suite, i), False, "suite wrote no report")
            continue
        rep, fname = reports.pop(suite)
        red = wl["expected_fail"].get(suite, ())
        same_config = rep.group == wl["group"] and rep.config.get("seed") == seed
        for c in rep.checks:
            expected = c.check_id not in red
            why = "config differs from the command" if not same_config else (
                f"expected {'PASS' if expected else 'FAIL'}, got {'PASS' if c.passed else 'FAIL'}")
            g.check((suite, c.check_id), same_config and c.passed == expected, why, fname)
            if c.kind == "stochastic" and c.stderr > 0.0 and c.observed != 0.0:
                g.rel_errors.append(c.stderr / abs(c.observed))
        ids = {c.check_id for c in rep.checks}
        for cid in red:
            if cid not in ids:
                g.check((suite, cid), False, "expected FAIL, check missing", fname)
        if rep.overall_pass != all(c.passed for c in rep.checks):
            g.check((suite, "overall_pass"), False, "overall_pass disagrees with checks", fname)
        if not rep.checks:
            g.check((suite, "n_checks"), False, "report has no checks", fname)
    for suite in reports:
        g.check((suite, "unexpected"), False, "report for a suite not in the table")
    g.check(("exit_status",), cmd.returncode == wl["returncode"],
            f"exit status {cmd.returncode}, expected {wl['returncode']}")
    return g


def sharp_constant(m, q, k, p, a):
    Q = m + 2.0 * k * q
    return ((Q + a - p) / p) ** p


def gate_sweep(name: str, cmd: Command, seed: int) -> GateResult:
    grid = WORKLOADS[name]["grid"]
    m, q = grid["m"], grid["q"]
    expected = [(k, p, a) for k in grid["k"] for p in grid["p"] for a in grid["alpha"] if p < m + 2 * k * q + a]
    g = GateResult()
    path = cmd.out / "sweep.csv"
    rows = []
    if path.exists():
        g.digests[path.name] = _digest(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    got = {}
    for row in rows:
        try:
            vals = {key: float(row[key]) for key in ("k", "p", "alpha", "ratio", "stderr", "sharp_constant", "margin")}
        except (KeyError, TypeError, ValueError):
            g.check(("row", len(got)), False, f"unparsable row {row}", path.name)
            continue
        got[(vals["k"], vals["p"], vals["alpha"])] = vals
    for key in expected:
        v = got.pop(key, None)
        if v is None:
            g.check(key, False, "row missing", path.name)
            continue
        ref = sharp_constant(m, q, *key)
        finite = all(math.isfinite(x) for x in v.values()) and v["stderr"] > 0.0
        ok = (finite and abs(v["sharp_constant"] - ref) <= 1e-12 * ref
              and abs(v["margin"] - (v["ratio"] - v["sharp_constant"])) <= 1e-12 * abs(v["ratio"])
              and v["margin"] >= -3.0 * v["stderr"])
        g.check(key, ok, f"ratio {v['ratio']!r} stderr {v['stderr']!r} sharp {v['sharp_constant']!r} (ref {ref!r})",
                path.name)
        if finite and v["ratio"] != 0.0:
            g.rel_errors.append(v["stderr"] / abs(v["ratio"]))
    for key in got:
        g.check(key, False, "row outside the expected grid", path.name)
    g.check(("exit_status",), cmd.returncode == WORKLOADS[name]["returncode"],
            f"exit status {cmd.returncode}, expected {WORKLOADS[name]['returncode']}")
    return g


def gate(name: str, cmd: Command, seed: int) -> GateResult:
    return (gate_sweep if WORKLOADS[name]["argv"][0] == "sweep" else gate_verify)(name, cmd, seed)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_digests(name: str, seed: int, gates: list) -> None:
    """Reports must be identical across commands of one run and across
    runs of the same source and seed (remembered in .perfbench_work)."""
    cache_path = WORK / "digests.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    key = f"{name}|seed={seed}|threads={THREADS}|src={source_digest()}"
    ref = cache.get(key) or gates[0].digests
    for g in gates:
        for fname in set(ref) | set(g.digests):
            if g.digests.get(fname) != ref.get(fname):
                g.fail_file(fname, "report digest differs from an earlier command with the same source and seed")
    if key not in cache and all(not g.failed for g in gates):
        cache[key] = ref
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True))
        tmp.replace(cache_path)


# ---------------------------------------------------------------------------
# metrics


def time_to_1pct(wall_s: float, rel_errors: list) -> float:
    """wall * median((stderr / |observed| / 0.01)^2): the wall time the
    command would need for its typical Monte Carlo estimate to reach 1%.

    The estimates are every sweep row and, in reports, every check of kind
    "stochastic" (one estimate against a closed form).  Bound checks are
    left out: most report the worst of a corpus or sequence, so their
    stderr is that of whichever function came out worst, which moves 10-30x
    between seeds on quaternionic:1 and measures the selection, not the
    sampler.  The median, not the geometric mean, because the stderr of
    density-total on quaternionic:1 is heavy-tailed across seeds (2.4x)."""
    return wall_s * statistics.median((r / 0.01) ** 2 for r in rel_errors)


SUITE_METRICS = [f"verify.suite.{s}_s" for s in SUITE_ORDER]


def layer_metrics(spans: list) -> dict:
    """Per-layer totals from one traced command.  A layer's time is the sum
    of its spans not nested in a span of the same name; self time is a
    span's duration minus its direct children's."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    total, self_time, calls, attrs = {}, {}, {}, {}
    for i, (name, t0, t1, parent, at) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - child_time[i])
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            total[name] = total.get(name, 0.0) + (t1 - t0)
        for key, val in (at or {}).items():
            attrs[(name, key)] = attrs.get((name, key), 0) + val

    def t(name):
        return total.get(name, 0.0)

    candidates = attrs.get(("quadrature.draw", "candidates"), 0)
    accepted = attrs.get(("quadrature.draw", "accepted"), 0)
    out = {
        "quadrature.draw_s": t("quadrature.draw"),
        "quadrature.candidates": candidates,
        "quadrature.accepted": accepted,
        "quadrature.accept_ratio": accepted / candidates if candidates else 0.0,
        "quadrature.regions": calls.get("quadrature.mc_region_multi", 0),
        "quadrature.draw_calls": calls.get("quadrature.draw", 0),
        "quadrature.mc_region_multi_s": t("quadrature.mc_region_multi"),
        "quadrature.reduce_self_s": self_time.get("quadrature.mc_region_multi", 0.0),
        "verify.evaluate_s": t("verify.evaluate"),
        "verify.evaluated_points": attrs.get(("verify.evaluate", "points"), 0),
        "fields.horizontal_gradient_batch_s": t("fields.horizontal_gradient_batch"),
        "algebra.norm_d_s": t("algebra.norm_d"),
        "closedform.psi_s": t("closedform.psi"),
        "quadrature.grid_integral_1d_s": t("quadrature.grid_integral_1d"),
        "quadrature.grid_integral_1d_calls": calls.get("quadrature.grid_integral_1d", 0),
        "verify.hardy_ratio_s": t("verify.hardy_ratio"),
        "verify.hardy_ratio_calls": calls.get("verify.hardy_ratio", 0),
        "fields.p_laplacian_batch_s": t("fields.p_laplacian_batch"),
        "fields.p_laplacian_batch_points": attrs.get(("fields.p_laplacian_batch", "points"), 0),
        "fields.weighted_p_laplacian_batch_s": t("fields.weighted_p_laplacian_batch"),
        "fields.weighted_p_laplacian_batch_points": attrs.get(("fields.weighted_p_laplacian_batch", "points"), 0),
        "report.to_kv_s": t("report.to_kv"),
    }
    for s, metric in zip(SUITE_ORDER, SUITE_METRICS):
        out[metric] = t(f"verify.suite.{s}")
    return out


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# entry point


def run(args) -> dict:
    t_start = now()
    deadline = t_start + RUN_DEADLINE_S
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    name, seed = args.workload, args.seed
    commands, gated = [], []
    try:
        # untimed: fills the bytecode cache, which users pay for once
        Command(run_dir, "warmup", "probe", workload_argv(name, seed, run_dir / "warmup"), deadline)
        measure_start = now()

        def fits(cost_s: float) -> bool:
            return now() + cost_s <= min(measure_start + args.seconds, deadline)

        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = Command(run_dir, f"probe{i}", "probe", workload_argv(name, seed, run_dir / f"probe{i}"), deadline)
                if probe.ok:
                    setups.append(probe.setup_s)
        modes = ("plain", "trace") if args.trace else ("plain",)
        group_cost = 0.0
        while not gated or fits(group_cost):
            t0 = now()
            group = []
            for mode in modes:
                tag = f"{mode}{len(gated)}"
                cmd = Command(run_dir, tag, mode, workload_argv(name, seed, run_dir / tag), deadline)
                group.append((cmd, gate(name, cmd, seed)))
            gated.append(group)
            group_cost = max(group_cost, now() - t0)
            if any(cmd.returncode is None for cmd, _ in group):
                break
        commands = [c for grp in gated for c in grp]
        check_digests(name, seed, [g for _, g in commands])
    finally:
        keep = [c for c, _ in commands if c.marks and "spans" in c.marks]
        if keep:
            WORK.mkdir(exist_ok=True)
            (WORK / f"trace-{name}-seed{seed}.json").write_text(json.dumps(keep[-1].marks["spans"]))
        shutil.rmtree(run_dir, ignore_errors=True)

    for cmd, g in commands:
        if not cmd.ok or g.failed:
            print(f"[{cmd.out.name}] exit={cmd.returncode} deviations:", file=sys.stderr)
            for note in g.notes[:20]:
                print("   " + note, file=sys.stderr)
            if not cmd.ok:
                print(cmd.log_tail(), file=sys.stderr)
    attempted = sum(len(g.checks) for _, g in commands)
    failed = sum(len(g.failed) for _, g in commands)
    plain = [(c, g) for c, g in commands if c.ok and "spans" not in c.marks]
    traced = [c for c, _ in commands if c.ok and "spans" in c.marks]
    if not plain or (args.trace and not traced):
        raise SystemExit("perfbench: no command of this run completed; nothing to report")

    if args.trace:
        layers = [layer_metrics(c.marks["spans"]) for c in traced]
        metrics = {key: statistics.median([lm[key] for lm in layers]) for key in layers[0]}
        traced_wall = statistics.median([c.wall_s for c in traced])
        metrics["trace.overhead_frac"] = traced_wall / statistics.median([c.wall_s for c, _ in plain]) - 1.0
        summary = {}
    else:
        walls = [c.wall_s for c, _ in plain]
        setups += [c.setup_s for c, _ in plain]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "time_to_1pct_s": statistics.median([time_to_1pct(c.wall_s, g.rel_errors) for c, g in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        summary = {"wall_s": walls, "setup_s": setups}
    return {"metrics": metrics, "summary": summary, "attempted": attempted, "failed": failed,
            "elapsed_s": now() - t_start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20240, help="hplap --seed for every command")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="measurement window; at least one command always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hplap" / "__init__.py").is_file():
        print(f"perfbench: no hplap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    units = load_units()
    res = run(args)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"blas_omp_threads={THREADS} elapsed={res['elapsed_s']:.1f}s")
    for key, val in res["metrics"].items():
        line = f"  {key:<40} {val:<12.6g} {units[key]}"
        if key in res["summary"]:
            q1, _, q3 = quartiles(res["summary"][key])
            line += f"  (median of n={len(res['summary'][key])}, quartiles {q1:.4g}..{q3:.4g})"
        print(line)
    frac = res["failed"] / res["attempted"]
    print(f"  {'checks_failed_frac':<40} {frac:<12.6g} ratio  ({res['failed']} of {res['attempted']} checks)")
    out = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {key: {"value": val, "unit": units[key]} for key, val in res["metrics"].items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
