"""Command-line entry point: run verification suites, print the constants
table, and sweep Rayleigh quotients over parameter grids.

Usage
-----
    hplap verify --group heisenberg:1 --k 1 --p 2 --suite lemma1 --out reports/
    hplap constants --group heisenberg:1 --k 1 --p 2
    hplap sweep --group heisenberg:1 --k 1,2 --p 1.5,2,3 --alpha -1,0,1 --out sweep.csv

Each command takes only the options it reads (and --config):

    verify     group k p alpha beta seed samples corpus-samples out format stamp suite
    constants  group k p alpha beta
    sweep      group k p alpha seed corpus-samples out mode j

An option's value comes from its flag, else its environment variable
(``HPLAP_`` and the key in capitals, e.g. ``HPLAP_SEED=7``), else the
config file (``key = value`` lines with flag names only, selected with
--config or ``HPLAP_CONFIG``), else the built-in default.  Variables and
config keys of options a command does not read are ignored; a config key
that names no option is an error.

Defaults are SuiteConfig's (``--j``: ``j_max``); ``--out`` is
``reports`` for verify and ``sweep.csv`` for sweep.  Sample counts are
budgets of bounding-box candidates.  --samples is spent only by the ball
moments, which evaluate the share of it that lands in the unit gauge
ball.  Each support of a modulated Rayleigh quotient or of an uncertainty
quotient spends --corpus-samples on a polar integral: its budget, split
over the dyadic pieces of the support at 2048 or more each, buys the
points of those pieces, spent on sampled directions with a radial
quadrature along each.  Radial Rayleigh quotients, every sweep row among
them, and the density total with its mollifier sweep draw nothing.  The
uncertainty suite checks i1^{1/t} i2^{1/s} / i3 against (Q - s)/s.

``verify`` writes one report document per suite to
``<out>/<suite>-<group>-<stamp>.kv`` (colons and path separators in the
group id become underscores) and prints a one-line summary per suite.
Exit status: 0 if every check passed, 1 if any check failed, 2 on
configuration errors.  Report documents are bit-identical across reruns
with the same seed; wall-clock time appears only on the console.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import pickle
import sys
import time
import warnings

from . import closedform as cf
from .algebra import resolve_group
from .quadrature import MIN_REGION_CANDIDATES
from .report import to_csv, to_kv
from .verify import (
    SUITES,
    SuiteConfig,
    build_hardy_corpus,
    hardy_ratio,
    run_suite,
    sharp_hardy_constant,
    sharpness_test_function,
)

__all__ = ["cmd_verify", "cmd_constants", "cmd_sweep", "main"]

_ENV_PREFIX = "HPLAP_"


def _count(text: str) -> int:
    return int(float(text))


# option key -> (the SuiteConfig field it sets, the parser of its text)
_SUITE_FIELDS = {
    "group": ("group", str), "k": ("k", float), "p": ("p", float), "alpha": ("alpha", float),
    "beta": ("beta", float), "seed": ("seed", int), "samples": ("n_samples", _count),
    "corpus_samples": ("corpus_samples", _count),
}

# every option key (a flag name with _ for -) and its default text; sweep
# writes to _SWEEP_OUT unless --out is set
_DEFAULTS = {
    **{key: str(getattr(SuiteConfig, field)) for key, (field, _) in _SUITE_FIELDS.items()},
    "suite": "all",
    "out": "reports",
    "format": "kv",
    "mode": "hardy",
    "j": str(SuiteConfig.j_max),
    "stamp": "",
}
_SWEEP_OUT = "sweep.csv"

# every option key and its help text; each command adds the keys it reads
_HELP = {
    "group": "group id: heisenberg:n, quaternionic:n, custom:<file>", "k": "field parameter k >= 1",
    "p": "p-Laplacian exponent p > 1", "alpha": "norm-power weight exponent", "beta": "gradient-weight exponent",
    "seed": "base seed for all random streams (a non-negative integer); no sweep row draws from them",
    "samples": "Monte Carlo budget in bounding-box candidates of the ball moments, which evaluate the share of n "
               "that lands in the unit gauge ball",
    "corpus_samples": f"sample budget per test-function support: split over its dyadic pieces, at least "
                      f"{MIN_REGION_CANDIDATES} each, it buys the share of each piece's bounding box that the "
                      "piece fills, spent as sampled directions times radial Gauss-Legendre nodes; radial "
                      "quotients, among them every sweep row, draw nothing and spend none of it",
    "out": f"output directory (verify, default {_DEFAULTS['out']}) or file (sweep, default {_SWEEP_OUT}; - for stdout)",
    "format": "report format: kv or csv", "stamp": "fixed timestamp string for output filenames",
    "suite": "suite name (repeatable) or 'all'", "mode": "hardy (corpus function) or sharpness (u_j)",
    "j": f"sequence index for sharpness mode (default {_DEFAULTS['j']})",
}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line: {line!r}")
            if key.strip() not in _DEFAULTS:
                raise ValueError(f"unknown config key {key.strip()!r} in {path}; known: {', '.join(_DEFAULTS)}")
            out[key.strip()] = val.strip()
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """The option text of each key the command reads, merged by precedence:
    flag > environment > config file > default."""
    defaults = dict(_DEFAULTS, out=_SWEEP_OUT) if args.command == "sweep" else _DEFAULTS
    cfg_path = args.config or os.environ.get(_ENV_PREFIX + "CONFIG")
    from_file = _read_config_file(cfg_path) if cfg_path else {}
    values = {}
    for key, flag in vars(args).items():
        if key in ("command", "config"):
            continue
        if flag is None:
            values[key] = os.environ.get(_ENV_PREFIX + key.upper(), from_file.get(key, defaults[key]))
        else:
            values[key] = ",".join(flag) if key == "suite" else flag
    return values


def _suites(text: str) -> list:
    suites = [s.strip() for s in text.split(",") if s.strip()]
    if "all" in suites:
        return list(SUITES)
    for s in suites:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; available: {', '.join(SUITES)}, all")
    return suites


def _parse_grid(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def _validate(values: dict, command: str) -> list:
    """The validated SuiteConfig of every configuration the command runs,
    one list per k: for sweep one config per (p, alpha) of the grid in
    each k's list, in grid order, and [[config]] otherwise.  Only the keys
    in values are parsed; the other fields keep SuiteConfig's defaults."""
    alg = resolve_group(values["group"])  # raises on unknown ids
    if command == "verify" and values["format"] not in ("kv", "csv"):
        raise ValueError(f"unknown output format {values['format']!r} (kv or csv)")
    if command == "sweep":
        if values["mode"] not in ("hardy", "sharpness"):
            raise ValueError(f"unknown sweep mode {values['mode']!r} (hardy or sharpness)")
        k_grid, p_grid, a_grid = grids = [_parse_grid(values[key]) for key in ("k", "p", "alpha")]
        if not all(grids):
            raise ValueError("sweep needs at least one value in each of --k, --p and --alpha")
        combos = [[dict(k=k, p=p, alpha=a) for p in p_grid for a in a_grid] for k in k_grid]
    else:
        combos = [[{}]]
    # a sweep's k, p and alpha come from its grid
    parsed = {key: parse(values[key]) for key, (_, parse) in _SUITE_FIELDS.items()
              if key in values and key not in combos[0][0]}
    for key, least, rule in (("samples", 1, "at least 1"), ("corpus_samples", 1, "at least 1"),
                             ("seed", 0, "a non-negative integer")):
        if key in parsed and parsed[key] < least:
            raise ValueError(f"--{key.replace('_', '-')} must be {rule}, got {parsed[key]}")
    if command == "sweep" and not (values["j"].strip().isdecimal() and int(values["j"]) >= 1):
        raise ValueError(f"--j must be an integer of at least 1, got {values['j']!r}")
    fields = {_SUITE_FIELDS[key][0]: value for key, value in parsed.items()}
    configs = [[SuiteConfig(**fields, **combo) for combo in row] for row in combos]
    for config in itertools.chain.from_iterable(configs):
        params = config.params(alg)
        if config.alpha != 0.0 or config.beta != 0.0:
            params.validate_weighted()
    return configs


def _fork_hardy(config: SuiteConfig):
    """(pid, read end of its pipe) of a forked worker that sends hardy's report or exception and its warnings
    through the pipe, pickled, and ends by os._exit, flushing no inherited buffer and running no exit handler."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            with warnings.catch_warnings(record=True) as caught:
                try:
                    result = run_suite("hardy", config)
                except Exception as exc:
                    result = exc
            with os.fdopen(write, "wb") as fh:
                pickle.dump((result, [(w.message, w.category, w.filename, w.lineno) for w in caught]), fh)
        finally:
            os._exit(0)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _join(pipe):
    """The worker's report, or its exception raised; its warnings are raised here again."""
    data = pipe.read()
    if not data:
        raise RuntimeError("the hardy worker ended without a result")
    result, caught = pickle.loads(data)
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)
    if isinstance(result, BaseException):
        raise result
    return result


def cmd_verify(config: SuiteConfig, suites: list, out: str, fmt: str, stamp: str) -> int:
    """Run the suites and write their reports in the order given.  When hardy and another suite follow the first,
    hardy runs in a forked worker beside them, with the reports, errors and exit status of the suites run in order.
    No file is written before every suite ran, so an error leaves no report."""
    reports = [run_suite(suites[0], config)]
    at = suites.index("hardy", 1) if "hardy" in suites[1:] and len(suites) > 2 and hasattr(os, "fork") else 0
    try:
        pid, pipe = _fork_hardy(config) if at else (0, None)
    except OSError:  # no process or descriptor to spare: hardy runs here, in order
        at = 0
    try:
        for i, name in enumerate(suites[1:], 1):
            try:
                reports.append(None if i == at else run_suite(name, config))
            except Exception:
                if i > at > 0:
                    _join(pipe)  # hardy's error comes first in suite order
                raise
        if at:
            reports[at] = _join(pipe)
    finally:
        if at:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, fixed at 9 by POSIX: importing signal would slow every command
            os.waitpid(pid, 0)
    os.makedirs(out, exist_ok=True)
    stamp = stamp or time.strftime("%Y%m%dT%H%M%S")
    group = config.group.translate(str.maketrans(":/\\", "___"))
    for name, report in zip(suites, reports):
        path = os.path.join(out, f"{name}-{group}-{stamp}.{fmt}")
        with open(path, "w") as fh:
            fh.write(to_kv(report) if fmt == "kv" else to_csv(report))
        print(report.summary_line() + f" -> {path}")
    return 0 if all(report.overall_pass for report in reports) else 1


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_constants(config: SuiteConfig) -> int:
    alg = config.algebra()
    params = config.params(alg)
    weighted = config.alpha != 0.0 or config.beta != 0.0
    spec = cf.fundamental_solution(params, weighted=weighted)
    sigma = cf.sigma_p_beta(params) if weighted else cf.sigma_p(params)
    admissible = config.p < params.Q + config.alpha
    sharp = sharp_hardy_constant(params) if admissible else 0.0
    if not all(map(math.isfinite, (sigma, spec.exponent, spec.constant, sharp))):
        raise ValueError("a constant is not finite at these parameters; they are out of range")
    rows = [
        ("m, q", f"{alg.m}, {alg.q}"),
        ("Q = m + 2kq", _fmt(params.Q)),
        ("sigma" + ("_{p,beta}" if weighted else "_p"), _fmt(sigma)),
        ("solution kind", spec.kind),
        ("solution exponent", _fmt(spec.exponent) if spec.kind == "power" else "log(1/d)"),
        ("solution constant", _fmt(spec.constant)),
        ("sharp Hardy constant", _fmt(sharp) if admissible else "n/a (requires p < Q + alpha)"),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"group={config.group} k={_fmt(config.k)} p={_fmt(config.p)} alpha={_fmt(config.alpha)} beta={_fmt(config.beta)}")
    for name, val in rows:
        print(f"  {name:<{width}}  {val}")
    return 0


def cmd_sweep(configs: list, mode: str, j: int, out_path: str) -> int:
    """One CSV row per admissible configuration; configs holds one list
    per k, and every config shares group, seed and corpus_samples."""
    first = configs[0][0]
    alg = first.algebra()
    corpus_phi = build_hardy_corpus()[0]
    fieldnames = ["k", "p", "alpha", "ratio", "stderr", "sharp_constant", "margin"]
    rows = []
    for k_configs in configs:
        # one hardy_ratio call per k: every row of that k shares its panels;
        # the quotient carries no gradient weight, so beta keeps its default 0
        cases = []
        for config in k_configs:
            params = config.params(alg)
            if params.p < params.Q + params.alpha:
                phi = corpus_phi if mode == "hardy" else sharpness_test_function(params, j)
                cases.append((params, phi))
        if not cases:
            continue
        results = hardy_ratio(alg, cases, first.corpus_samples, first.seed)
        for (params, _), res in zip(cases, results):
            sharp = sharp_hardy_constant(params)
            row = (params.k, params.p, params.alpha, res.ratio, res.stderr, sharp, res.ratio - sharp)
            rows.append(dict(zip(fieldnames, map(repr, row))))
    fh = open(out_path, "w", newline="") if out_path != "-" else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()
    # with --out - the rows go to stdout, so the summary must not
    print(f"sweep: {len(rows)} configurations -> {out_path}", file=sys.stderr if out_path == "-" else sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hplap", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, keys in (
        ("verify", "run verification suites and write reports",
         "group k p alpha beta seed samples corpus_samples out format stamp suite"),
        ("constants", "print the constants table for a configuration", "group k p alpha beta"),
        ("sweep", "sweep Rayleigh quotients over a (k, p, alpha) grid", "group k p alpha seed corpus_samples out mode j"),
    ):
        sp = sub.add_parser(command, help=help_text)
        for key in keys.split():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP[key],
                            action="append" if key == "suite" else "store")
        sp.add_argument("--config", help="plain-text key = value config file")
    return parser


def _is_number_list(token: str) -> bool:
    try:
        [float(x) for x in token.split(",")]
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list) -> list:
    """Rewrite ``--flag -1,0`` as ``--flag=-1,0``: argparse takes a token
    that starts with '-' and is not a plain negative number for an option."""
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token.startswith("-") and _is_number_list(token) and prev.startswith("--")
                and "=" not in prev and prev != "--help"):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    if extra:
        # the command's own usage line names the flags it does take
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        commands.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # numpy's warnings are held back, so that a configuration error is
        # the only thing printed, and shown as usual when the command ends
        with warnings.catch_warnings(record=True) as caught:
            values = _resolve(args)
            suites = _suites(values["suite"]) if args.command == "verify" else []
            configs = _validate(values, args.command)
            if args.command == "verify":
                status = cmd_verify(configs[0][0], suites, values["out"], values["format"], values["stamp"])
            elif args.command == "constants":
                status = cmd_constants(configs[0][0])
            else:
                status = cmd_sweep(configs, values["mode"], int(values["j"]), values["out"])
    except (ValueError, OSError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    registries = {}  # per file, as modules keep them: a warning of both hardy's worker and this process shows as in one
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               registry=registries.setdefault(w.filename, {}), source=w.source)
    return status


if __name__ == "__main__":
    sys.exit(main())
