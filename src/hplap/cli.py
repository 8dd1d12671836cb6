"""Command-line entry point: run verification suites, print the constants
table, and sweep Rayleigh quotients over parameter grids.

Usage
-----
    hplap verify --group heisenberg:1 --k 1 --p 2 --suite lemma1 --out reports/
    hplap constants --group heisenberg:1 --k 1 --p 2
    hplap sweep --group heisenberg:1 --k 1,2 --p 1.5,2,3 --alpha -1,0,1 --out sweep.csv

Configuration precedence: command-line flags > environment variables
(prefix ``HPLAP_``, e.g. ``HPLAP_SEED=7``) > config file (``key = value``
lines with flag names only, selected with --config or ``HPLAP_CONFIG``)
> built-in defaults.

``verify`` writes one report document per suite to
``<out>/<suite>-<group>-<stamp>.kv`` (colons in the group id become
underscores) and prints a one-line summary per suite.  Exit status: 0 if
every check passed, 1 if any check failed, 2 on configuration errors.
Report documents are bit-identical across reruns with the same seed;
wall-clock time appears only on the console.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import dataclass

from . import closedform as cf
from .algebra import OperatorParams, resolve_group
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

__all__ = ["CliConfig", "cmd_verify", "cmd_constants", "cmd_sweep", "main"]

_ENV_PREFIX = "HPLAP_"

# option keys that set a SuiteConfig field, and that field's name
_SUITE_FIELDS = {"group": "group", "k": "k", "p": "p", "alpha": "alpha", "beta": "beta",
                 "seed": "seed", "samples": "n_samples", "corpus_samples": "corpus_samples"}

_DEFAULTS = {
    **{key: str(getattr(SuiteConfig, name)) for key, name in _SUITE_FIELDS.items()},
    "suite": "all",
    "out": "reports",
    "format": "kv",
    "mode": "hardy",
    "j": "8",
    "stamp": "",
}


@dataclass
class CliConfig:
    """Resolved configuration for one invocation.  The parameter fields
    hold raw strings so that ``sweep`` can receive comma-separated grids;
    single-value commands parse them through the ``*_f`` properties."""

    group: str
    k: str
    p: str
    alpha: str
    beta: str
    suites: list
    seed: int
    samples: int
    corpus_samples: int
    out: str
    format: str
    mode: str
    j: str
    stamp: str

    @property
    def k_f(self) -> float:
        return float(self.k)

    @property
    def p_f(self) -> float:
        return float(self.p)

    @property
    def alpha_f(self) -> float:
        return float(self.alpha)

    @property
    def beta_f(self) -> float:
        return float(self.beta)

    def suite_config(self, **over) -> SuiteConfig:
        kw = dict(
            group=self.group,
            k=self.k_f,
            p=self.p_f,
            alpha=self.alpha_f,
            beta=self.beta_f,
            n_samples=self.samples,
            corpus_samples=self.corpus_samples,
            seed=self.seed,
        )
        kw.update(over)
        return SuiteConfig(**kw)


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


def _resolve(args: argparse.Namespace) -> CliConfig:
    values = dict(_DEFAULTS)
    cfg_path = args.config or os.environ.get(_ENV_PREFIX + "CONFIG")
    if cfg_path:
        values.update(_read_config_file(cfg_path))
    for key in _DEFAULTS:
        env = os.environ.get(_ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = env
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    suites = [s.strip() for s in str(values["suite"]).split(",") if s.strip()]
    if "all" in suites:
        suites = list(SUITES)
    for s in suites:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; available: {', '.join(SUITES)}, all")
    return CliConfig(
        group=str(values["group"]),
        k=str(values["k"]),
        p=str(values["p"]),
        alpha=str(values["alpha"]),
        beta=str(values["beta"]),
        suites=suites,
        seed=int(values["seed"]),
        samples=int(float(values["samples"])),
        corpus_samples=int(float(values["corpus_samples"])),
        out=str(values["out"]),
        format=str(values["format"]),
        mode=str(values["mode"]),
        j=str(values["j"]),
        stamp=str(values["stamp"]),
    )


def _validate(cfg: CliConfig, grid: bool = False) -> None:
    alg = resolve_group(cfg.group)  # raises on unknown ids
    if cfg.format not in ("kv", "csv"):
        raise ValueError(f"unknown output format {cfg.format!r} (kv or csv)")
    for flag, count in (("--samples", cfg.samples), ("--corpus-samples", cfg.corpus_samples)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    if not (cfg.j.strip().isdecimal() and int(cfg.j) >= 1):
        raise ValueError(f"--j must be an integer of at least 1, got {cfg.j!r}")
    if grid:
        if cfg.mode not in ("hardy", "sharpness"):
            raise ValueError(f"unknown sweep mode {cfg.mode!r} (hardy or sharpness)")
        k_grid, p_grid, a_grid = _parse_grid(cfg.k), _parse_grid(cfg.p), _parse_grid(cfg.alpha)
        if not (k_grid and p_grid and a_grid):
            raise ValueError("sweep needs at least one value in each of --k, --p and --alpha")
        combos = [(k, p, a) for k in k_grid for p in p_grid for a in a_grid]
    else:
        combos = [(cfg.k_f, cfg.p_f, cfg.alpha_f)]
    for k, p, a in combos:
        params = OperatorParams.of(alg, k=k, p=p, alpha=a, beta=cfg.beta_f)
        if a != 0.0 or cfg.beta_f != 0.0:
            params.validate_weighted()


def _stamp(cfg: CliConfig) -> str:
    return cfg.stamp or time.strftime("%Y%m%dT%H%M%S")


def _fname_group(group: str) -> str:
    return group.replace(":", "_")


def cmd_verify(cfg: CliConfig) -> int:
    # all suites run before any file is written: a configuration error leaves no partial report set
    reports = [run_suite(name, cfg.suite_config()) for name in cfg.suites]
    os.makedirs(cfg.out, exist_ok=True)
    stamp = _stamp(cfg)
    for name, report in zip(cfg.suites, reports):
        path = os.path.join(cfg.out, f"{name}-{_fname_group(cfg.group)}-{stamp}.{cfg.format}")
        with open(path, "w") as fh:
            fh.write(to_kv(report) if cfg.format == "kv" else to_csv(report))
        print(report.summary_line() + f" -> {path}")
    return 0 if all(report.overall_pass for report in reports) else 1


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_constants(cfg: CliConfig) -> int:
    alg = resolve_group(cfg.group)
    params = OperatorParams.of(alg, k=cfg.k_f, p=cfg.p_f, alpha=cfg.alpha_f, beta=cfg.beta_f)
    weighted = cfg.alpha_f != 0.0 or cfg.beta_f != 0.0
    spec = cf.fundamental_solution(params, weighted=weighted)
    sigma = cf.sigma_p_beta(params) if weighted else cf.sigma_p(params)
    admissible = cfg.p_f < params.Q + cfg.alpha_f
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
    print(f"group={cfg.group} k={_fmt(cfg.k_f)} p={_fmt(cfg.p_f)} alpha={_fmt(cfg.alpha_f)} beta={_fmt(cfg.beta_f)}")
    for name, val in rows:
        print(f"  {name:<{width}}  {val}")
    return 0


def _parse_grid(text: str) -> list:
    return [float(x) for x in str(text).split(",") if x.strip()]


def cmd_sweep(cfg: CliConfig, k_grid, p_grid, a_grid, out_path: str, j_index: int = 8) -> int:
    alg = resolve_group(cfg.group)
    corpus_phi = build_hardy_corpus()[0]
    fieldnames = ["k", "p", "alpha", "ratio", "stderr", "sharp_constant", "margin"]
    rows = []
    for ki, k in enumerate(k_grid):
        # one hardy_ratio call per k: every row of that k shares its shells
        cases = []
        for p in p_grid:
            for a in a_grid:
                params = OperatorParams.of(alg, k=k, p=p, alpha=a)
                if p < params.Q + a:
                    phi = corpus_phi if cfg.mode == "hardy" else sharpness_test_function(params, j_index)
                    cases.append((params, phi))
        if not cases:
            continue
        results = hardy_ratio(alg, cases, cfg.corpus_samples, cfg.seed, spawn_key=(9, ki))
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

    def common(sp):
        sp.add_argument("--group", help="group id: heisenberg:n, quaternionic:n, custom:<file>")
        sp.add_argument("--k", help="field parameter k >= 1")
        sp.add_argument("--p", help="p-Laplacian exponent p > 1")
        sp.add_argument("--alpha", help="norm-power weight exponent")
        sp.add_argument("--beta", help="gradient-weight exponent")
        sp.add_argument("--seed", help="base seed for all random streams")
        sp.add_argument("--samples", help="Monte Carlo precision: n candidates per region of an equal split, "
                        "or fewer where the variance is low")
        sp.add_argument("--corpus-samples", dest="corpus_samples", help="samples per test function")
        sp.add_argument("--config", help="plain-text key = value config file")
        sp.add_argument("--out", help="output directory (verify) or file (sweep)")
        sp.add_argument("--format", help="report format: kv or csv")
        sp.add_argument("--stamp", help="fixed timestamp string for output filenames")

    sp = sub.add_parser("verify", help="run verification suites and write reports")
    common(sp)
    sp.add_argument("--suite", action="append", help="suite name (repeatable) or 'all'")

    sp = sub.add_parser("constants", help="print the constants table for a configuration")
    common(sp)

    sp = sub.add_parser("sweep", help="sweep Rayleigh quotients over a (k, p, alpha) grid")
    common(sp)
    sp.add_argument("--mode", help="hardy (corpus function) or sharpness (u_j)")
    sp.add_argument("--j", help="sequence index for sharpness mode")
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
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    if getattr(args, "suite", None) is not None:
        args.suite = ",".join(args.suite)
    else:
        if hasattr(args, "suite"):
            args.suite = None
    try:
        cfg = _resolve(args)
        _validate(cfg, grid=args.command == "sweep")
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "constants":
            return cmd_constants(cfg)
        if args.command == "sweep":
            out = cfg.out if cfg.out != _DEFAULTS["out"] else "sweep.csv"
            return cmd_sweep(
                cfg,
                _parse_grid(cfg.k),
                _parse_grid(cfg.p),
                _parse_grid(cfg.alpha),
                out,
                j_index=int(cfg.j),
            )
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
