"""One hplap command in a fresh interpreter, with timing hooks.

Usage (from the repository root, ``src`` on PYTHONPATH):

    python3 perfbench/child.py --mode {probe,plain,trace} --marks FILE -- <hplap args>

The command runs through ``hplap.cli.main``, the function behind the
``hplap`` console script.  Hooks are installed by rebinding names in the
already imported ``hplap`` modules; no file of the library changes.

probe
    Exits as soon as the first suite (verify) or the first sweep row
    starts, so the parent can time set-up alone.
plain
    Records only when the first suite or sweep row starts and when the
    command returns (two calls per suite: tracing off).
trace
    Additionally wraps the layer functions named in ``install_tracer`` and
    keeps a span (name, start, end, parent, attributes) for every call; spans
    are written with the marks when the command returns.

Times are CLOCK_MONOTONIC, which the parent process shares.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder.  A span's parent is the innermost open
    span when it starts (the program is single-threaded)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self._open = []

    def wrap(self, name, fn, attrs=None):
        """fn wrapped in a span; name may be a callable of (args, kwargs);
        attrs(args, kwargs, result) returns a dict of counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                   self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                self._open.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced


def rebind(orig, replacement) -> int:
    """Point every hplap module global that is ``orig`` at ``replacement``."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hplap" or mod_name.startswith("hplap.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
                hits += 1
    return hits


def _n_points(Z) -> int:
    shape = getattr(Z, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def install_tracer(tracer: Tracer) -> None:
    from hplap import algebra, closedform, fields, quadrature, report, verify

    def draw_attrs(args, kwargs, out):
        return {"candidates": int(args[1] if len(args) > 1 else kwargs["n"]),
                "accepted": int(out[2].sum())}

    def points_attrs(args, kwargs, out):
        return {"points": _n_points(args[4] if len(args) > 4 else kwargs["Z"])}

    def evaluate_attrs(args, kwargs, out):
        return {"points": _n_points(args[0])}

    quadrature.Sampler.draw = tracer.wrap("quadrature.draw", quadrature.Sampler.draw, draw_attrs)
    orig_region = quadrature.mc_region_multi

    def region(sampler, multi_fn, *rest, **kwargs):
        return orig_region(sampler, tracer.wrap("verify.evaluate", multi_fn, evaluate_attrs), *rest, **kwargs)

    layers = [
        (orig_region, "quadrature.mc_region_multi", functools.wraps(orig_region)(region), None),
        (fields.horizontal_gradient_batch, "fields.horizontal_gradient_batch", None, None),
        (fields.p_laplacian_batch, "fields.p_laplacian_batch", None, points_attrs),
        (fields.weighted_p_laplacian_batch, "fields.weighted_p_laplacian_batch", None, points_attrs),
        (algebra.norm_d, "algebra.norm_d", None, None),
        (closedform.psi, "closedform.psi", None, None),
        (quadrature.grid_integral_1d, "quadrature.grid_integral_1d", None, None),
        (verify.hardy_ratio, "verify.hardy_ratio", None, None),
        (report.to_kv, "report.to_kv", None, None),
    ]
    for orig, name, impl, attrs in layers:
        if not rebind(orig, tracer.wrap(name, impl or orig, attrs)):
            raise RuntimeError(f"no hplap module refers to {name}")

    def suite_name(args, kwargs):
        return "verify.suite." + (args[0] if args else kwargs["name"])

    rebind(verify.run_suite, tracer.wrap(suite_name, verify.run_suite))


class _FirstStart(Exception):
    """Raised by the probe hook once set-up is complete."""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("probe", "plain", "trace"), required=True)
    ap.add_argument("--marks", required=True, help="JSON file for timestamps (and spans)")
    ap.add_argument("hplap_args", nargs=argparse.REMAINDER)
    ns = ap.parse_args(argv)
    hplap_args = ns.hplap_args[1:] if ns.hplap_args[:1] == ["--"] else ns.hplap_args

    import hplap
    from hplap import cli

    marks = {"hplap_file": hplap.__file__, "first_start": None}
    tracer = Tracer()
    if ns.mode == "trace":
        install_tracer(tracer)

    def first_start_hook(orig):
        @functools.wraps(orig)
        def hooked(*args, **kwargs):
            if marks["first_start"] is None:
                marks["first_start"] = now()
                if ns.mode == "probe":
                    raise _FirstStart
            return orig(*args, **kwargs)

        return hooked

    # cli.run_suite / cli.hardy_ratio are the traced wrappers in trace mode,
    # so the first-start mark precedes the first suite span
    cli.run_suite = first_start_hook(cli.run_suite)
    cli.hardy_ratio = first_start_hook(cli.hardy_ratio)

    rc = None
    try:
        rc = cli.main(hplap_args)
    except _FirstStart:
        rc = 0
    finally:
        # also when a suite raises, so the parent can count what ran
        marks["end"] = now()
        marks["returncode"] = rc
        if ns.mode == "trace":
            marks["spans"] = tracer.spans
        with open(ns.marks, "w") as fh:
            json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
