import argparse
import contextlib
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplap import cli
from hplap.cli import _DEFAULTS, _build_parser, main
from hplap.report import _CHECK_FIELDS, VerificationReport, from_kv
from hplap.algebra import OperatorParams, resolve_group
from hplap.verify import SuiteConfig, _panel_edges, sharpness_test_function
from conftest import graded_radial_reference

FAST_SAMPLES = ["--samples", "40000", "--corpus-samples", "8000"]


def run_cli(args):
    return main(args)


def test_verify_single_suite_pass(tmp_path, capsys):
    code = run_cli(
        ["verify", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--suite", "lemma1",
         "--out", str(tmp_path), "--stamp", "T0"] + FAST_SAMPLES
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] lemma1" in out
    path = tmp_path / "lemma1-heisenberg_1-T0.kv"
    assert path.exists()
    rep = from_kv(path.read_text())
    assert rep.overall_pass and rep.suite == "lemma1"


def test_verify_failing_suite_exit_one(tmp_path):
    # the sharpness suite's final-ratio bound is unattainable for the
    # dyadic sequence at j = 8, so this configuration must exit 1
    code = run_cli(
        ["verify", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--suite", "sharpness",
         "--out", str(tmp_path), "--stamp", "T1"] + FAST_SAMPLES
    )
    assert code == 1
    rep = from_kv((tmp_path / "sharpness-heisenberg_1-T1.kv").read_text())
    failing = [c.check_id for c in rep.checks if not c.passed]
    assert failing == ["final-ratio"]


def test_reports_echo_the_alpha_and_beta_a_suite_used(tmp_path):
    # uncertainty is checked unweighted and the lemma2 witness at beta = 0,
    # whatever the flags say, and their reports say so
    run_cli(["verify", "--suite", "uncertainty", "--suite", "lemma2", "--alpha", "0.5", "--beta", "1",
             "--out", str(tmp_path), "--stamp", "E"] + FAST_SAMPLES)
    unc = (tmp_path / "uncertainty-heisenberg_1-E.kv").read_text()
    assert "config.alpha = 0.0\n" in unc and "config.beta = 0.0\n" in unc
    lemma2 = (tmp_path / "lemma2-heisenberg_1-E.kv").read_text()
    assert "config.alpha = 0.5\n" in lemma2 and "config.beta = 0.0\n" in lemma2


def test_verify_rejects_bad_k(capsys):
    code = run_cli(["verify", "--group", "heisenberg:1", "--k", "0.5", "--p", "2", "--suite", "lemma1"])
    assert code == 2
    assert "k >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["constants", "--p", "inf"],
        ["constants", "--k", "1e308"],
        ["verify", "--suite", "moments", "--p", "inf"],
    ],
)
def test_non_finite_parameters_rejected(args, capsys):
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--corpus-samples", "0"],
        ["--corpus-samples=-5"],
    ],
)
def test_non_positive_sample_counts_rejected(args, capsys):
    assert run_cli(["verify", "--suite", "moments"] + args) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "at least 1" in err


def test_constants_overflowing_sharp_constant_rejected(capsys):
    assert run_cli(["constants", "--alpha", "1e308"]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "overflows" in err


_FUZZ_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=150, deadline=None)
@given(k=_FUZZ_FLOATS, p=_FUZZ_FLOATS, alpha=_FUZZ_FLOATS, beta=_FUZZ_FLOATS)
def test_constants_fuzz_exits_cleanly(k, p, alpha, beta):
    # every flag value gives exit 0, 1 or 2; a table is printed only
    # when every constant in it is finite
    args = ["constants", f"--k={k!r}", f"--p={p!r}", f"--alpha={alpha!r}", f"--beta={beta!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run_cli(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()
    else:
        assert "configuration error:" in err.getvalue()


def test_verify_csv_format(tmp_path):
    code = run_cli(
        ["verify", "--group", "heisenberg:1", "--suite", "lemma1", "--format", "csv",
         "--out", str(tmp_path), "--stamp", "C"] + FAST_SAMPLES
    )
    assert code == 0
    rows = (tmp_path / "lemma1-heisenberg_1-C.csv").read_text().splitlines()
    assert rows[0].split(",") == list(_CHECK_FIELDS)
    assert len(rows) == 1 + 3  # one row per lemma1 check
    assert all(line.split(",")[-1] == "true" for line in rows[1:])


def test_verify_rejects_unknown_group(capsys):
    code = run_cli(["verify", "--group", "octonion:1", "--suite", "lemma1"])
    assert code == 2


def test_verify_rejects_unknown_suite(capsys):
    code = run_cli(["verify", "--group", "heisenberg:1", "--suite", "nope"])
    assert code == 2


def test_report_files_bit_identical_across_runs(tmp_path):
    args = ["verify", "--group", "heisenberg:1", "--suite", "moments", "--seed", "5"] + FAST_SAMPLES
    run_cli(args + ["--out", str(tmp_path / "a"), "--stamp", "S"])
    run_cli(args + ["--out", str(tmp_path / "b"), "--stamp", "S"])
    fa = (tmp_path / "a" / "moments-heisenberg_1-S.kv").read_bytes()
    fb = (tmp_path / "b" / "moments-heisenberg_1-S.kv").read_bytes()
    assert fa == fb


def test_constants_table(capsys):
    assert run_cli(["constants", "--group", "heisenberg:1", "--k", "1", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "3.141592654" in out          # sigma_p = pi
    assert "-0.1591549431" in out        # C_p = -1/(2 pi)
    assert "sharp Hardy constant" in out and " 1\n" in out


def test_constants_log_branch(capsys):
    assert run_cli(["constants", "--group", "heisenberg:1", "--k", "1", "--p", "4"]) == 0
    out = capsys.readouterr().out
    assert "log" in out


def test_constants_weighted_shifts_hardy(capsys):
    assert run_cli(["constants", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "2.25" in out  # ((Q + alpha - p)/p)^p = (3/2)^2


def test_sweep_grid_and_determinism(tmp_path, capsys):
    # 3 x 3 x 3 grid, all with p < Q + alpha -> 27 rows
    args = [
        "sweep", "--group", "heisenberg:1", "--k", "1,1.5,2", "--p", "1.5,2,2.5",
        "--alpha", "0,0.5,1", "--corpus-samples", "4000", "--seed", "3",
    ]
    assert run_cli(args + ["--out", str(tmp_path / "s1.csv")]) == 0
    rows = (tmp_path / "s1.csv").read_text().strip().splitlines()
    assert rows[0] == "k,p,alpha,ratio,stderr,sharp_constant,margin"
    assert len(rows) == 28  # header + 27
    for line in rows[1:]:
        cells = dict(zip(rows[0].split(","), line.split(",")))
        margin = float(cells["margin"])
        stderr = float(cells["stderr"])
        assert margin >= -3.0 * stderr
    assert run_cli(args + ["--out", str(tmp_path / "s2.csv")]) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


def test_sweep_accepts_space_separated_negative_grid(tmp_path):
    # "--alpha -1,0" gives the same rows as "--alpha=-1,0"
    base = ["sweep", "--group", "heisenberg:1", "--k", "1", "--p", "1.5", "--corpus-samples", "2000"]
    assert run_cli(base + ["--alpha", "-1,0", "--out", str(tmp_path / "a.csv")]) == 0
    assert run_cli(base + ["--alpha=-1,0", "--out", str(tmp_path / "b.csv")]) == 0
    rows = (tmp_path / "a.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].startswith("1.0,1.5,-1.0,")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_file_and_env_precedence(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "conf.txt"
    cfgfile.write_text("group = heisenberg:2\nk = 2\np = 3\n")
    # config file supplies the group
    assert run_cli(["constants", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "4, 1" in out  # m, q of heisenberg:2
    # env overrides config file
    monkeypatch.setenv("HPLAP_GROUP", "quaternionic:1")
    assert run_cli(["constants", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "4, 3" in out
    # flags override env
    assert run_cli(["constants", "--config", str(cfgfile), "--group", "heisenberg:1"]) == 0
    out = capsys.readouterr().out
    assert "2, 1" in out
    # the sweep's sequence index j follows the same chain: flag > env > file
    monkeypatch.delenv("HPLAP_GROUP")
    sweep = ["sweep", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--alpha", "0", "--mode", "sharpness",
             "--corpus-samples", "2000", "--out", "-"]

    def rows(args):
        assert run_cli(sweep + args) == 0
        return capsys.readouterr().out

    by_flag = {j: rows(["--j", j]) for j in ("2", "3", "8")}
    assert len(set(by_flag.values())) == 3
    jfile = tmp_path / "j.txt"
    jfile.write_text("j = 3\n")
    assert rows(["--config", str(jfile)]) == by_flag["3"]
    monkeypatch.setenv("HPLAP_J", "2")
    assert rows(["--config", str(jfile)]) == by_flag["2"]
    assert rows(["--config", str(jfile), "--j", "8"]) == by_flag["8"]


@pytest.mark.parametrize("j", ["0", "2.5", "x"])
def test_sweep_rejects_bad_j(j, monkeypatch, capsys):
    monkeypatch.setenv("HPLAP_J", j)
    assert run_cli(["sweep", "--k", "1", "--p", "2", "--alpha", "0", "--corpus-samples", "2000", "--out", "-"]) == 2
    assert "configuration error: --j" in capsys.readouterr().err


@pytest.mark.parametrize("k, j", [("1,1.5,2", "600"), ("1", "255"), ("1,2", "127")])
def test_sweep_computes_u_j_far_inside_the_unit_ball(k, j, capsys):
    # u_j reaches d = 2^-(j+1), and d^{4k} underflows once 4k(j + 1) >= 1022,
    # as at u_600, u_255 (k = 1) and u_127 (k = 2); no row evaluates it, and
    # each row is the exact 1-D quotient, with no warning
    args = ["sweep", "--group", "heisenberg:1", "--k", k, "--p", "2", "--alpha", "0", "--mode", "sharpness",
            "--j", j, "--out", "-"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args) == 0
    captured = capsys.readouterr()
    ks = [float(x) for x in k.split(",")]
    assert captured.err == f"sweep: {len(ks)} configurations -> -\n"
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == len(ks)
    alg = resolve_group("heisenberg:1")
    for row, kk in zip(rows, ks):
        params = OperatorParams.of(alg, k=kk, p=2.0)
        phi = sharpness_test_function(params, int(j))
        [(lhs, rhs)] = graded_radial_reference([(params, phi)], _panel_edges([phi]))
        assert float(row["k"]) == kk and abs(float(row["ratio"]) / (lhs / rhs) - 1.0) <= 1e-13


def test_sweep_names_a_case_whose_1d_integrals_are_not_finite(tmp_path, capsys):
    # u_1024 reaches d = 2^-1025, whose quintic transition divides by a
    # subnormal width: the case is named in a configuration error, with no
    # traceback, no warning and no output file
    out = tmp_path / "s.csv"
    args = ["sweep", "--k", "1", "--p", "2", "--alpha", "0", "--mode", "sharpness", "--j", "1024", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert not caught and captured.out == "" and not out.exists()
    [line] = captured.err.splitlines()
    assert line.startswith("configuration error: hardy_ratio: radial case 0 (p=2, alpha=0, support ")
    assert line.endswith(") has non-finite 1-D integrals")


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "conf.txt"
    cfgfile.write_text("group = heisenberg:1\nsampels = 10\n")
    assert run_cli(["constants", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "sampels" in err


def test_verify_configuration_error_writes_no_report(tmp_path, capsys):
    # lemma1 and fundamental_solution pass at --samples 1, moments then
    # raises: no suite may leave a report behind the configuration error
    out = tmp_path / "reports"
    assert run_cli(["verify", "--suite", "all", "--samples", "1", "--out", str(out), "--stamp", "T"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.kv"))


def test_sweep_to_stdout_is_pure_csv(capsys):
    args = ["sweep", "--group", "heisenberg:1", "--k", "1", "--p", "1.5,2", "--alpha", "0,1",
            "--corpus-samples", "2000", "--out", "-"]
    assert run_cli(args) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == 4
    for row in rows:
        assert list(row) == ["k", "p", "alpha", "ratio", "stderr", "sharp_constant", "margin"]
        assert all(math.isfinite(float(v)) for v in row.values())
    assert "sweep: 4 configurations -> -" in captured.err


def test_custom_group_via_cli(tmp_path, capsys):
    jfile = tmp_path / "J.txt"
    jfile.write_text("0 -1\n1 0\n")
    assert run_cli(["constants", "--group", f"custom:{jfile}", "--k", "1", "--p", "2"]) == 0
    assert "2, 1" in capsys.readouterr().out


def test_custom_group_absolute_path_via_cli(tmp_path, capsys):
    # the path's separators stay out of the report's file name
    jfile = tmp_path / "groups" / "J.txt"
    jfile.parent.mkdir()
    jfile.write_text("0 -1\n1 0\n")
    out = tmp_path / "reports"
    args = ["verify", "--suite", "lemma1", "--group", f"custom:{jfile.resolve()}", "--out", str(out), "--stamp", "T"]
    assert run_cli(args) == 0
    name = "lemma1-custom_" + str(jfile.resolve()).replace(os.sep, "_") + "-T.kv"
    assert [p.name for p in out.iterdir()] == [name]
    assert from_kv((out / name).read_text()).overall_pass


def test_sweep_rejects_unknown_mode(tmp_path, capsys):
    args = ["sweep", "--k", "1", "--p", "1.5", "--alpha", "0", "--corpus-samples", "2000", "--out", str(tmp_path / "s.csv")]
    assert run_cli(args + ["--mode", "bogus"]) == 2
    assert "configuration error: unknown sweep mode 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    assert run_cli(args + ["--mode", "sharpness"]) == 0


@pytest.mark.parametrize("empty", ["--k", "--p", "--alpha"])
def test_sweep_rejects_empty_grid(empty, tmp_path, capsys):
    grid = {"--k": "1", "--p": "1.5", "--alpha": "0"}
    grid[empty] = ","
    args = ["sweep", "--corpus-samples", "2000", "--out", str(tmp_path / "s.csv")]
    assert run_cli(args + [token for item in grid.items() for token in item]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("args", [["--samples", "1"], ["--group", "quaternionic:2", "--samples", "63"]])
def test_moments_too_few_accepted_samples_exit_two(args, tmp_path, capsys):
    # a budget below one point per replicate: a configuration error naming
    # --samples, not a traceback
    assert run_cli(["verify", "--suite", "moments", "--out", str(tmp_path)] + args) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "--samples" in err and "Traceback" not in err


def test_moments_small_budget_on_lean_group_passes(tmp_path, capsys):
    # quaternionic:2 fills 0.19% of the unit ball's bounding box, so a
    # budget of 100 buys less than a point; the ball still draws one point
    # per replicate, all inside it, and the moments come with error bars
    # that cover the closed forms (with rejection from the box, 1 of these
    # 100 candidates landed in the ball)
    args = ["verify", "--suite", "moments", "--group", "quaternionic:2", "--samples", "100", "--seed", "11"]
    assert run_cli(args + ["--out", str(tmp_path), "--stamp", "T"]) == 0
    rep = from_kv((tmp_path / "moments-quaternionic_2-T.kv").read_text())
    moments = [c for c in rep.checks if c.check_id.startswith("ball-moment-")]
    assert len(moments) == 3 and all(c.passed and 0.0 < c.stderr < 0.2 * c.target for c in moments)


@pytest.mark.parametrize("group", ["heisenberg:1000000000", "quaternionic:1000000000"])
def test_oversized_group_id_exit_two(group, capsys):
    # refused before any J matrix is allocated
    assert run_cli(["constants", "--group", group]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "Traceback" not in err


def test_sweep_out_defaults_per_command(tmp_path, monkeypatch):
    # sweep writes sweep.csv by default, and an explicit --out is taken
    # as given, also when it names verify's default directory
    monkeypatch.chdir(tmp_path)
    args = ["sweep", "--group", "heisenberg:1", "--k", "1", "--p", "2", "--alpha", "0", "--corpus-samples", "2000"]
    assert run_cli(args) == 0
    assert (tmp_path / "sweep.csv").is_file()
    (tmp_path / "sweep.csv").unlink()
    assert run_cli(args + ["--out", "reports"]) == 0
    assert (tmp_path / "reports").is_file() and not (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "reports").read_text().startswith("k,p,alpha,ratio,")


def test_config_keys_are_the_flag_names():
    # a config-file key or HPLAP_* variable exists for every flag but --config, and for nothing else
    parser = _build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sp in commands.choices.values() for a in sp._actions if a.dest != "help"}
    assert dests - {"config"} == set(_DEFAULTS)


def test_every_suite_config_field_has_an_option():
    # a SuiteConfig field that no option sets is a knob only tests can turn
    fields = {f.name for f in dataclasses.fields(SuiteConfig)}
    assert fields == {field for field, _ in cli._SUITE_FIELDS.values()}


def test_sweep_j_defaults_to_j_max(capsys):
    args = ["sweep", "--group", "heisenberg:1", "--k", "1", "--p", "1.5,2", "--alpha", "0", "--mode", "sharpness",
            "--corpus-samples", "2000", "--out", "-"]
    assert run_cli(args) == 0
    default = capsys.readouterr().out
    assert run_cli(args + ["--j", str(SuiteConfig.j_max)]) == 0
    assert capsys.readouterr().out.splitlines() == default.splitlines()
    assert len(default.splitlines()) == 3


def test_sweep_repeated_k_gives_identical_rows(capsys):
    # a sweep row is a radial quotient, which draws nothing: a repeated k
    # gives the same row twice, and another seed or budget gives it again
    args = ["sweep", "--group", "heisenberg:1", "--p", "2", "--alpha", "0", "--corpus-samples", "2000", "--out", "-"]
    assert run_cli(args + ["--k", "1"]) == 0
    [single] = capsys.readouterr().out.splitlines()[1:]
    assert run_cli(args + ["--k", "1,1"]) == 0
    first, second = capsys.readouterr().out.splitlines()[1:]
    assert first == second == single
    assert run_cli(args + ["--k", "1", "--seed", "7", "--corpus-samples", "9000"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [single]


# the options each command reads: its flags, and the only HPLAP_* variables
# and config keys it looks at
_READS = {
    "verify": {"group", "k", "p", "alpha", "beta", "seed", "samples", "corpus_samples", "out", "format", "stamp",
               "suite"},
    "constants": {"group", "k", "p", "alpha", "beta"},
    "sweep": {"group", "k", "p", "alpha", "seed", "corpus_samples", "out", "mode", "j"},
}


def test_each_command_takes_the_options_it_reads():
    parser = _build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(_READS)
    for name, sp in commands.choices.items():
        assert {a.dest for a in sp._actions} - {"help", "config"} == _READS[name], name


def _runnable(command, tmp_path):
    return {
        "verify": ["verify", "--suite", "lemma1", "--out", str(tmp_path)],
        "constants": ["constants"],
        "sweep": ["sweep", "--k", "1", "--p", "2", "--alpha", "0", "--corpus-samples", "2000", "--out", "-"],
    }[command]


@pytest.mark.parametrize("command, key", [(c, key) for c in _READS for key in sorted(set(_DEFAULTS) - _READS[c])])
def test_unread_option_is_refused_as_flag_and_ignored_as_variable(command, key, tmp_path, capsys, monkeypatch):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        run_cli(_runnable(command, tmp_path) + [flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    for bad in ("nope", "0"):
        monkeypatch.setenv("HPLAP_" + key.upper(), bad)
        assert run_cli(_runnable(command, tmp_path)) == 0, (key, bad)


@pytest.mark.parametrize("args", [["verify", "--suite", "lemma1"],
                                  ["sweep", "--k", "1", "--p", "2", "--alpha", "0", "--corpus-samples", "2000"]])
def test_negative_seed_names_the_option(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(args + ["--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: --seed must be a non-negative integer, got -1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("constants", "--seed"), ("sweep", "--beta")])
def test_refused_flag_reports_the_command_usage(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hplap {command} ") and flag in err and "Traceback" not in err


@pytest.mark.parametrize("args, check", [
    (["--suite", "fundamental_solution", "--p", "1.01", "--samples", "2000"], "fundamental_solution/harmonicity"),
    (["--suite", "uncertainty", "--p", "1.0001", "--corpus-samples", "4000"], "uncertainty/uncertainty-main"),
    # 12 of the 16 corpus functions overflow to nan: a nan row stops the
    # suite, rather than the other 4 being judged alone
    (["--suite", "uncertainty", "--p", "1.001", "--corpus-samples", "4000"], "uncertainty/uncertainty-main"),
])
def test_nan_check_is_a_configuration_error(args, check, tmp_path, capsys):
    # a check that evaluates to nan is reported as an error, never as FAIL
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(["verify", "--out", str(tmp_path)] + args) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and f"{check} evaluated to nan" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.kv"))


def test_configuration_error_is_printed_without_numpy_warnings(tmp_path):
    # the overflow warnings behind a nan check are not printed ahead of
    # the configuration error they lead to
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPLAP_") and k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    cmd = [sys.executable, "-m", "hplap.cli", "verify", "--suite", "uncertainty", "--p", "1.0001",
           "--corpus-samples", "4000", "--out", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: uncertainty/uncertainty-main evaluated to nan")
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr


def test_verify_does_not_import_numpy_ma(tmp_path):
    # hardy's median and fundamental_solution's dedupe of the sweep's
    # scales stay numpy-only: np.median and np.unique import numpy.ma
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPLAP_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; from hplap.cli import main; "
            "rc = main(['verify', '--suite', 'hardy', '--suite', 'fundamental_solution', '--samples', '40000', "
            f"'--corpus-samples', '8000', '--out', {str(tmp_path)!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def test_commands_do_not_import_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rules and the pole coordinate of S^2 (reached
    # through the t-sphere of quaternionic:1) use no numpy.polynomial; a
    # sweep and the sharpness suite compute only radial quotients, which
    # draw nothing, so they do not import numpy.random either
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPLAP_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for argv, drawn in (
            (["verify", "--suite", "all", "--group", "heisenberg:1", "--out", str(tmp_path)] + FAST_SAMPLES, True),
            (["verify", "--suite", "all", "--group", "quaternionic:1", "--k", "2", "--p", "3",
              "--samples", "20000", "--corpus-samples", "2000", "--out", str(tmp_path)], True),
            (["sweep", "--k", "1", "--p", "2", "--alpha", "0", "--corpus-samples", "8000", "--out", "-"], False),
            (["sweep", "--k", "1,1.5,2", "--p", "1.5,2,2.5,3", "--alpha", "-1,-0.5,0,0.5,1", "--mode", "sharpness",
              "--out", "-"], False),
            (["verify", "--suite", "sharpness", "--group", "quaternionic:1", "--k", "2", "--p", "3",
              "--out", str(tmp_path)], False)):
        code = (f"import sys; from hplap.cli import main; main({argv!r}); "
                "print('numpy.polynomial' in sys.modules, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.stdout.splitlines()[-1] == f"False {drawn}", (argv, proc.stderr)


def test_warnings_of_a_successful_run_are_shown(tmp_path, monkeypatch):
    def warning_suite(name, config):
        warnings.warn("overflow encountered in power", RuntimeWarning)
        return VerificationReport(suite=name, group=config.group, config=config.echo())

    monkeypatch.setattr(cli, "run_suite", warning_suite)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["verify", "--suite", "lemma1", "--out", str(tmp_path), "--stamp", "W"]) == 0
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "overflow encountered in power")]
