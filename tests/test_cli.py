import argparse
import contextlib
import io
import math
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityent import trajectory
from cavityent.cli import (
    _EVOLVE_PARAMS, FIGURE_PRESETS, MAX_ROWS, _integer, _real, _row_count, _write_csv,
    build_parser, main,
)
from cavityent.frontier import bell_envelope_candidate
from cavityent.model import SystemParams


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if " = " in line:
                key, _, value = line[2:].partition(" = ")
                meta[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


class TestEvolve:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "evolve", "--delta", "0.5", "--gt-max", "10", "--n-steps", "101",
            "-o", str(out),
        ])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["gt", "concurrence", "linear_entropy", "bell_max", "purity"]
        assert rows.shape == (101, 5)
        assert rows[0, 0] == 0.0
        assert rows[-1, 0] == 10.0
        assert meta["delta_over_g"] == "0.5"
        assert meta["source"] == "analytic"
        # each column is the sweep's attribute of its header name, to 12 digits
        traj = trajectory.sweep(SystemParams(g=1.0, delta=0.5), 10.0, 101)
        for column, name in zip(rows.T, header):
            assert np.allclose(column, getattr(traj, name), rtol=1e-11, atol=0.0)

    def test_stdout_output(self, capsys):
        code = main(["evolve", "--gt-max", "1", "--n-steps", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "gt,concurrence" in captured.out

    def test_timestamp_breaks_identity_metadata(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["evolve", "--gt-max", "1", "--n-steps", "3", "-o", str(out)])
        assert "generated" in out.read_text()
        main(["evolve", "--gt-max", "1", "--n-steps", "3", "--no-timestamp",
              "-o", str(out)])
        assert "generated" not in out.read_text()

    def test_invalid_params_exit_2(self, capsys):
        assert main(["evolve", "--lambda", "1.5"]) == 2
        assert main(["evolve", "--gt-max", "-3"]) == 2
        assert main(["evolve", "--gamma", "-0.1"]) == 2
        assert main(["evolve", "--gt-max", "nan"]) == 2
        for flag in ("--delta", "--gamma"):
            for bad in ("nan", "inf"):
                assert main(["evolve", flag, bad]) == 2
        # finite, but Omega^2 = Delta^2 + 8 g^2 overflows
        capsys.readouterr()
        for argv in (["evolve", "--source", "analytic", "--delta", "1e200"],
                     ["evolve", "--source", "spectral", "--delta", "1e200"],
                     ["recurrences", "--delta", "1e200"]):
            assert main(argv) == 2
            assert "error: Omega^2" in capsys.readouterr().err

    def test_rk4_under_stiff_dephasing(self, tmp_path):
        argv = ["evolve", "--delta", "0.5", "--gamma", "1000", "--gt-max", "1",
                "--n-steps", "3"]
        rows = {}
        for source in ("spectral", "rk4"):
            out = tmp_path / f"{source}.csv"
            assert main([*argv, "--source", source, "-o", str(out)]) == 0
            rows[source] = read_csv(out)[2]
        assert np.abs(rows["rk4"] - rows["spectral"]).max() < 1e-8

    @pytest.mark.parametrize("source, flags", [
        ("rk4", ["--gamma", "1e30"]),  # the propagator power overflows
        # inf * 0 at gt = 0; Delta = 1e6 keeps gt_max = 1 within the phase bound
        ("spectral", ["--gamma", "1e300", "--delta", "1e6"]),
    ])
    def test_solver_overflow_is_named_as_such(self, tmp_path, capsys, source, flags):
        argv = ["evolve", *flags, "--gt-max", "1", "--n-steps", "3"]
        out = tmp_path / "t.csv"
        assert main([*argv, "--source", source, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: the solver produced non-finite reduced states\n"
        assert not out.exists()
        # the closed form underflows its damping to 0 and is fine
        assert main([*argv, "--source", "analytic", "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert np.isfinite(read_csv(out)[2]).all()

    def test_rk4_overflowing_default_step_is_named(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["evolve", "--source", "rk4", "--gamma", "1e300", "--delta", "1e6",
                "--gt-max", "1", "--n-steps", "3", "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the Liouvillian's spectral radius "
                              "Omega sqrt(1 + (gamma Omega/2)^2) overflows")
        assert not out.exists()

    def test_rk4_overflowing_step_count_is_named(self, tmp_path, capsys):
        # the default step is positive but so small that interval / dt is inf
        out = tmp_path / "t.csv"
        argv = ["evolve", "--source", "rk4", "--gamma", "1e305", "--gt-max", "1000",
                "--n-steps", "3", "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the RK4 step count ceil(500 / dt) overflows")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_past_the_phase_bound_exits_2(self, tmp_path, capsys):
        # at Delta = 0, gt_max = 1e17 the analytic and spectral concurrences read 0.31 and 0.05
        out = tmp_path / "t.csv"
        assert main(["evolve", "--gt-max", "1e17", "--n-steps", "3", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: gt_max = 1e+17 is past the phase-precision bound: "
            "eps (Omega + |Delta|) gt_max / g = 62.8 > 1e-08\n")
        assert not out.exists()

    def test_rk4_large_detuning_finishes(self):
        # a subprocess, so that a step count growing with Delta cannot hang the
        # suite; gt_max = 0.2 is within the phase bound (8.9e-9), 1 is not
        out = subprocess.run(
            [sys.executable, "-m", "cavityent.cli", "evolve", "--source", "rk4",
             "--delta", "1e8", "--gt-max", "0.2", "--n-steps", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr

    def test_photon_cutoff_is_not_an_input(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_max = 2\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        for cmd in ("evolve", "recurrences"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--n-max", "2"])
            assert exc.value.code == 2
        out = tmp_path / "t.csv"
        main(["evolve", "--gt-max", "1", "--n-steps", "3", "-o", str(out)])
        meta, _, _ = read_csv(out)
        assert "n_max" not in meta

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ndelta = 0.5\ngt_max = 10\nn_steps = 11\n")
        out = tmp_path / "c.csv"
        code = main(["evolve", "--config", str(cfg), "-o", str(out)])
        assert code == 0
        meta, _, rows = read_csv(out)
        assert meta["delta_over_g"] == "0.5"
        assert rows.shape[0] == 11

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.5\ngt_max = 10\nn_steps = 11\n")
        out = tmp_path / "c.csv"
        code = main([
            "evolve", "--config", str(cfg), "--delta", "2.0", "-o", str(out)
        ])
        assert code == 0
        meta, _, _ = read_csv(out)
        assert meta["delta_over_g"] == "2"

    def test_bad_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_flag_at_default_value_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 2\ngt_max = 10\nn_steps = 11\n")
        out = tmp_path / "c.csv"
        code = main([
            "evolve", "--config", str(cfg), "--delta", "0", "-o", str(out)
        ])
        assert code == 0
        meta, _, _ = read_csv(out)
        assert meta["delta_over_g"] == "0"
        assert meta["gt_max"] == "10"

    def test_seed_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_duplicate_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.5\ngt_max = 1\ndelta = 0.7\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: duplicate config key 'delta'" in err

    @pytest.mark.parametrize("line, message", [
        ("delta = abc", "delta: expected a number, got 'abc'"),
        ("lambda = 0.5 # half", "lambda: expected a number, got '0.5 # half'"),
        ("source = euler", "source: expected one of analytic, spectral, rk4, got 'euler'"),
    ], ids=["delta", "lambda", "source"])
    def test_unparsable_config_value_names_file_line_and_key(
            self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"gt_max = 1\n{line}\n")
        out = tmp_path / "t.csv"
        assert main(["evolve", "--config", str(cfg), "-o", str(out)]) == 2
        assert f"{cfg}:2: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", _EVOLVE_PARAMS)
    def test_flag_and_config_key_mean_the_same(self, tmp_path, capsys, key):
        # one value that parses and one that does not, for each parameter
        good, bad = {
            "delta": ("0.25", "abc"), "lambda": ("0.8", "0.5 # half"),
            "gamma": ("0.01", "1e"), "gt_max": ("3", ""), "n_steps": ("7", "2.5"),
            "source": ("spectral", "euler"),
        }[key]
        flag, cfg = f"--{key.replace('_', '-')}", tmp_path / "run.cfg"
        outputs = []
        for value in (good, bad):
            cfg.write_text(f"{key} = {value}\n")
            for route in ([flag, value], ["--config", str(cfg)]):
                out = tmp_path / f"{len(outputs)}.csv"
                try:
                    code = main(["evolve", *route, "--no-timestamp", "-o", str(out)])
                except SystemExit as exc:
                    code = exc.code
                assert code == (0 if value is good else 2)
                err = capsys.readouterr().err.splitlines()
                outputs.append(out.read_bytes() if value is good else err[-1])
        assert outputs[0] == outputs[1]
        prefix = f"cavityent evolve: error: argument {flag}: "
        assert outputs[2].startswith(prefix)
        assert outputs[3] == f"error: {cfg}:1: {key}: " + outputs[2][len(prefix):]

    def test_help_names_every_parameter(self, capsys):
        with pytest.raises(SystemExit):
            main(["evolve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for key, (_, _, _, explanation) in _EVOLVE_PARAMS.items():
            assert f"--{key.replace('_', '-')} {key.upper()} {explanation}" in text

    @pytest.mark.parametrize("name", ["missing.cfg", ".", "latin1.cfg", ""])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, name):
        # a config path is a parameter: one that cannot be read (missing, a
        # directory, not UTF-8, or empty) is a bad parameter
        cfg = str(tmp_path / name) if name else ""
        if name == "latin1.cfg":
            Path(cfg).write_bytes(b"delta = \xe9\n")
        assert main(["evolve", "--config", cfg, "-o", str(tmp_path / "t.csv")]) == 2
        assert f"{cfg}: cannot read config file: " in capsys.readouterr().err

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        # an output that cannot be written is a runtime failure
        assert main(["evolve", "--gt-max", "1", "--n-steps", "3", "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("failure: ")


class TestFrontierCommand:
    def test_werner(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["frontier", "--kind", "werner", "--n-points", "33",
                     "-o", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["linear_entropy", "value"]
        assert rows.shape == (33, 2)
        assert rows[0, 1] == pytest.approx(1.0)

    def test_bell_is_closed_form_envelope(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["frontier", "--kind", "bell", "--n-points", "65",
                     "--seed", "3", "-o", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert "seed" not in meta and "samples" not in meta
        assert np.abs(rows[:, 1] - bell_envelope_candidate(rows[:, 0])).max() < 1e-9

    def test_mems(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["frontier", "--kind", "mems", "--n-points", "33",
                     "-o", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[:, 0].max() == pytest.approx(8.0 / 9.0)


class TestRecurrences:
    def test_resonant(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["recurrences", "--delta", "0", "--k-max", "10", "-o", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["k", "gt", "concurrence"]
        assert rows.shape == (10, 3)
        assert np.abs(rows[:, 2]).max() == 0.0
        assert meta["classification"] == "EFFECTIVELY_RATIONAL"

    def test_generic_detuning_irrational(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["recurrences", "--delta", "0.5", "--k-max", "5",
                     "--tol", "1e-12", "-o", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert meta["classification"] == "EFFECTIVELY_IRRATIONAL"
        # the columns in header order: k, gt_k = 2 k pi / Omega, |sin(Delta k pi / Omega)|
        k, omega = np.arange(1, 6), np.sqrt(0.25 + 8.0)
        assert np.array_equal(rows[:, 0], k)
        assert np.abs(rows[:, 1] / (2.0 * np.pi * k / omega) - 1.0).max() < 1e-11
        assert np.abs(rows[:, 2] - np.abs(np.sin(0.5 * k * np.pi / omega))).max() < 1e-11

    def test_bad_tol_exit_2(self):
        for bad in ("nan", "inf", "0"):
            assert main(["recurrences", "--delta", "0.5", "--tol", bad]) == 2


class TestFigure:
    def test_presets_cover_all_panels(self):
        assert set(FIGURE_PRESETS) == {
            "1a", "1b", "1c", "2a", "2b", "2c",
            "3a", "3b", "3c", "4a", "4b", "4c",
        }
        # (Delta/g, lambda, gamma g, gt_max) as printed in each caption; the
        # panels of figure 3 are in the Bell plane
        captions = {
            "1a": (0.0, 1.0, 0.0, 50.0), "1b": (0.5, 1.0, 0.0, 50.0), "1c": (5.0, 1.0, 0.0, 50.0),
            "2a": (0.5, 0.9, 0.0, 500.0), "2b": (0.5, 0.7, 0.0, 500.0),
            "2c": (0.5, 0.6, 0.0, 500.0), "3a": (0.0, 1.0, 0.0, 500.0),
            "3b": (0.01, 1.0, 0.0, 500.0), "3c": (5.0, 1.0, 0.0, 500.0),
            "4a": (0.0, 1.0, 0.01, 500.0), "4b": (0.5, 1.0, 0.01, 500.0),
            "4c": (1.0, 1.0, 0.01, 500.0),
        }
        keywords = ["delta_over_g", "lambda_", "gamma_times_g", "gt_max"]
        assert [field for field, *_ in _EVOLVE_PARAMS.values()][:4] == keywords
        for tag, (settings, kinds) in FIGURE_PRESETS.items():
            assert list(settings) == keywords
            assert tuple(settings.values()) == captions[tag]
            assert kinds == (("bell",) if tag[0] == "3" else ("werner", "mems"))

    def test_figure_1a_bundle(self, tmp_path):
        code = main([
            "figure", "1a", "--output-dir", str(tmp_path),
            "--n-points", "33", "--no-timestamp",
        ])
        assert code == 0
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == [
            "figure1a_mems.csv",
            "figure1a_trajectory.csv",
            "figure1a_werner.csv",
        ]
        meta, _, rows = read_csv(tmp_path / "figure1a_trajectory.csv")
        assert meta["gt_max"] == "50"
        assert rows.shape[0] == 5001

    def test_unknown_tag_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        with pytest.raises(SystemExit) as exc:
            main(["figure", "9z", "--output-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "cavityent figure: error: argument tag: expected one of "
            "1a, 1b, 1c, 2a, 2b, 2c, 3a, 3b, 3c, 4a, 4b, 4c, got '9z'")
        assert not out.exists()

    @pytest.mark.parametrize("tag, evolve_flags", [
        ("1a", ["--delta", "0", "--lambda", "1", "--gamma", "0", "--gt-max", "50"]),
        ("3b", ["--delta", "0.01", "--lambda", "1", "--gamma", "0", "--gt-max", "500"]),
        ("4c", ["--delta", "1", "--lambda", "1", "--gamma", "0.01", "--gt-max", "500"]),
    ])
    def test_bundle_is_evolve_and_frontier_output(self, tmp_path, tag, evolve_flags):
        # figure writes through the evolve and frontier writers: each file
        # equals theirs but for the command line
        assert main(["figure", tag, "--output-dir", str(tmp_path / "fig"),
                     "--n-points", "33", "--no-timestamp"]) == 0
        bundle = sorted((tmp_path / "fig").iterdir())
        assert len(bundle) >= 2
        for path in bundle:
            kind = path.stem.split("_")[1]
            ref = tmp_path / f"{kind}.csv"
            if kind == "trajectory":
                argv = ["evolve", *evolve_flags]
            else:
                argv = ["frontier", "--kind", kind, "--n-points", "33"]
            assert main(argv + ["--no-timestamp", "-o", str(ref)]) == 0
            got, want = path.read_text().splitlines(), ref.read_text().splitlines()
            assert got[1] == f"# command = figure {tag}"
            assert want[1] == f"# command = {argv[0]}"
            assert got[:1] + got[2:] == want[:1] + want[2:]


@pytest.mark.parametrize("n_points", ["1", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["figure", "1a", "--output-dir", "{out}"],
    ["figure", "3a", "--output-dir", "{out}"],
    ["frontier", "--kind", "mems", "-o", "{out}/f.csv"],
    ["frontier", "--kind", "werner", "-o", "{out}/f.csv"],
    ["frontier", "--kind", "bell", "-o", "{out}/f.csv"],
], ids=["figure-1a", "figure-3a", "frontier-mems", "frontier-werner", "frontier-bell"])
def test_too_few_curve_points_exit_2(tmp_path, capsys, argv, n_points):
    # a negative count stops at argparse, naming the flag; FrontierCurve
    # refuses 0 or 1 points, naming the count; both before any sweep or
    # file write
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in argv] + ["--n-points", n_points]
    if n_points == "-1":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--n-points" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"got shape ({n_points}, 2)" in lines[0]
    assert not out.exists()


HUGE = str(10**15)


@pytest.mark.parametrize("argv", [
    ["evolve", "--n-steps", HUGE, "-o", "{out}"],
    ["figure", "1a", "--n-points", HUGE, "--output-dir", "{out}"],
    ["frontier", "--kind", "mems", "--n-points", HUGE, "-o", "{out}"],
    ["recurrences", "--k-max", HUGE, "-o", "{out}"],
], ids=lambda argv: argv[0])
def test_huge_row_count_exits_2_before_any_work(tmp_path, argv, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([a.format(out=out) for a in argv])
    assert exc.value.code == 2
    assert f"a row count must be from 0 to {MAX_ROWS}" in capsys.readouterr().err
    assert not out.exists()


def test_huge_n_steps_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_steps = {HUGE}\n")
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", str(cfg), "-o", str(out)]) == 2
    assert f"{cfg}:1: n_steps: a row count must be from 0 to {MAX_ROWS}" in capsys.readouterr().err
    assert not out.exists()


# each subcommand's arguments before an integer option, "{out}" the output path
_INTEGER_OPTION_ARGV = {
    "evolve": ["evolve", "-o", "{out}"],
    "figure": ["figure", "1a", "--output-dir", "{out}"],
    "frontier": ["frontier", "--kind", "mems", "-o", "{out}"],
    "recurrences": ["recurrences", "-o", "{out}"],
}


def _value_kind(action) -> str:
    """What an argument takes: a path, which refusals print whole; an
    integer, a row count, a number or a name, each parsed by one of the CLI's
    types, whose refusal quotes 20 characters at most; or, for any other
    type or for choices=, whose refusals repeat the argument whole, its repr."""
    if action.choices is not None:
        return f"choices {action.choices!r}"
    kinds = {None: "path", _integer: "integer", _row_count: "row count", _real: "number"}
    if action.type in kinds:
        return kinds[action.type]
    try:  # a _one_of type names its choices when it refuses
        action.type("")
    except (argparse.ArgumentTypeError, ValueError) as exc:
        if str(exc).startswith("expected one of "):
            return "name"
    return repr(action.type)


def value_options() -> list[tuple[str, str, str]]:
    """(subcommand, flag or positional, _value_kind) of every argument that takes a value."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0] if action.option_strings else action.dest,
             _value_kind(action))
            for command, sub in subparsers.choices.items()
            for action in sub._actions if action.nargs != 0]  # not --help or a switch


def integer_options() -> list[tuple[str, str]]:
    """(subcommand, flag) of every option that parses an integer."""
    return [(command, name) for command, name, kind in value_options()
            if kind in ("integer", "row count")]


def test_value_options_are_all_found():
    assert value_options() == [
        ("evolve", "--delta", "number"), ("evolve", "--lambda", "number"),
        ("evolve", "--gamma", "number"), ("evolve", "--gt-max", "number"),
        ("evolve", "--n-steps", "row count"), ("evolve", "--source", "name"),
        ("evolve", "--config", "path"), ("evolve", "--output", "path"),
        ("figure", "tag", "name"), ("figure", "--output-dir", "path"),
        ("figure", "--n-points", "row count"), ("figure", "--seed", "integer"),
        ("frontier", "--kind", "name"), ("frontier", "--n-points", "row count"),
        ("frontier", "--seed", "integer"), ("frontier", "--output", "path"),
        ("recurrences", "--delta", "number"), ("recurrences", "--k-max", "row count"),
        ("recurrences", "--tol", "number"), ("recurrences", "--q-max", "integer"),
        ("recurrences", "--output", "path"),
    ]


def _shown(text):
    """How a refusal quotes a text of more than 20 characters."""
    return f"'{text[:20]}'... ({len(text)} characters)"


HUGE_TEXT = "1" * 5000
HUGE_SHOWN = f"expected an integer, got {_shown(HUGE_TEXT)}"


@pytest.mark.parametrize("command, flag", integer_options())
def test_huge_integer_argument_is_not_repeated(tmp_path, capsys, command, flag):
    # int() refuses more than 4300 digits; the one error line names the
    # flag and quotes 20 characters of the argument and its length
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in _INTEGER_OPTION_ARGV[command]] + [flag, HUGE_TEXT]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"cavityent {command}: error: argument {flag}: {HUGE_SHOWN}"]
    assert len(errors[0].encode()) < 200
    assert not out.exists()


def test_huge_integer_config_value_is_not_repeated(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(f"n_steps = {HUGE_TEXT}\n")
    assert main(["evolve", "--config", "run.cfg", "-o", "t.csv"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors == [f"error: run.cfg:1: n_steps: {HUGE_SHOWN}"]
    assert len(errors[0].encode()) < 200
    assert not Path("t.csv").exists()


@pytest.mark.parametrize("text, shown", [
    ("x" * 20, "'xxxxxxxxxxxxxxxxxxxx'"),
    ("x" * 21, "'xxxxxxxxxxxxxxxxxxxx'... (21 characters)"),
])
def test_refusal_quotes_up_to_20_characters_whole(capsys, text, shown):
    with pytest.raises(SystemExit):
        main(["frontier", "--kind", text])
    assert capsys.readouterr().err.splitlines()[-1].endswith(f", got {shown}")


HUGE_WORD = "x" * 5000


@pytest.mark.parametrize("line, message", [
    (f"delta = {HUGE_WORD}", f"delta: expected a number, got {_shown(HUGE_WORD)}"),
    (f"source = {HUGE_WORD}",
     f"source: expected one of analytic, spectral, rk4, got {_shown(HUGE_WORD)}"),
    (HUGE_WORD, f"expected key=value, got {_shown(HUGE_WORD)}"),
    (f"{HUGE_WORD} = 1", f"unknown config key {_shown(HUGE_WORD)}"),
], ids=["value", "source", "line", "key"])
def test_huge_config_text_is_not_repeated(tmp_path, capsys, monkeypatch, line, message):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(f"gt_max = 1\n{line}\n")
    assert main(["evolve", "--config", "run.cfg", "-o", "t.csv"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors == [f"error: run.cfg:2: {message}"]
    assert len(errors[0].encode()) < 200
    assert not Path("t.csv").exists()


def test_row_count_type():
    assert MAX_ROWS == 10**6
    assert _row_count("50001") == 50001
    assert _row_count(str(MAX_ROWS)) == MAX_ROWS
    # counts from 0 pass; the library calls refuse those too small for them
    assert _row_count("0") == 0
    assert _row_count("1") == 1
    for bad in ("-1", str(MAX_ROWS + 1), HUGE, "2.5", "many"):
        with pytest.raises(argparse.ArgumentTypeError):
            _row_count(bad)


def _csv_data_lines(rows) -> list[str]:
    """Data lines that _write_csv prints for the columns of a 2-D array."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_csv("-", {}, "h", np.array(rows, dtype=float).T, timestamp=False)
    return buf.getvalue().splitlines()[2:]


def _per_value_lines(rows) -> list[str]:
    """The reference format: each value printed on its own with 12 digits."""
    return [",".join(f"{float(x):.12g}" for x in row) for row in rows]


def test_csv_row_format_matches_per_value_format():
    rows = [
        [0.0, -0.0, 5e-324, -5e-324],
        [1e-300, -1e-300, 0.1 + 0.2, 1e16 + 1],
        [2.0 * math.sqrt(2.0), -2.0 * math.sqrt(2.0), 1.0 / 3.0, 8.0 / 9.0],
        [1.0, 100.0, 12345.0, 999999999999.0],
        [1e12, 123456789012345.0, 2.0**53, 1e300],
    ]
    assert _csv_data_lines(rows) == _per_value_lines(rows)
    assert _csv_data_lines([[2.0 * math.sqrt(2.0)]]) == ["2.82842712475"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
    min_size=1, max_size=8,
)))
def test_csv_row_format_property(rows):
    assert _csv_data_lines(rows) == _per_value_lines(rows)


def test_csv_writing_peak_memory(tmp_path):
    # the data is formatted in blocks of rows: the peak is one block's
    # values as Python floats plus its text, not the whole file's
    rows = np.random.default_rng(0).random((50001, 5))
    out = tmp_path / "rows.csv"
    _write_csv(str(out), {}, "h", rows[:10].T, timestamp=False)
    tracemalloc.start()
    try:
        _write_csv(str(out), {}, "h", rows.T, timestamp=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * out.stat().st_size


def test_evolve_peak_memory(tmp_path):
    # the writer stacks one block of the trajectory's columns at a time, so
    # an evolve run holds the trajectory and one block's text, not a second
    # copy of every row
    argv = ["evolve", "--delta", "0.5", "--lambda", "0.7", "--gt-max", "500",
            "--no-timestamp", "-o", str(tmp_path / "out.csv")]
    assert main(argv + ["--n-steps", "101"]) == 0  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        assert main(argv + ["--n-steps", "50001"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # gt, the (n, 2) plane and bell_max: 1.53 MiB
    trajectory_bytes = 4 * 50001 * 8
    assert peak <= 2.5 * trajectory_bytes


_LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def test_import_leaves_out_scipy_optimize():
    code = f"import sys, cavityent.cli; {_LOADED_SCIPY}"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# the general-state metrics serve only the oracles and the tests
_LOADED_METRICS = (
    "print(sorted(m for m in sys.modules if m in ('cavityent.metrics', 'cavityent.linalg')))"
)


def test_cli_runs_load_no_scipy(tmp_path):
    runs = [
        ["figure", "1a", "--output-dir", str(tmp_path)],
        ["figure", "3a", "--output-dir", str(tmp_path)],
        ["evolve", "--source", "spectral", "--gamma", "0.01", "--gt-max", "5",
         "--n-steps", "51", "-o", str(tmp_path / "spectral.csv")],
        ["evolve", "--source", "rk4", "--gamma", "0.01", "--gt-max", "5",
         "--n-steps", "51", "-o", str(tmp_path / "rk4.csv")],
        ["recurrences", "--delta", "0.5", "-o", str(tmp_path / "rec.csv")],
        ["frontier", "--kind", "bell", "-o", str(tmp_path / "bell.csv")],
    ]
    code = (
        "import sys\n"
        "from cavityent import frontier, trajectory\n"
        f"{_LOADED_METRICS}\n"
        "from cavityent.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"{_LOADED_SCIPY}\n"
        f"{_LOADED_METRICS}\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "[]", "[]"]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# CLI contract: extreme flag values exit 0 or 2, and a rejection prints one
# error line, under 200 bytes, and writes nothing. Row counts stay small,
# because they allocate. Every value may be a 5 000-character word.
LONG = st.sampled_from([HUGE_WORD, HUGE_TEXT])
EXTREME = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e300",
                           "-1e300", "1e-300", "-1e-300", "0.5", "3"]) | LONG
COUNT = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "17"]) | LONG
VALID_COUNT = st.sampled_from(["2", "3", "17"])
INTEGER = COUNT | st.sampled_from(["1e300", "nan", "1000", str(10**300)])


def _flags(**strategies):
    """Any subset of the flags, each with a drawn value."""
    return st.tuples(*(st.none() | value.map(lambda v, f=flag: [f, v])
                       for flag, value in strategies.items())).map(
        lambda pairs: [arg for pair in pairs if pair for arg in pair])


def _argv(*parts):
    """argv strategy from fixed words and strategies of a word or a word list."""
    return st.tuples(*(st.just(part) if isinstance(part, str) else part for part in parts)).map(
        lambda drawn: [a for part in drawn for a in ([part] if isinstance(part, str) else part)])


STAMP = st.sampled_from([[], ["--no-timestamp"]])
CLI_ARGVS = {
    "evolve": _argv("evolve", STAMP, "--n-steps", VALID_COUNT | COUNT, "--source",
                    st.sampled_from(["analytic", "spectral", "rk4"]) | LONG,
                    _flags(**{"--delta": EXTREME, "--lambda": EXTREME, "--gamma": EXTREME,
                              "--gt-max": EXTREME}), "-o", "{out}/t.csv"),
    "figure": _argv("figure", st.sampled_from(["1a", "9z"]) | LONG, STAMP,
                    _flags(**{"--n-points": COUNT, "--seed": INTEGER}),
                    "--output-dir", "{out}/bundle"),
    "frontier": _argv("frontier", STAMP, "--kind",
                      st.sampled_from(["werner", "mems", "bell"]) | LONG,
                      _flags(**{"--n-points": COUNT, "--seed": INTEGER}), "-o", "{out}/f.csv"),
    "recurrences": _argv("recurrences", STAMP,
                         _flags(**{"--delta": EXTREME, "--k-max": COUNT, "--tol": EXTREME,
                                   "--q-max": INTEGER}),
                         "-o", "{out}/r.csv"),
}


@pytest.mark.parametrize("command", CLI_ARGVS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_contract(command, data):
    argv = data.draw(CLI_ARGVS[command])
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main([a.format(out=out) for a in argv])
            except SystemExit as exc:
                code = exc.code
        lines = err.getvalue().splitlines()
        written = [p for p in Path(out).rglob("*") if p.is_file()]
        # a written file carries the generated-at line exactly when the
        # flag is absent
        stamped = {"\n# generated = " in p.read_text() for p in written}
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2), lines
    if code == 0:
        assert lines == [] and written
        assert stamped == {"--no-timestamp" not in argv}
        return
    assert written == []
    # one error line from the library, or argparse's usage and error lines
    if lines[0].startswith("usage: cavityent"):
        assert lines[-1].startswith("cavityent ") and ": error: " in lines[-1]
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[-1].encode()) < 200
