import argparse
import contextlib
import io
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityent.cli import FIGURE_PRESETS, MAX_ROWS, _row_count, _write_csv, main
from cavityent.frontier import bell_envelope_candidate


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

    def test_stdout_output(self, capsys):
        code = main(["evolve", "--gt-max", "1", "--n-steps", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "gt,concurrence" in captured.out

    def test_seeded_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["evolve", "--delta", "0.5", "--gamma", "0.01", "--gt-max", "20",
                "--n-steps", "201", "--no-timestamp"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
        ("spectral", ["--gamma", "1e300", "--delta", "1e100"]),  # inf * 0 at gt = 0
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

    def test_rk4_large_detuning_finishes(self):
        # a subprocess, so that a step count growing with Delta cannot hang the suite
        out = subprocess.run(
            [sys.executable, "-m", "cavityent.cli", "evolve", "--source", "rk4",
             "--delta", "1e8", "--gt-max", "1", "--n-steps", "3"],
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
        meta, _, _ = read_csv(out)
        assert meta["classification"] == "EFFECTIVELY_IRRATIONAL"

    def test_bad_tol_exit_2(self):
        for bad in ("nan", "inf", "0"):
            assert main(["recurrences", "--delta", "0.5", "--tol", bad]) == 2


class TestFigure:
    def test_presets_cover_all_panels(self):
        assert set(FIGURE_PRESETS) == {
            "1a", "1b", "1c", "2a", "2b", "2c",
            "3a", "3b", "3c", "4a", "4b", "4c",
        }

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

    def test_unknown_tag_exit_2(self, tmp_path):
        assert main(["figure", "9z", "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("tag", ["1a", "3a"])
    def test_rejected_n_points_writes_nothing(self, tmp_path, tag):
        assert main(["figure", tag, "--n-points", "1",
                     "--output-dir", str(tmp_path / "bundle")]) == 2
        assert not list(tmp_path.rglob("*.csv"))


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
    assert "rows exceed the limit" in capsys.readouterr().err
    assert not out.exists()


def test_huge_n_steps_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_steps = {HUGE}\n")
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", str(cfg), "-o", str(out)]) == 2
    assert f"{cfg}:1: n_steps: {HUGE} rows exceed the limit" in capsys.readouterr().err
    assert not out.exists()


def test_row_count_type():
    assert MAX_ROWS == 10**6
    assert _row_count("50001") == 50001
    assert _row_count(str(MAX_ROWS)) == MAX_ROWS
    # the lower bounds stay with the library calls, which exit 2 on them
    assert _row_count("1") == 1
    for bad in (str(MAX_ROWS + 1), HUGE, "2.5", "many"):
        with pytest.raises(argparse.ArgumentTypeError):
            _row_count(bad)


def _csv_data_lines(rows) -> list[str]:
    """Data lines that _write_csv prints for a 2-D array."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_csv("-", {}, "h", np.array(rows, dtype=float), timestamp=False)
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
@given(st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    min_size=1, max_size=8,
))
def test_csv_row_format_property(rows):
    assert _csv_data_lines(rows) == _per_value_lines(rows)


_LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def test_import_leaves_out_scipy_optimize():
    code = f"import sys, cavityent.cli; {_LOADED_SCIPY}"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
        "from cavityent.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"{_LOADED_SCIPY}\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
