"""CLI: exit codes, flags, manifests, reproducibility of emitted files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boostbound
from boostbound.cli import _build_parser, _resolve, dispatch
from boostbound.data import LOAD_BLOCK_ROWS, load_csv
from boostbound.experiments import load_records_csv

TINY_SWEEP = [
    "exp", "m-sweep",
    "--d", "5", "--m-min", "10", "--m-max", "30", "--m-step", "10",
    "--repeats", "1", "--t-max", "3", "--epochs", "3",
    "--delta", "0.05", "--seed", "7", "--workers", "1",
]


def run(args):
    return dispatch([str(a) for a in args])


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["exp", "m-sweep", "--bogus", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_exp_without_mode(self, capsys):
        assert run(["exp", "--out", "x"]) == 1
        assert "mode" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys, tmp_path):
        assert run(["bound", "--d", "5", "--m", "100"]) == 1
        assert "--rho" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, capsys, tmp_path, workers):
        flag = TINY_SWEEP[:-1] + [workers]  # TINY_SWEEP ends with --workers 1
        config = tmp_path / "config"
        config.write_text(f"workers = {workers}\n")
        for args in (flag, TINY_SWEEP[:2] + ["--config", config]):
            assert run(args + ["--out", tmp_path / "o"]) == 1
            err = capsys.readouterr().err
            assert f"usage error: --workers must be at least 1, got {workers}\n" in err
        assert not (tmp_path / "o").exists()

    def test_runtime_failure_is_two(self, capsys, tmp_path):
        code = run(["plot", "--data", tmp_path / "missing.csv", "--out", tmp_path])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_empty_data_file_names_it(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["exp", "real-m", "--data", empty, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {empty}: no header row\n"


class TestBoundCommand:
    def test_prints_bound_value(self, capsys):
        assert run(["bound", "--rho", "0.5", "--d", "25", "--m", "1000", "--delta", "0.05"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.9755, abs=1e-3)

    def test_infinite_bound(self, capsys):
        assert run(["bound", "--rho", "0", "--d", "25", "--m", "1000"]) == 0
        assert capsys.readouterr().out.strip() == "+inf"

    def test_inapplicable_regime_fails(self, capsys):
        assert run(["bound", "--rho", "0.5", "--d", "100", "--m", "3"]) == 2
        assert "does not apply" in capsys.readouterr().err

    def test_writes_manifest_when_out_given(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run(["bound", "--rho", "0.5", "--d", "25", "--m", "1000", "--out", out]) == 0
        assert (out / "manifest").exists()
        assert (out / "bound.txt").read_text().startswith("1.97547")


class TestGenCommand:
    def test_generates_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert run(["gen", "--d", "4", "--m", "30", "--seed", "3", "--out", out]) == 0
        ds = load_csv(out / "dataset.csv", target_column="label", positive_value="1")
        assert ds.n_rows == 30
        assert ds.n_features == 3
        assert (out / "manifest").exists()

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen", "--d", "4", "--m", "30", "--seed", "3", "--out", a])
        run(["gen", "--d", "4", "--m", "30", "--seed", "3", "--out", b])
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


class TestTrainCommand:
    def test_synthetic_run(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = run([
            "train", "--d", "4", "--m", "40", "--t-max", "3", "--epochs", "3",
            "--seed", "5", "--out", out,
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "train_error" in stdout and "epsilon_boost" in stdout
        records = load_records_csv(out / "report.csv").records
        assert len(records) == 1
        assert records[0].params.m == 40

    def test_real_data_run(self, tmp_path, capsys):
        gen_out = tmp_path / "gen"
        run(["gen", "--d", "4", "--m", "60", "--seed", "3", "--out", gen_out])
        out = tmp_path / "t"
        code = run([
            "train", "--data", gen_out / "dataset.csv", "--t-max", "3",
            "--epochs", "3", "--seed", "5", "--out", out,
        ])
        assert code == 0
        records = load_records_csv(out / "report.csv").records
        assert records[0].params.source == "real"
        assert records[0].params.m == 30  # half of 60

    def test_real_data_quoted_target_header(self, tmp_path, capsys):
        # the default target is the first header cell as the CSV reader reads it
        path = tmp_path / "quoted.csv"
        rows = [f"{i % 2},{i / 10}" for i in range(8)]
        path.write_text("\n".join(['"label",x1'] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "t"
        code = run([
            "train", "--data", path, "--t-max", "2", "--epochs", "2", "--out", out,
        ])
        assert code == 0, capsys.readouterr().err
        assert load_records_csv(out / "report.csv").records[0].params.m == 4


    def test_an_empty_positive_value_marks_empty_target_cells(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        rows = [f"{'' if i % 2 else '0'},{i}" for i in range(6)]
        path.write_text("\n".join(["y,x"] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "t"
        args = ["train", "--data", path, "--t-max", "2", "--epochs", "2", "--out", out]
        assert run(args + ["--positive-value", ""]) == 0, capsys.readouterr().err
        assert "positive_value = \n" in (out / "manifest").read_text()
        again = tmp_path / "again"
        assert run(["train", "--config", out / "manifest", "--out", again]) == 0
        assert (again / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
        # without the flag no cell equals the default "1": one class, refused
        assert run(args) == 2
        assert "gives 0 positive and 6 negative rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["exp", "real-m"], ["exp", "real-d"]])
    def test_a_target_with_one_class_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "raw.csv"
        rows = [f"{i % 2}.0,{i},{i % 3}" for i in range(8)]  # "1.0" is not "1"
        path.write_text("\n".join(["HeartDisease,a,b"] + rows) + "\n", encoding="utf-8")
        code = run(command + ["--data", path, "--out", tmp_path / "o"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: target column 'HeartDisease' with positive value '1' gives "
            "0 positive and 8 negative rows; both classes are needed\n"
        )
        args = command + ["--data", path, "--positive-value", "1.0", "--target-column", "a"]
        assert run(args + ["--out", tmp_path / "p"]) == 2
        assert "target column 'a' with positive value '1.0' gives 0 positive and 8 negative" in (
            capsys.readouterr().err
        )


class TestExpCommand:
    def test_m_sweep_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert run(TINY_SWEEP + ["--out", out]) == 0
        assert (out / "m-sweep.csv").exists()
        assert (out / "m-sweep.svg").exists()
        assert (out / "manifest").exists()
        stdout = capsys.readouterr().out
        assert "confidence" in stdout

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(TINY_SWEEP + ["--out", a]) == 0
        assert run(TINY_SWEEP + ["--out", b]) == 0
        assert (a / "m-sweep.csv").read_bytes() == (b / "m-sweep.csv").read_bytes()
        assert (a / "m-sweep.svg").read_bytes() == (b / "m-sweep.svg").read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path, capsys):
        a, b = tmp_path / "w1", tmp_path / "w2"
        args = [x for x in TINY_SWEEP if x != "--workers"]
        assert run(TINY_SWEEP + ["--out", a]) == 0
        two = list(TINY_SWEEP)
        two[two.index("--workers") + 1] = "2"
        assert run(two + ["--out", b]) == 0
        assert (a / "m-sweep.csv").read_bytes() == (b / "m-sweep.csv").read_bytes()
        assert (a / "m-sweep.svg").read_bytes() == (b / "m-sweep.svg").read_bytes()

    def test_manifest_round_trip(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(TINY_SWEEP + ["--out", a]) == 0
        assert run(["exp", "--config", a / "manifest", "--out", b]) == 0
        assert (a / "m-sweep.csv").read_bytes() == (b / "m-sweep.csv").read_bytes()
        assert (a / "m-sweep.svg").read_bytes() == (b / "m-sweep.svg").read_bytes()

    def test_config_keys_validated(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("bogus = 1\n")
        assert run(["exp", "m-sweep", "--config", bad, "--out", tmp_path / "o"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path, capsys):
        a = tmp_path / "a"
        assert run(TINY_SWEEP + ["--out", a]) == 0
        b = tmp_path / "b"
        assert run(["exp", "--config", a / "manifest", "--m-max", "20", "--out", b]) == 0
        records = load_records_csv(b / "m-sweep.csv").records
        assert [r.params.m for r in records] == [10, 20]

    def test_t_sweep(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = run([
            "exp", "t-sweep", "--d", "3", "--m", "6", "--t-max", "4",
            "--repeats", "2", "--epochs", "2", "--seed", "7",
            "--workers", "1", "--out", out,
        ])
        assert code == 0
        records = load_records_csv(out / "t-sweep.csv").records
        assert [r.params.T for r in records] == [1, 2, 3, 4]

    def test_d_sweep(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run([
            "exp", "d-sweep", "--m", "10", "--d-min", "3", "--d-max", "5",
            "--d-step", "2", "--repeats", "1", "--t-max", "3", "--epochs", "3",
            "--seed", "7", "--workers", "1", "--out", out,
        ])
        assert code == 0
        records = load_records_csv(out / "d-sweep.csv").records
        assert [r.params.d for r in records] == [3, 5]

    def test_real_m_sweep(self, tmp_path, capsys):
        gen_out = tmp_path / "gen"
        run(["gen", "--d", "5", "--m", "120", "--seed", "3", "--out", gen_out])
        out = tmp_path / "rm"
        code = run([
            "exp", "real-m", "--data", gen_out / "dataset.csv",
            "--m-min", "20", "--m-max", "40", "--m-step", "20",
            "--repeats", "1", "--t-max", "3", "--epochs", "3",
            "--seed", "7", "--workers", "1", "--out", out,
        ])
        assert code == 0
        records = load_records_csv(out / "real-m.csv").records
        assert [r.params.m for r in records] == [20, 40]
        assert all(r.params.source == "real" for r in records)

    def test_real_d_sweep_defaults_to_all_features(self, tmp_path, capsys):
        gen_out = tmp_path / "gen"
        run(["gen", "--d", "4", "--m", "80", "--seed", "3", "--out", gen_out])
        out = tmp_path / "rd"
        code = run([
            "exp", "real-d", "--data", gen_out / "dataset.csv",
            "--repeats", "1", "--t-max", "3", "--epochs", "3",
            "--seed", "7", "--workers", "1", "--out", out,
        ])
        assert code == 0
        records = load_records_csv(out / "real-d.csv").records
        assert [r.params.d for r in records] == [2, 3, 4]

    def test_confidence_mode(self, tmp_path, capsys):
        # m >= 40 keeps every d in {25..100} inside the bound's regime
        out = tmp_path / "conf"
        code = run([
            "exp", "confidence",
            "--m-min", "40", "--m-max", "80", "--m-step", "40",
            "--d-min", "3", "--d-max", "4", "--d-step", "1",
            "--repeats", "1", "--t-max", "2", "--epochs", "2",
            "--seed", "7", "--workers", "1", "--out", out,
        ])
        assert code == 0
        table = (out / "confidence.csv").read_text().splitlines()
        assert table[0] == "label,confidence"
        assert len(table) == 9  # 4 m-sweeps + 4 d-sweeps
        for line in table[1:]:
            assert line.endswith("%")

    def test_confidence_mode_rejects_fully_inapplicable_grid(self, tmp_path, capsys):
        code = run([
            "exp", "confidence",
            "--m-min", "10", "--m-max", "20", "--m-step", "10",
            "--d-min", "3", "--d-max", "4", "--d-step", "1",
            "--repeats", "1", "--t-max", "2", "--epochs", "2",
            "--seed", "7", "--workers", "1", "--out", tmp_path / "conf",
        ])
        assert code == 2  # d=75/100 sweeps have no applicable cell at m <= 20
        assert "confidence" in capsys.readouterr().err

    def test_every_grid_is_checked_before_any_sweep_runs(self, tmp_path, capsys):
        # the four m-sweeps' grid is fine; the d-sweeps' is not
        out = tmp_path / "conf"
        code = run([
            "exp", "confidence", "--m-min", "10", "--m-max", "40", "--m-step", "30",
            "--d-min", "1", "--d-max", "90", "--d-step", "44", "--t-max", "2", "--epochs", "1",
            "--workers", "1", "--out", out,
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: d_min must be at least 2, got 1\n"
        assert [p.name for p in out.iterdir()] == ["manifest"]

    @pytest.mark.parametrize(
        "mode, expected",
        [
            # confidence runs eight sweeps, so its defaults are desk scale
            ("confidence", dict(m_min=10, m_max=2000, m_step=50,
                                d_min=5, d_max=200, d_step=15, repeats=3)),
            ("m-sweep", dict(d=25, m_min=10, m_max=10000, m_step=10, repeats=1)),
        ],
    )
    def test_default_grids(self, mode, expected):
        cfg = _resolve(_build_parser().parse_args(["exp", mode, "--out", "x"]))
        assert {k: cfg[k] for k in expected} == expected
        assert (cfg["t_max"], cfg["epochs"], cfg["seed"], cfg["delta"]) == (10, 10, 42, 0.05)

    def test_grid_failure_is_runtime_error(self, tmp_path, capsys):
        gen_out = tmp_path / "gen"
        run(["gen", "--d", "4", "--m", "20", "--seed", "3", "--out", gen_out])
        code = run([
            "exp", "real-m", "--data", gen_out / "dataset.csv",
            "--m-min", "50", "--m-max", "50", "--m-step", "1",
            "--out", tmp_path / "x",
        ])
        assert code == 2
        assert "train half" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, flags, message",
        [
            ("real-m", ["--m-step", "0"], "m_step must be at least 1, got 0"),
            ("real-m", ["--m-step", "-5"], "m_step must be at least 1, got -5"),
            ("real-d", ["--d-min", "10", "--d-max", "5"], "d_max 5 below d_min 10"),
        ],
    )
    def test_real_data_grid_is_checked(self, tmp_path, capsys, mode, flags, message):
        # the same checks and messages as the synthetic sweeps' grids
        gen_out = tmp_path / "gen"
        run(["gen", "--d", "4", "--m", "20", "--seed", "3", "--out", gen_out])
        capsys.readouterr()
        code = run([
            "exp", mode, "--data", gen_out / "dataset.csv", *flags, "--out", tmp_path / "x",
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestPlotCommand:
    def test_replots_identical_svg(self, tmp_path, capsys):
        a = tmp_path / "a"
        assert run(TINY_SWEEP + ["--out", a]) == 0
        out = tmp_path / "p"
        assert run(["plot", "--data", a / "m-sweep.csv", "--out", out]) == 0
        assert (out / "m-sweep.svg").read_bytes() == (a / "m-sweep.svg").read_bytes()

    @pytest.mark.parametrize(
        "column, text, message",
        [
            (3, "5x0", "invalid literal for int() with base 10: '5x0'"),
            (7, "abc", "could not convert string to float: 'abc'"),
            (9, "inf", "test_error inf outside [0, 1]"),
            (10, "0.5", "delta_r must equal test_error - train_error exactly"),
            (
                11, "0.001",
                "holds=true contradicts delta_r 0.4 and epsilon_boost 0.001 "
                "(an infinite ceiling always holds, a NaN one never does)",
            ),
            (12, "TRUE", "holds must be true or false, got 'TRUE'"),
            (13, "TRUE", "applicable must be true or false, got 'TRUE'"),
            (
                13, "false",
                "applicable=false contradicts epsilon_boost {epsilon_boost} "
                "(a row has a verdict exactly when its ceiling is not NaN)",
            ),
            (4, "0", "d must be at least 1, got 0"),
            (2, "-5", "T must be at least 1, got -5"),
            (7, "-0.5", "rho -0.5 outside [0, 1]"),
            (7, "7", "rho 7.0 outside [0, 1]"),
            (11, "-3", "epsilon_boost -3.0 is negative"),
        ],
    )
    def test_malformed_row_names_file_and_row(self, tmp_path, capsys, column, text, message):
        assert run(TINY_SWEEP + ["--out", tmp_path / "a"]) == 0
        header, first, second, third = (
            (tmp_path / "a" / "m-sweep.csv").read_text().splitlines()
        )
        cells = second.split(",")
        message = message.format(epsilon_boost=repr(float(cells[11])))
        cells[column] = text
        bad = tmp_path / "bad.csv"
        # the blank line still counts, so the broken row is line 4 of the file
        bad.write_text("\n".join([header, "", first, ",".join(cells), third]) + "\n")
        capsys.readouterr()
        assert run(["plot", "--data", bad, "--out", tmp_path / "p"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: row 4: {message}\n"


class TestRawDownload:
    def test_dot_zero_cells_load_and_run_as_their_integer_spelling(self, tmp_path, capsys):
        # The Heart Disease Health Indicators download writes every cell as
        # "1.0"; its first line sends it down the float parser, while the
        # integer spelling takes the integer one.
        lines = (Path(__file__).parent / "golden" / "heart.csv").read_text().splitlines(True)
        body = lines[1:] * (2 * LOAD_BLOCK_ROWS // len(lines[1:]) + 1)  # three blocks
        integer, raw = tmp_path / "integer.csv", tmp_path / "raw.csv"
        integer.write_text(lines[0] + "".join(body))
        raw.write_text(lines[0] + "".join(re.sub(r"\d+", r"\g<0>.0", line) for line in body))
        a = load_csv(integer, positive_value="1")
        b = load_csv(raw, positive_value="1.0")
        assert a.features.dtype == b.features.dtype == np.uint8
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert set(a.labels.tolist()) == {-1.0, 1.0}
        tiny = ["--m-min", "50", "--m-max", "150", "--m-step", "100", "--t-max", "3",
                "--epochs", "2", "--seed", "4", "--workers", "1"]
        for data, positive, out in ((integer, "1", "i"), (raw, "1.0", "r")):
            assert run(["exp", "real-m", "--data", data, "--positive-value", positive,
                        *tiny, "--out", tmp_path / out]) == 0
        for name in ("real-m.csv", "real-m.svg"):
            assert (tmp_path / "i" / name).read_bytes() == (tmp_path / "r" / name).read_bytes()


# Runs tiny m-sweep, real-m and plot commands through cli.dispatch in a fresh
# interpreter and prints which of the given modules they loaded.
_FOOTPRINT = """
import contextlib, io, json, sys
from boostbound import cli

out, data, workers = sys.argv[1:4]
tiny = ["--m-min", "10", "--m-max", "20", "--m-step", "10", "--t-max", "2",
        "--epochs", "1", "--workers", workers]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.dispatch(["exp", "m-sweep", "--d", "3", *tiny, "--out", out + "/m"]),
        cli.dispatch(["exp", "real-m", "--data", data, *tiny, "--out", out + "/r"]),
        cli.dispatch(["plot", "--data", out + "/r/real-m.csv", "--out", out + "/p"]),
    ]
print(json.dumps([codes, [m for m in sys.argv[4:] if m in sys.modules]]))
"""


class TestImportFootprint:
    @pytest.mark.parametrize(
        "workers, loaded", [(1, []), (2, ["concurrent.futures.process"])]
    )
    def test_a_run_loads_only_the_modules_it_uses(self, tmp_path, workers, loaded):
        # numpy.ma (which np.median and np.unique import) costs ~1.3 MB and
        # the process pool module ~2 MB of every run's resident set.
        src = str(Path(boostbound.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        heart = Path(__file__).parent / "golden" / "heart.csv"
        args = [tmp_path, heart, workers, "numpy.ma", "concurrent.futures.process"]
        done = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, *map(str, args)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(done.stdout) == [[0, 0, 0], loaded]
