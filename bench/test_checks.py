"""The benchmark's checks must pass real outputs and reject corrupted ones.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from boostbound import load_csv  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Sweep, Workload  # noqa: E402

TINY = (("t-max", 4), ("epochs", 2), ("repeats", 1))
TINY_SYNTH = Workload("tiny-synth", 1, (
    Sweep("m-sweep", (("d", 5), ("m-min", 10), ("m-max", 70), ("m-step", 30), *TINY)),
    # m=10 puts d=30 and d=40 past e*m: those rows are inapplicable.
    Sweep("d-sweep", (("m", 10), ("d-min", 10), ("d-max", 40), ("d-step", 10), *TINY)),
    Sweep("t-sweep", (("d", 5), ("m", 30), ("t-max", 6), ("epochs", 2), ("repeats", 2))),
), False)
TINY_REAL = Workload("tiny-real", 1, (
    Sweep("real-m", (("m-min", 20), ("m-max", 80), ("m-step", 30), *TINY)),
), True)


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    return run.run_round(TINY_SYNTH, 7, tmp_path_factory.mktemp("synth") / "round0")


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "write_heart_csv", functools.partial(workloads.write_heart_csv, rows=400))
        return run.run_round(TINY_REAL, 7, tmp_path_factory.mktemp("real") / "round0")


def outputs(rnd, mode):
    d = rnd.dir / mode
    cmd = rnd.commands[[s.mode for s in TINY_SYNTH.sweeps].index(mode)]
    return (d / f"{mode}.csv").read_text(), (d / f"{mode}.svg").read_text(), cmd.stdout


def sweep_of(workload, mode):
    return next(s for s in workload.sweeps if s.mode == mode)


def failures(workload, mode, csv, svg, stdout, n_test=None):
    s = sweep_of(workload, mode)
    return checks.sweep_failures(csv, svg, stdout, axis=s.axis, grid=s.grid,
                                 n_test=n_test, repeats=s.repeats)


def set_cell(csv, row, column, value):
    lines = csv.splitlines()
    cells = lines[row].split(",")
    cells[checks.HEADER.index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def cell(csv, row, column):
    return csv.splitlines()[row].split(",")[checks.HEADER.index(column)]


def test_real_outputs_pass(synth, real):
    for mode in ("m-sweep", "d-sweep", "t-sweep"):
        assert failures(TINY_SYNTH, mode, *outputs(synth, mode)) == (set(), [])
    assert run.round_failures(TINY_SYNTH, synth)[1:] == (set(), [])
    assert run.round_failures(TINY_REAL, real)[1:] == (set(), [])
    rows = checks.parse_rows(outputs(synth, "d-sweep")[0])
    assert [r["applicable"] for r in rows] == [True, True, False, False]


@pytest.mark.parametrize("column, value", [
    ("holds", "false"),
    ("epsilon_boost", None),  # perturbed in its 10th digit
    ("delta_r", None),  # one ulp off
    ("train_error", "0.123456789"),
    ("applicable", "false"),
    ("rho", "1.25"),
    ("train_error", "nan"),
    ("d", "0"),
])
def test_a_corrupted_cell_fails_its_row(synth, column, value):
    csv, svg, stdout = outputs(synth, "m-sweep")
    if value is None:
        v = float(cell(csv, 1, column))
        value = repr(v * (1 + 1e-9) if column == "epsilon_boost" else math.nextafter(v, 2.0))
    failed, problems = failures(TINY_SYNTH, "m-sweep", set_cell(csv, 1, column, value), svg, stdout)
    assert 10 in failed and problems


def test_inapplicable_and_verdictless_rows_are_checked(synth):
    csv, svg, stdout = outputs(synth, "d-sweep")
    bad = set_cell(csv, 4, "epsilon_boost", "3.5")  # d=40 > e*10 has no bound
    assert 40 in failures(TINY_SYNTH, "d-sweep", bad, svg, stdout)[0]
    csv, svg, stdout = outputs(synth, "t-sweep")
    bad = set_cell(csv, 2, "holds", "true")
    assert 2 in failures(TINY_SYNTH, "t-sweep", bad, svg, stdout)[0]
    bad = set_cell(csv, 2, "train_error", repr(float(cell(csv, 2, "train_error")) + 0.25 / 30))
    assert 2 in failures(TINY_SYNTH, "t-sweep", bad, svg, stdout)[0]


def test_a_dropped_or_repeated_row_fails(synth):
    csv, svg, stdout = outputs(synth, "m-sweep")
    lines = csv.splitlines()
    dropped = "\n".join(lines[:2] + lines[3:]) + "\n"
    failed, _ = failures(TINY_SYNTH, "m-sweep", dropped, svg, stdout)
    assert 40 in failed
    repeated = "\n".join(lines + [lines[1]]) + "\n"
    assert 10 in failures(TINY_SYNTH, "m-sweep", repeated, svg, stdout)[0]


def test_a_wrong_confidence_or_figure_fails_the_sweep(synth):
    csv, svg, stdout = outputs(synth, "m-sweep")
    grid = set(sweep_of(TINY_SYNTH, "m-sweep").grid)
    assert "confidence = 100.0%" in stdout
    wrong = stdout.replace("confidence = 100.0%", "confidence = 75.0%")
    assert failures(TINY_SYNTH, "m-sweep", csv, svg, wrong)[0] == grid
    one_less = svg.replace("<circle", "<ellipse", 1)
    assert failures(TINY_SYNTH, "m-sweep", csv, one_less, stdout)[0] == grid
    assert failures(TINY_SYNTH, "m-sweep", csv, svg[:-20], stdout)[0] == grid


def test_a_changed_byte_between_worker_counts_is_found(synth, tmp_path):
    copy = tmp_path / "copy"
    for s in TINY_SYNTH.sweeps:
        (copy / s.mode).mkdir(parents=True)
        for ext in ("csv", "svg"):
            name = f"{s.mode}.{ext}"
            (copy / s.mode / name).write_bytes((synth.dir / s.mode / name).read_bytes())
    assert run.differing_modes(TINY_SYNTH, synth.dir, copy) == []
    svg = copy / "d-sweep" / "d-sweep.svg"
    svg.write_text(svg.read_text().replace('r="3"', 'r="4"', 1))
    assert run.differing_modes(TINY_SYNTH, synth.dir, copy) == ["d-sweep"]


def test_retraining_catches_a_wrong_but_consistent_row(synth):
    assert run.recheck_synthetic(TINY_SYNTH, synth) == (set(), [])
    path = synth.dir / "m-sweep" / "m-sweep.csv"
    csv = path.read_text()
    try:
        # Another count of train errors, with delta_r and holds kept consistent.
        row = checks.parse_rows(csv)[-1]
        tr = row["train_error"] + (1 if row["train_error"] < 0.5 else -1) / row["m"]
        bad = set_cell(csv, 3, "train_error", repr(tr))
        bad = set_cell(bad, 3, "delta_r", repr(row["test_error"] - tr))
        assert failures(TINY_SYNTH, "m-sweep", bad, *outputs(synth, "m-sweep")[1:])[0] == set()
        path.write_text(bad)
        failed, problems = run.recheck_synthetic(TINY_SYNTH, synth)
        assert failed == {("m-sweep", 70)} and problems
        path.write_text(set_cell(csv, 3, "seed", "-5"))
        assert run.recheck_synthetic(TINY_SYNTH, synth)[0] == {("m-sweep", 70)}
    finally:
        path.write_text(csv)
    path = synth.dir / "t-sweep" / "t-sweep.csv"
    csv = path.read_text()
    try:
        path.write_text(set_cell(csv, 6, "test_error", repr(float(cell(csv, 6, "test_error")) + 0.5 / 30)))
        assert run.recheck_synthetic(TINY_SYNTH, synth)[0] == {("t-sweep", 6)}
    finally:
        path.write_text(csv)


def test_tabular_rechecks(real):
    assert run.recheck_tabular(TINY_REAL, real) == (set(), [])
    path = real.dir / "real-m" / "real-m.csv"
    csv = path.read_text()
    try:
        path.write_text(set_cell(csv, 1, "rho", repr(float(cell(csv, 1, "rho")) * 1.001)))
        assert run.recheck_tabular(TINY_REAL, real)[0] == {("real-m", 20)}
    finally:
        path.write_text(csv)
    facts = real.csv_facts
    dataset = load_csv(real.dir / "heart.csv", run.TARGET, "1")
    assert checks.loaded_problems(dataset, facts.rows, facts.positives, facts.feature_sums) == []
    assert checks.loaded_problems(dataset, facts.rows - 1, facts.positives, facts.feature_sums)
    assert checks.loaded_problems(dataset, facts.rows, facts.positives + 1, facts.feature_sums)


def test_a_replot_that_differs_fails(real):
    path = real.dir / "plot" / "real-m.svg"
    svg = path.read_text()
    try:
        path.write_text(svg.replace("#1f77b4", "#1f77b5"))
        assert ("plot", 0) in run.round_failures(TINY_REAL, real)[1]
    finally:
        path.write_text(svg)


def test_epsilon_reference_matches_the_closed_form():
    rho, d, m, delta = 0.5, 25, 1000, 0.05
    want = (2 / rho) * math.sqrt(2 * d * math.log(math.e * m / d) / m) + math.sqrt(
        math.log(1 / delta) / (2 * m))
    assert checks.epsilon_reference(rho, d, m, delta) == pytest.approx(want, rel=1e-14)
    assert checks.epsilon_reference(0.0, d, m, delta) == math.inf
    assert checks.bound_applies(27, 10) and not checks.bound_applies(28, 10)


MAIN = 100


def span(name, start, end, sid, parent=None, pid=MAIN, extra=0):
    return tracing.Span(pid, name, start, end, sid, parent, extra)


def test_cells_group_spans_around_each_training():
    synthetic = [span(n, i * 10, i * 10 + 5, i) for i, n in enumerate([
        "generate_synthetic", "split_half", "train_adaboost", "misclassification_rate",
        "l1_margin", "check_bound", "generate_synthetic", "split_half", "train_adaboost",
        "staged_misclassification_rates"])]
    assert tracing.cells(synthetic) == [(0, 55), (60, 95)]
    real_m = [span(n, i * 10, i * 10 + 5, i) for i, n in enumerate([
        "split_half", "train_adaboost", "misclassification_rate", "train_adaboost", "l1_margin"])]
    assert tracing.cells(real_m) == [(10, 25), (30, 45)]


def test_layer_metrics_self_time_and_tail():
    spans = [
        span("dispatch", 0, 100, 0),
        span("run_sample_size_sweep", 10, 90, 1, parent=0, extra=2),
        span("train_adaboost", 20, 60, 0, pid=MAIN + 1),
        span("fit_perceptron", 25, 45, 1, parent=0, pid=MAIN + 1, extra=200),
        span("train_adaboost", 20, 80, 0, pid=MAIN + 2),
        span("emit_csv", 92, 95, 2, parent=0),
    ]
    got = tracing.layer_metrics(spans, MAIN)
    assert got["cli.self_s"] == pytest.approx((100 - 80 - 3) / 1e9)
    assert got["boosting.round_self_s"] == pytest.approx((40 - 20 + 60) / 1e9)
    assert got["perceptron.ns_per_visit"] == pytest.approx(0.1)
    assert got["sweeps.cell_busy_s"] == pytest.approx(100 / 1e9)
    assert got["sweeps.first_cell_wait_s"] == pytest.approx(10 / 1e9)
    assert got["sweeps.tail_s"] == pytest.approx(20 / 1e9)
    assert got["sweeps.utilisation"] == pytest.approx(100 / 160)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
