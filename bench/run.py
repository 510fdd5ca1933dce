#!/usr/bin/env python3
"""Benchmark of boostbound's experiment commands, from a repository checkout.

    python3 bench/run.py --workload synth-1w --seed 1 --seconds 30 --trace 0

Runs rounds of the workload's commands, each round in a fresh interpreter
(bench/timed_round.py), until ``--seconds`` of timed work are done; checks
every output apart from the program; and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    cell_problems, loaded_problems, parse_rows, staged_errors, svg_problems, sweep_failures,
    t_row_problems,
)
from tracing import METRICS, layer_metrics, read_spans
from workloads import WORKLOADS, CsvFacts, warmup_argvs, write_heart_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TARGET = "HeartDiseaseorAttack"
ROUND_TIMEOUT_S = 60


@dataclass
class Command:
    code: int
    stdout: str
    stderr: str


@dataclass
class Round:
    seed: int
    dir: Path
    setup: float  # interpreter start until the warm-up returned
    wall: float
    cpu: float
    rss_mb: float
    pid: int
    commands: list[Command]
    csv_facts: CsvFacts | None = None


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % 2**31)


def upper_quartile(values: list[float]) -> float:
    """The timing statistic. On a shared machine a round is now and then much
    faster than usual, when other tenants idle; how many rounds of a run that
    hits moves the median by up to a fifth, and the upper quartile less
    (bench/README.md, "Noise")."""
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def round_argvs(workload, seed: int, workers: int, rdir: Path, csv: Path | None) -> list[list[str]]:
    argvs = [s.argv(seed, workers, rdir / s.mode, csv) for s in workload.sweeps]
    if workload.tabular:
        argvs.append(["plot", "--data", str(rdir / "real-m" / "real-m.csv"), "--out", str(rdir / "plot")])
    return argvs


def run_round(workload, seed: int, rdir: Path, *, workers: int | None = None,
              span_dir: Path | None = None) -> Round:
    """Write the round's inputs, then run it in a fresh interpreter."""
    rdir.mkdir(parents=True)
    csv = tiny = facts = None
    if workload.tabular:
        csv, tiny = rdir / "heart.csv", rdir / "tiny.csv"
        facts = write_heart_csv(csv, seed)
        write_heart_csv(tiny, seed=1, rows=60)
    spec = {
        "warmup": warmup_argvs(workload, rdir / "warm", tiny),
        "argvs": round_argvs(workload, seed, workers or workload.workers, rdir, csv),
        "span_dir": None if span_dir is None else str(span_dir),
    }
    argv = [sys.executable, str(BENCH / "timed_round.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    # A session of its own, so a hung round can be killed with its pool workers.
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=str(SRC)), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"round did not finish within {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited {proc.returncode}: {stderr.strip()}")
    r = json.loads(stdout.splitlines()[-1])
    return Round(seed, rdir, r["ready"] - t0, r["wall"], r["cpu"], r["rss_mb"], r["pid"],
                 [Command(**c) for c in r["commands"]], facts)


def read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def round_failures(workload, rnd: Round) -> tuple[int, set, list[str]]:
    """Operations attempted and failed in a round, with the problems found.

    An operation is one expected CSV row of a sweep, plus the re-rendered
    figure of the tabular workload.
    """
    attempted, failed, problems = 0, set(), []
    for sweep, cmd in zip(workload.sweeps, rnd.commands):
        keys = {(sweep.mode, k) for k in sweep.grid}
        attempted += len(keys)
        if cmd.code != 0:
            failed |= keys
            problems.append(f"{sweep.mode} exited {cmd.code}: {cmd.stderr.strip()}")
            continue
        bad, msgs = sweep_failures(
            read(rnd.dir / sweep.mode / f"{sweep.mode}.csv"),
            read(rnd.dir / sweep.mode / f"{sweep.mode}.svg"),
            cmd.stdout,
            axis=sweep.axis, grid=sweep.grid, repeats=sweep.repeats,
            n_test=None if rnd.csv_facts is None else rnd.csv_facts.rows // 2,
        )
        failed |= {(sweep.mode, k) for k in bad}
        problems += [f"{sweep.mode}: {m}" for m in msgs]
    if workload.tabular:
        attempted += 1
        plot, exp_svg = rnd.commands[-1], read(rnd.dir / "real-m" / "real-m.svg")
        svg = read(rnd.dir / "plot" / "real-m.svg")
        try:
            msgs = svg_problems(svg, len(parse_rows(read(rnd.dir / "real-m" / "real-m.csv"))))
        except ValueError as exc:
            msgs = [f"CSV: {exc}"]
        if plot.code != 0:
            msgs.append(f"exited {plot.code}: {plot.stderr.strip()}")
        elif svg != exp_svg:
            msgs.append("figure re-rendered from the CSV differs from the sweep's own figure")
        if msgs:
            failed.add(("plot", 0))
            problems += [f"plot: {m}" for m in msgs]
    return attempted, failed, problems


def differing_modes(workload, a: Path, b: Path) -> list[str]:
    """Modes whose CSV or SVG bytes differ between two output trees."""
    return [
        s.mode
        for s in workload.sweeps
        if any(read(a / s.mode / f"{s.mode}.{ext}") != read(b / s.mode / f"{s.mode}.{ext}")
               for ext in ("csv", "svg"))
    ]


def rows_by(axis: str, path: Path) -> dict[int, dict]:
    """CSV rows keyed by the swept value; empty when the CSV does not parse,
    which the round's own checks have already counted as failed."""
    try:
        return {r[axis]: r for r in parse_rows(read(path))}
    except ValueError:
        return {}


def recheck_synthetic(workload, rnd: Round) -> tuple[set, list[str]]:
    """Retrain the first and last cell of each sweep and score them here."""
    from boostbound import (
        PerceptronConfig, SyntheticConfig, derive_seed, generate_synthetic, split_half,
        train_adaboost,
    )

    def halves(d: int, m: int, cell_seed: int):
        config = SyntheticConfig(n_features=d - 1, m_total=2 * m, seed=derive_seed(cell_seed, 0))
        return split_half(generate_synthetic(config), derive_seed(cell_seed, 1))

    def retrain(train, rounds: int, epochs: int, cell_seed: int):
        config = PerceptronConfig(epochs=epochs, seed=derive_seed(cell_seed, 2))
        return train_adaboost(train, rounds, config).ensemble

    failed, problems = set(), []
    for sweep in workload.sweeps:
        rows = rows_by(sweep.axis, rnd.dir / sweep.mode / f"{sweep.mode}.csv")
        ends = [k for k in (sweep.grid[0], sweep.grid[-1]) if k in rows]
        epochs = sweep.flag("epochs")
        if sweep.mode == "t-sweep":
            # t-sweep rows carry only the master seed; repeat r is the sweep's
            # cell (0, r), seeded derive_seed(master, 0, 0, r).
            curves = []
            for r in range(sweep.repeats):
                cell_seed = derive_seed(rnd.seed, 0, 0, r)
                pair = halves(sweep.flag("d"), sweep.flag("m"), cell_seed)
                ens = retrain(pair.train, sweep.flag("t-max"), epochs, cell_seed)
                curves.append((staged_errors(ens, pair.train), staged_errors(ens, pair.test)))
            train_c, test_c = (np.array([c[i] for c in curves]) for i in (0, 1))
            found = {k: t_row_problems(rows[k], train_c, test_c) for k in ends}
        else:
            found = {}
            for k in ends:
                d, m = (sweep.flag("d"), k) if sweep.axis == "m" else (k, sweep.flag("m"))
                try:
                    pair = halves(d, m, rows[k]["seed"])
                    ens = retrain(pair.train, sweep.flag("t-max"), epochs, rows[k]["seed"])
                    found[k] = cell_problems(rows[k], ens, pair.train, pair.test)
                except ValueError as exc:  # e.g. a negative seed in a corrupted row
                    found[k] = [f"cannot retrain: {exc}"]
        for k, msgs in found.items():
            if msgs:
                failed.add((sweep.mode, k))
                problems += [f"{sweep.mode} recheck {sweep.axis}={k}: {m}" for m in msgs]
    return failed, problems


def recheck_tabular(workload, rnd: Round) -> tuple[set, list[str]]:
    """Check what the program loads from the CSV, then retrain the first and
    last cell of the sweep and score them here."""
    from boostbound import (
        Dataset, PerceptronConfig, derive_seed, load_csv, make_rng, split_half, train_adaboost,
    )

    sweep = workload.sweeps[0]
    facts = rnd.csv_facts
    dataset = load_csv(rnd.dir / "heart.csv", TARGET, "1")
    problems = loaded_problems(dataset, facts.rows, facts.positives, facts.feature_sums)
    if problems:
        return {(sweep.mode, k) for k in sweep.grid}, [f"load: {m}" for m in problems]
    # run_real_data splits with derive_seed(master, 1, 0); a cell draws its
    # training rows with make_rng(derive_seed(cell seed, 3)).
    pair = split_half(dataset, derive_seed(rnd.seed, 1, 0))
    rows = rows_by("m", rnd.dir / "real-m" / "real-m.csv")
    failed = set()
    for k in [k for k in (sweep.grid[0], sweep.grid[-1]) if k in rows]:
        row = rows[k]
        try:
            rng = make_rng(derive_seed(row["seed"], 3))
            idx = rng.choice(pair.train.n_rows, size=k, replace=False)
            sub = Dataset(features=pair.train.features[idx], labels=pair.train.labels[idx])
            config = PerceptronConfig(epochs=sweep.flag("epochs"), seed=derive_seed(row["seed"], 2))
            ens = train_adaboost(sub, sweep.flag("t-max"), config).ensemble
            msgs = cell_problems(row, ens, sub, pair.test)
        except ValueError as exc:  # e.g. a negative seed in a corrupted row
            msgs = [f"cannot retrain: {exc}"]
        if msgs:
            failed.add((sweep.mode, k))
            problems += [f"real-m recheck m={k}: {m}" for m in msgs]
    return failed, problems


def first_round_failures(workload, first: Round, out: Path) -> tuple[set, list[str]]:
    """Checks too slow for every round: the tabular load and retrained cells;
    for the synthetic workloads also the same round at the other worker
    count, which must give the same bytes."""
    if workload.tabular:
        return recheck_tabular(workload, first)
    failed, problems = recheck_synthetic(workload, first)
    other = 2 if workload.workers == 1 else 1
    again = run_round(workload, first.seed, out / "other-workers", workers=other)
    if any(c.code for c in again.commands):
        differ = [s.mode for s in workload.sweeps]
    else:
        differ = differing_modes(workload, first.dir, again.dir)
    for sweep in workload.sweeps:
        if sweep.mode in differ:
            failed |= {(sweep.mode, k) for k in sweep.grid}
            problems.append(f"{sweep.mode}: outputs at --workers {other} differ "
                            f"from --workers {workload.workers}")
    return failed, problems


def machine_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "boostbound" / "__init__.py").is_file():
        print(f"error: no boostbound package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # boostbound is imported only past this check
    workload = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(machine_line())

    rounds, traced, layer_rounds = [], [], []
    attempted, failed, problems = 0, set(), []

    def account(rnd: Round) -> None:
        nonlocal attempted
        a, f, p = round_failures(workload, rnd)
        attempted += a
        failed.update((rnd.dir.name, *x) for x in f)
        problems.extend(f"{rnd.dir.name}: {m}" for m in p)
        print(f"{rnd.dir.name}: seed={rnd.seed} setup_s={rnd.setup:.4f} wall_s={rnd.wall:.4f} "
              f"cpu_s={rnd.cpu:.4f} peak_rss_mb={rnd.rss_mb:.1f} ops={a} failed={len(f)}")

    timed = 0.0
    while not rounds or timed < args.seconds:
        k = len(rounds)
        seed = round_seed(args.seed, k)
        rnd = run_round(workload, seed, out / f"round{k}")
        account(rnd)
        rounds.append(rnd)
        timed += rnd.wall
        if args.trace:
            spans = out / "spans"
            trnd = run_round(workload, seed, out / f"traced{k}", span_dir=spans)
            layer_rounds.append(layer_metrics(read_spans(spans), trnd.pid))
            account(trnd)
            traced.append(trnd)
            timed += trnd.wall
            if differing_modes(workload, rnd.dir, trnd.dir):
                failed.update((trnd.dir.name, s.mode, key) for s in workload.sweeps for key in s.grid)
                problems.append(f"{trnd.dir.name}: traced outputs differ from untraced ones")
            shutil.rmtree(trnd.dir)
        if k > 0:
            shutil.rmtree(rnd.dir)

    f, p = first_round_failures(workload, rounds[0], out)
    failed.update((rounds[0].dir.name, *x) for x in f)
    problems += [f"{rounds[0].dir.name}: {m}" for m in p]

    if args.trace:
        values = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        values["trace.overhead_s"] = statistics.median(t.wall - r.wall for r, t in zip(rounds, traced))
        metrics = {name: (values[name], unit) for name, unit, _ in METRICS}
    else:
        metrics = {
            "wall_s": (upper_quartile([r.wall for r in rounds]), "s"),
            "cpu_s": (upper_quartile([r.cpu for r in rounds]), "s"),
            "setup_s": (upper_quartile([r.setup for r in rounds]), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB"),
        }

    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    if not failed:
        shutil.rmtree(out)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
