"""The benchmark's workloads: the commands each one times, the inputs it
generates, and the tiny warm-up call that ``setup_s`` includes."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# exp mode -> the CSV column its grid runs over.
AXIS = {"m-sweep": "m", "d-sweep": "d", "t-sweep": "T", "real-m": "m"}


@dataclass(frozen=True)
class Sweep:
    """One ``boostbound exp`` command at a fixed grid.

    ``flags`` holds every size flag the command gets (seed, workers, out
    and data are added per run), so the checks can rebuild any cell.
    """

    mode: str
    flags: tuple[tuple[str, int], ...]

    def flag(self, name: str) -> int:
        return dict(self.flags)[name]

    @property
    def axis(self) -> str:
        return AXIS[self.mode]

    @property
    def grid(self) -> list[int]:
        if self.mode == "t-sweep":
            return list(range(1, self.flag("t-max") + 1))
        a = self.axis
        return list(range(self.flag(f"{a}-min"), self.flag(f"{a}-max") + 1, self.flag(f"{a}-step")))

    @property
    def repeats(self) -> int:
        return self.flag("repeats")

    def argv(self, seed: int, workers: int, out: Path, data: Path | None = None) -> list[str]:
        argv = ["exp", self.mode]
        for name, value in self.flags:
            argv += [f"--{name}", str(value)]
        argv += ["--seed", str(seed), "--workers", str(workers), "--out", str(out)]
        if data is not None:
            argv += ["--data", str(data)]
        return argv


SYNTHETIC_SWEEPS = (
    Sweep("m-sweep", (("d", 25), ("m-min", 10), ("m-max", 2010), ("m-step", 500),
                      ("t-max", 10), ("epochs", 10), ("repeats", 1))),
    Sweep("d-sweep", (("m", 500), ("d-min", 5), ("d-max", 200), ("d-step", 65),
                      ("t-max", 10), ("epochs", 10), ("repeats", 1))),
    Sweep("t-sweep", (("d", 25), ("m", 50), ("t-max", 100), ("epochs", 10),
                      ("repeats", 2))),
)
REAL_SWEEP = Sweep("real-m", (("m-min", 50), ("m-max", 2050), ("m-step", 1000),
                              ("t-max", 10), ("epochs", 10), ("repeats", 1)))


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    sweeps: tuple[Sweep, ...]
    tabular: bool  # a generated CSV per round, then `plot` from the sweep's CSV


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-1w", 1, SYNTHETIC_SWEEPS, False),
        Workload("synth-2w", 2, SYNTHETIC_SWEEPS, False),
        Workload("tabular-csv", 1, (REAL_SWEEP,), True),
    )
}

# The Heart Disease Health Indicators layout: binary target first, then 21
# small-integer features with their value ranges.
HEART_COLUMNS = (
    ("HeartDiseaseorAttack", 0, 1),
    ("HighBP", 0, 1), ("HighChol", 0, 1), ("CholCheck", 0, 1), ("BMI", 12, 98),
    ("Smoker", 0, 1), ("Stroke", 0, 1), ("Diabetes", 0, 2), ("PhysActivity", 0, 1),
    ("Fruits", 0, 1), ("Veggies", 0, 1), ("HvyAlcoholConsump", 0, 1),
    ("AnyHealthcare", 0, 1), ("NoDocbcCost", 0, 1), ("GenHlth", 1, 5),
    ("MentHlth", 0, 30), ("PhysHlth", 0, 30), ("DiffWalk", 0, 1), ("Sex", 0, 1),
    ("Age", 1, 13), ("Education", 1, 6), ("Income", 1, 8),
)
HEART_ROWS = 253_680
POSITIVE_RATE = 0.094
_CHUNK_ROWS = 16_384


@dataclass(frozen=True)
class CsvFacts:
    """What the generator wrote, for checking what the program loaded."""

    rows: int
    positives: int
    feature_sums: tuple[int, ...]


def write_heart_csv(path: Path, seed: int, rows: int = HEART_ROWS) -> CsvFacts:
    """Write a heart-disease-shaped CSV drawn from ``seed``.

    Labels are 1 with probability POSITIVE_RATE. Each feature is uniform
    over its range, skewed upward for positive rows (u ** 0.6 in place of
    u), so the label is learnable but noisy. Cells are rendered as digit
    bytes with numpy, in chunks, so writing takes a fraction of the time
    and memory that loading the file takes.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lo = np.array([c[1] for c in HEART_COLUMNS[1:]])
    width = np.array([c[2] - c[1] + 1 for c in HEART_COLUMNS[1:]])
    positives = 0
    sums = np.zeros(len(lo), dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write((",".join(c[0] for c in HEART_COLUMNS) + "\n").encode())
        for start in range(0, rows, _CHUNK_ROWS):
            n = min(_CHUNK_ROWS, rows - start)
            y = (rng.uniform(size=n) < POSITIVE_RATE).astype(np.int64)
            u = rng.uniform(size=(n, len(lo)))
            u = np.where(y[:, None] == 1, u ** 0.6, u)
            x = lo + np.minimum((u * width).astype(np.int64), width - 1)
            positives += int(y.sum())
            sums += x.sum(axis=0)
            fh.write(_render(np.column_stack([y, x])))
        fh.flush()
        os.fsync(fh.fileno())  # write back now, not while a timed round reads it
    return CsvFacts(rows, positives, tuple(int(s) for s in sums))


def _render(values: np.ndarray) -> bytes:
    """CSV lines of non-negative integers below 100, without leading zeros."""
    cells = np.zeros(values.shape + (3,), dtype=np.uint8)
    cells[..., 0] = np.where(values >= 10, ord("0") + values // 10, 0)  # 0: no byte
    cells[..., 1] = ord("0") + values % 10
    cells[..., 2] = ord(",")
    cells[:, -1, 2] = ord("\n")
    flat = cells.ravel()
    return flat[flat != 0].tobytes()


def warmup_argvs(workload: Workload, out: Path, csv: Path | None) -> list[list[str]]:
    """A tiny call through every layer the workload's timed commands use."""
    tiny = [("t-max", 2), ("epochs", 1), ("repeats", 1)]
    if workload.tabular:
        sweep = Sweep("real-m", (("m-min", 10), ("m-max", 20), ("m-step", 10), *tiny))
        return [
            sweep.argv(1, workload.workers, out / "real-m", csv),
            ["plot", "--data", str(out / "real-m" / "real-m.csv"), "--out", str(out / "plot")],
        ]
    sweep = Sweep("m-sweep", (("d", 3), ("m-min", 10), ("m-max", 20), ("m-step", 10), *tiny))
    return [sweep.argv(1, workload.workers, out / "m-sweep")]
