"""Golden outputs: what each CLI command writes and prints, byte for byte.

Each case runs one ``boostbound`` command and compares every file it wrote
(except ``manifest``, which names the output directory) and its stdout
(with the output directory replaced by ``<out>``) with the files under
``tests/golden/<case>/``. ``exp`` cases run at one and at two workers
against the same files. ``heart.csv`` is a 600-row heart-disease-shaped
CSV that the real-data cases load, written by ``bench/workloads.py``
``write_heart_csv`` (seed 10) with ``POSITIVE_RATE`` set to 0.5. With half
the labels positive the ensembles do not all predict one class, so delta_r
varies across each real-data sweep and its fitted line is not rounding
noise that the SVG's y-range would stretch into a different plot for each
BLAS kernel. ``real-d-flat.csv`` is a real-d sweep whose delta_r is the same
in every row (its ensembles all predict the majority class of a 9%-positive
CSV); ``plot-flat`` pins that such a sweep gets an exactly constant fit.
``real-d-near.csv`` is a real-d sweep whose delta_r differ only in the last
bits (0.0967 - 0.0867, 0.11 - 0.1 and 0.31 - 0.3); ``plot-near`` pins that
such a sweep is drawn as flat, with one horizontal fit line, the same under
every BLAS kernel.

``python tests/test_golden.py`` rewrites the goldens from the current code.
Do that only in a change that means to alter output bytes, and say so in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from boostbound.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"
HEART = GOLDEN / "heart.csv"

# case -> argv without --out; "exp" cases also get --workers.
CASES = {
    "train-d5": ["train", "--d", "5", "--m", "40", "--t-max", "3", "--epochs", "2"],
    "train-d200": ["train", "--d", "200", "--m", "20", "--t-max", "2", "--epochs", "1"],
    "train-data": ["train", "--data", HEART, "--t-max", "3", "--epochs", "2"],
    "m-sweep": [
        "exp", "m-sweep", "--d", "5", "--m-min", "10", "--m-max", "60", "--m-step", "25",
        "--t-max", "3", "--epochs", "2", "--repeats", "2",
    ],
    "d-sweep": [
        "exp", "d-sweep", "--m", "20", "--d-min", "2", "--d-max", "80", "--d-step", "26",
        "--t-max", "3", "--epochs", "2",
    ],
    "t-sweep": [
        "exp", "t-sweep", "--d", "5", "--m", "30", "--t-max", "5", "--epochs", "2",
        "--repeats", "2",
    ],
    "confidence": [
        "exp", "confidence", "--m-min", "10", "--m-max", "40", "--m-step", "30",
        "--d-min", "2", "--d-max", "90", "--d-step", "44", "--t-max", "2", "--epochs", "1",
    ],
    "real-m": [
        "exp", "real-m", "--data", HEART, "--m-min", "50", "--m-max", "300",
        "--m-step", "125", "--t-max", "3", "--epochs", "2", "--repeats", "2",
    ],
    "real-d": [
        "exp", "real-d", "--data", HEART, "--d-min", "2", "--d-max", "22",
        "--d-step", "10", "--t-max", "3", "--epochs", "2",
    ],
    "plot": ["plot", "--data", GOLDEN / "real-m" / "real-m.csv"],
    "plot-flat": ["plot", "--data", GOLDEN / "real-d-flat.csv"],
    "plot-near": ["plot", "--data", GOLDEN / "real-d-near.csv"],
}


def worker_counts(case: str) -> tuple:
    return (1, 2) if CASES[case][0] == "exp" else (None,)


RUNS = [(case, workers) for case in CASES for workers in worker_counts(case)]


def produce(case: str, out: Path, workers: int | None) -> dict[str, bytes]:
    """Run one case into ``out``; its files (manifest aside) and stdout."""
    argv = [str(a) for a in CASES[case]] + ["--out", str(out)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = dispatch(argv)
    if code != 0:
        raise RuntimeError(f"{case}: exit code {code}")
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest"}
    files["stdout.txt"] = stdout.getvalue().replace(str(out), "<out>").encode()
    return files


@pytest.mark.parametrize("case, workers", RUNS)
def test_matches_golden(case, workers, tmp_path):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    got = produce(case, tmp_path / case, workers)
    assert sorted(got) == sorted(expected)
    for name in sorted(expected):
        assert got[name] == expected[name], f"{case}/{name} differs"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            target = GOLDEN / case
            target.mkdir(exist_ok=True)
            for p in target.iterdir():
                p.unlink()
            for name, data in produce(case, Path(tmp) / case, worker_counts(case)[0]).items():
                (target / name).write_bytes(data)
            print(f"wrote {target}", file=sys.stderr)
