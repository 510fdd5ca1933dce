"""Experiment orchestration: every verdict comes from one seeded cell.

A cell is a ``CellSpec``: the experiment it belongs to, its round count T,
training size m, VC-dimension d, delta, seed and epoch budget. Every cell
runs through one function, ``_run_cell``:

  * data  - ``_cell_data`` returns its (train, test) pair: synthetic data
            of dimension d-1 split into two halves of m rows; a seeded
            m-row subsample of a real train half (real m-sweep); the d-1
            most important columns of both real halves, in importance
            order (real d-sweep); or the ``train`` command's loaded halves
            as they are;
  * train - T boosting rounds on the train half;
  * score - one ``boosting.evaluate`` pass per half gives the staged train
            and test errors over rounds 1..T and the training margin rho.

The iteration sweep averages the staged curves of its repeats. Every other
sweep hands each cell's result to ``_verdict``, which judges the final gap
against the bound (d > e*m gives an inapplicable record).

Cell (gi, r), grid point gi and repeat r, is seeded from (master seed,
gi, r), so sweeps can run on any number of worker processes and still
merge to the same records in the same order. The swept experiments:

  * iteration sweep   - mean train/test errors per round count (no bound)
  * sample-size sweep - gap vs bound across training sizes
  * dimension sweep   - gap vs bound across base-learner VC-dimensions
  * real-data sweeps  - the same two on an ingested CSV dataset

Boosting rounds do not appear in the bound, so the m/d/real sweeps train a
fixed, configurable number of rounds per cell (default 10).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ..bound import BoundInapplicableError, check_bound, no_verdict
from ..boosting import TrainTrace, evaluate, train_adaboost
from ..data import (
    Dataset,
    SplitPair,
    SyntheticConfig,
    generate_synthetic,
    select_features,
    split_half,
)
from ..perceptron import PerceptronConfig
from ..rng import derive_seed, make_rng
from .records import SOURCE_REAL, SOURCE_SYNTHETIC, RunParams, RunRecord, SweepResult

DEFAULT_ROUNDS = 10
DEFAULT_EPOCHS = 10

# Seed namespaces under the master seed.
_NS_CELL = 0
_NS_SWEEP = 1

_REAL_M = "real-m-sweep"
_REAL_D = "real-d-sweep"
_TRAIN = "train"


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker needs to run one grid cell."""

    experiment_id: str
    source: str
    T: int
    m: int
    d: int
    delta: float
    seed: int
    epochs: int


def _elapsed_ms(t0: int) -> int:
    return max(0, (time.perf_counter_ns() - t0) // 1_000_000)


def _cell_error(spec: CellSpec, exc: Exception) -> RuntimeError:
    return RuntimeError(
        f"cell {spec.experiment_id}[T={spec.T}, m={spec.m}, d={spec.d}, "
        f"seed={spec.seed}] failed: {exc}"
    )


# The real-data halves cells draw from, and a real d-sweep's column ranking;
# _map_cells sets them in this process or in each pool worker.
_REAL_CONTEXT: dict = {}


def _set_real_context(pair: SplitPair | None, ranking: list[int] | None = None) -> None:
    _REAL_CONTEXT.clear()
    if pair is not None:
        _REAL_CONTEXT.update(train=pair.train, test=pair.test, ranking=ranking)


def _cell_data(spec: CellSpec) -> tuple[Dataset, Dataset]:
    """The (train, test) pair the cell trains and scores on."""
    if spec.source == SOURCE_SYNTHETIC:
        data = generate_synthetic(
            SyntheticConfig(
                n_features=spec.d - 1, m_total=2 * spec.m, seed=derive_seed(spec.seed, 0)
            )
        )
        pair = split_half(data, derive_seed(spec.seed, 1))
        return pair.train, pair.test
    train, test = _REAL_CONTEXT["train"], _REAL_CONTEXT["test"]
    if spec.experiment_id == _REAL_M:
        rows = make_rng(derive_seed(spec.seed, 3)).choice(
            train.n_rows, size=spec.m, replace=False
        )
        return Dataset(features=train.features[rows], labels=train.labels[rows]), test
    if spec.experiment_id == _REAL_D:
        keep = _REAL_CONTEXT["ranking"][: spec.d - 1]
        return select_features(train, keep), select_features(test, keep)
    if spec.experiment_id == _TRAIN:
        return train, test
    raise ValueError(f"no real-data cell for experiment {spec.experiment_id!r}")


def _train_on(spec: CellSpec, train: Dataset) -> TrainTrace:
    config = PerceptronConfig(epochs=spec.epochs, seed=derive_seed(spec.seed, 2))
    return train_adaboost(train, spec.T, config)


def _run_cell(spec: CellSpec) -> tuple[np.ndarray, np.ndarray, float | None, int]:
    """Train one cell and score it: staged train and test errors over rounds
    1..T, the training margin rho, and the cell's wall time in ms."""
    t0 = time.perf_counter_ns()
    try:
        train, test = _cell_data(spec)
        ensemble = _train_on(spec, train).ensemble
        train_errors, rho = evaluate(ensemble, train)
        test_errors = evaluate(ensemble, test)[0]
    except Exception as exc:
        raise _cell_error(spec, exc) from exc
    return train_errors, test_errors, rho, _elapsed_ms(t0)


def _verdict(spec: CellSpec, cell: tuple) -> RunRecord:
    """Judge a cell's final gap against the bound (d > e*m gives an
    inapplicable record)."""
    train_errors, test_errors, rho, ms = cell
    train_error, test_error = float(train_errors[-1]), float(test_errors[-1])
    try:
        report = check_bound(train_error, test_error, rho, spec.d, spec.m, spec.delta)
        applicable = True
    except BoundInapplicableError:
        report = no_verdict(train_error, test_error, rho)
        applicable = False
    return RunRecord(
        experiment_id=spec.experiment_id,
        params=RunParams(
            T=spec.T, m=spec.m, d=spec.d, delta=spec.delta, seed=spec.seed,
            source=spec.source,
        ),
        gap_report=report,
        wall_time_ms=ms,
        applicable=applicable,
    )


def _map_cells(
    specs: Sequence[CellSpec],
    workers: int,
    pair: SplitPair | None = None,
    ranking: list[int] | None = None,
) -> list:
    """Run ``_run_cell`` on ``pair``'s halves (and a d-sweep's column
    ``ranking``) and return the results in spec order, never arrival order.

    A pool gets at most one worker per cell, and the cells largest first
    (cost m * T * epochs * d, ties in spec order), so the longest cell does
    not start last and leave the other workers idle (LPT scheduling, Graham
    1969). A sweep varies only m or only d, so the cost needs no constant.
    """
    if workers <= 1 or len(specs) <= 1:
        _set_real_context(pair, ranking)
        try:
            return [_run_cell(s) for s in specs]
        finally:
            _set_real_context(None)
    order = sorted(
        range(len(specs)),
        key=lambda i: -specs[i].m * specs[i].T * specs[i].epochs * specs[i].d,
    )
    results = [None] * len(specs)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(specs)),
        initializer=_set_real_context,
        initargs=(pair, ranking),
    ) as pool:
        for i, result in zip(order, pool.map(_run_cell, [specs[i] for i in order])):
            results[i] = result
    return results


def _cell_specs(
    experiment_id: str,
    source: str,
    points: Sequence[tuple[int, int]],
    delta: float,
    master_seed: int,
    n_repeats: int,
    n_rounds: int,
    epochs: int,
) -> list[CellSpec]:
    """One spec per (grid point, repeat); grid points are (m, d)."""
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    return [
        CellSpec(
            experiment_id=experiment_id,
            source=source,
            T=n_rounds,
            m=m,
            d=d,
            delta=delta,
            seed=derive_seed(master_seed, _NS_CELL, gi, r),
            epochs=epochs,
        )
        for gi, (m, d) in enumerate(points)
        for r in range(n_repeats)
    ]


def _sweep(
    experiment_id: str,
    source: str,
    points: Sequence[tuple[int, int]],
    delta: float,
    master_seed: int,
    n_repeats: int,
    n_rounds: int,
    epochs: int,
    workers: int,
    pair: SplitPair | None = None,
    ranking: list[int] | None = None,
) -> SweepResult:
    """Gap vs bound at every (m, d) grid point, n_repeats cells each."""
    specs = _cell_specs(
        experiment_id, source, points, delta, master_seed, n_repeats, n_rounds, epochs
    )
    cells = _map_cells(specs, workers, pair, ranking)
    return SweepResult.of([_verdict(s, c) for s, c in zip(specs, cells)])


def sweep_grid(name: str, lo: int, hi: int, step: int) -> range:
    """The values lo, lo + step, ... up to hi of a swept m or d, checked."""
    if lo < 2:
        raise ValueError(f"{name}_min must be at least 2, got {lo}")
    if step < 1:
        raise ValueError(f"{name}_step must be at least 1, got {step}")
    if hi < lo:
        raise ValueError(f"{name}_max {hi} below {name}_min {lo}")
    return range(lo, hi + 1, step)


def run_sample_size_sweep(
    d: int,
    m_min: int,
    m_max: int,
    m_step: int,
    delta: float,
    master_seed: int,
    *,
    n_repeats: int = 1,
    n_rounds: int = DEFAULT_ROUNDS,
    epochs: int = DEFAULT_EPOCHS,
    workers: int = 1,
) -> SweepResult:
    """Gap vs bound across training sizes, synthetic data of dimension d-1."""
    if d < 2:
        raise ValueError("d must be at least 2 (one input feature)")
    points = [(m, d) for m in sweep_grid("m", m_min, m_max, m_step)]
    return _sweep(
        f"m-sweep-d{d}", SOURCE_SYNTHETIC, points, delta, master_seed,
        n_repeats, n_rounds, epochs, workers,
    )


def run_dimension_sweep(
    m: int,
    d_min: int,
    d_max: int,
    d_step: int,
    delta: float,
    master_seed: int,
    *,
    n_repeats: int = 1,
    n_rounds: int = DEFAULT_ROUNDS,
    epochs: int = DEFAULT_EPOCHS,
    workers: int = 1,
) -> SweepResult:
    """Gap vs bound across base-learner VC-dimensions at fixed sample size.

    Cells with d > e*m are retained as inapplicable records rather than
    failing the sweep.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    points = [(m, d) for d in sweep_grid("d", d_min, d_max, d_step)]
    return _sweep(
        f"d-sweep-m{m}", SOURCE_SYNTHETIC, points, delta, master_seed,
        n_repeats, n_rounds, epochs, workers,
    )


def run_iteration_sweep(
    d: int,
    m: int,
    t_max: int,
    n_repeats: int,
    master_seed: int,
    *,
    epochs: int = DEFAULT_EPOCHS,
    workers: int = 1,
) -> SweepResult:
    """Mean train/test errors for every round count 1..t_max.

    Each repeat draws fresh data, trains once for t_max rounds, and reads
    the error of every prefix ensemble off the trace (exactly equal to
    retraining with a smaller round count, since round seeds depend only
    on the round index). Records carry no bound verdict.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if d < 2 or m < 2:
        raise ValueError("d and m must be at least 2")
    eid = f"t-sweep-d{d}-m{m}"
    specs = _cell_specs(
        eid, SOURCE_SYNTHETIC, [(m, d)], math.nan, master_seed, n_repeats, t_max, epochs
    )
    cells = _map_cells(specs, workers)
    mean_train = np.stack([c[0] for c in cells]).mean(axis=0)
    mean_test = np.stack([c[1] for c in cells]).mean(axis=0)
    total_ms = int(sum(c[3] for c in cells))
    records = [
        RunRecord(
            experiment_id=eid,
            params=RunParams(
                T=t + 1, m=m, d=d, delta=math.nan, seed=master_seed,
                source=SOURCE_SYNTHETIC,
            ),
            gap_report=no_verdict(float(mean_train[t]), float(mean_test[t]), None),
            wall_time_ms=total_ms,
            applicable=False,
        )
        for t in range(t_max)
    ]
    return SweepResult.of(records)


def run_train_cell(
    d: int,
    m: int,
    n_rounds: int,
    epochs: int,
    delta: float,
    seed: int,
    pair: SplitPair | None = None,
) -> RunRecord:
    """The ``train`` command's one cell, seeded with ``seed`` itself.

    It trains on ``pair``'s train half and tests on its test half as they
    are (d and m must then be its feature count + 1 and train rows), or,
    without a pair, on synthetic data of dimension d-1 cut into two halves
    of m rows.
    """
    source = SOURCE_SYNTHETIC if pair is None else SOURCE_REAL
    spec = CellSpec(_TRAIN, source, n_rounds, m, d, delta, seed, epochs)
    return _verdict(spec, _map_cells([spec], 1, pair)[0])


def real_split_seed(master_seed: int) -> int:
    """Seed of the train/test split that a real-data sweep runs on."""
    return derive_seed(master_seed, _NS_SWEEP, 0)


def run_real_data(
    pair: SplitPair,
    mode: Literal["m-sweep", "d-sweep"],
    grid: Sequence[int],
    delta: float,
    master_seed: int,
    *,
    n_repeats: int = 1,
    n_rounds: int = DEFAULT_ROUNDS,
    epochs: int = DEFAULT_EPOCHS,
    workers: int = 1,
) -> SweepResult:
    """Bound verification on the train/test halves of an ingested dataset.

    m-sweep: full feature set; each cell trains on a fresh seeded
    subsample (without replacement) of the train half and tests on the
    test half. d-sweep: the train half is used whole; features are ordered
    by ensemble importance and each cell keeps the top d-1 of them. The
    CLI splits with ``real_split_seed(master_seed)``.
    """
    grid = [int(g) for g in grid]
    if not grid:
        raise ValueError("empty grid")
    if n_repeats < 1:  # before the d-sweep's ranking fit
        raise ValueError("n_repeats must be at least 1")
    train_half = pair.train
    n_features = train_half.n_features

    if mode == "m-sweep":
        if min(grid) < 2:
            raise ValueError("every m must be at least 2")
        if max(grid) > train_half.n_rows:
            raise ValueError(
                f"m={max(grid)} exceeds the train half ({train_half.n_rows} rows)"
            )
        points = [(m, n_features + 1) for m in grid]
        return _sweep(
            _REAL_M, SOURCE_REAL, points, delta, master_seed,
            n_repeats, n_rounds, epochs, workers, pair,
        )

    if mode == "d-sweep":
        if min(grid) < 2:
            raise ValueError("every d must be at least 2")
        if max(grid) > n_features + 1:
            raise ValueError(
                f"d={max(grid)} needs {max(grid) - 1} features, dataset has {n_features}"
            )
        rank_spec = CellSpec(
            experiment_id="real-d-rank",
            source=SOURCE_REAL,
            T=n_rounds,
            m=train_half.n_rows,
            d=n_features + 1,
            delta=delta,
            seed=derive_seed(master_seed, _NS_SWEEP, 1),
            epochs=epochs,
        )
        ranking = rank_features(_train_on(rank_spec, train_half), n_features)
        points = [(train_half.n_rows, d) for d in grid]
        return _sweep(
            _REAL_D, SOURCE_REAL, points, delta, master_seed,
            n_repeats, n_rounds, epochs, workers, pair, ranking,
        )

    raise ValueError(f"unknown real-data mode {mode!r}")


def feature_importances(trace: TrainTrace, n_features: int) -> np.ndarray:
    """Per-feature importance: sum over rounds of alpha * |weight|, sum-1 normalized.

    Flips never change |weight|, so they do not affect the ranking. An
    all-zero ensemble degenerates to uniform importances.
    """
    rounds = trace.ensemble.rounds
    if not rounds:
        raise ValueError("empty trace")
    if rounds[0].hypothesis.weights.shape[0] != n_features:
        raise ValueError(
            f"trace was trained on {rounds[0].hypothesis.weights.shape[0]} features, "
            f"expected {n_features}"
        )
    totals = np.zeros(n_features)
    for r in rounds:
        totals += r.alpha * np.abs(r.hypothesis.weights)
    s = float(np.sum(totals))
    if s == 0.0:
        return np.full(n_features, 1.0 / n_features)
    return totals / s


def rank_features(trace: TrainTrace, n_features: int) -> list[int]:
    """Column indices sorted by descending importance, ties by ascending index."""
    importances = feature_importances(trace, n_features)
    return [int(i) for i in np.argsort(-importances, kind="stable")]


def confidence_table(sweeps: Sequence[SweepResult]) -> list[tuple[str, str]]:
    """One (label, percentage) row per sweep, e.g. ('m-sweep-d25', '100.0%')."""
    if not sweeps:
        raise ValueError("confidence_table needs at least one sweep")
    rows = []
    for sweep in sweeps:
        if sweep.confidence is None:
            raise ValueError("sweep carries no confidence (no bound was evaluated)")
        label = sweep.records[0].experiment_id if sweep.records else "empty"
        rows.append((label, f"{100.0 * sweep.confidence:.1f}%"))
    return rows
