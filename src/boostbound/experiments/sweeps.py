"""Experiment orchestration: seeded parameter sweeps over grid cells.

Every grid cell is a pure function of its parameters and a seed derived
from (master seed, cell index), so sweeps can run on any number of worker
processes and still merge to the same records in the same order. The
swept experiments:

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
from typing import Callable, Literal, Sequence

import numpy as np

from ..bound import BoundInapplicableError, GapReport, check_bound, gap
from ..boosting import (
    TrainTrace,
    error_and_margin,
    misclassification_rate,
    staged_misclassification_rates,
    train_adaboost,
)
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
DEFAULT_EPSILON_FLOOR = 1e-10

# Seed namespaces under the master seed.
_NS_CELL = 0
_NS_SWEEP = 1


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
    epsilon_floor: float


def _elapsed_ms(t0: int) -> int:
    return max(0, (time.perf_counter_ns() - t0) // 1_000_000)


def _cell_error(spec: CellSpec, exc: Exception) -> RuntimeError:
    return RuntimeError(
        f"cell {spec.experiment_id}[T={spec.T}, m={spec.m}, d={spec.d}, "
        f"seed={spec.seed}] failed: {exc}"
    )


def _verdict_record(
    spec: CellSpec,
    train_error: float,
    test_error: float,
    rho: float | None,
    wall_ms: int,
) -> RunRecord:
    """Evaluate the bound for a finished cell; d > e*m yields an inapplicable row."""
    try:
        report = check_bound(train_error, test_error, rho, spec.d, spec.m, spec.delta)
        applicable = True
    except BoundInapplicableError:
        report = GapReport(
            train_error=train_error,
            test_error=test_error,
            delta_r=gap(train_error, test_error),
            rho=rho,
            epsilon_boost=math.nan,
            holds=False,
        )
        applicable = False
    return RunRecord(
        experiment_id=spec.experiment_id,
        params=RunParams(
            T=spec.T, m=spec.m, d=spec.d, delta=spec.delta, seed=spec.seed,
            source=spec.source,
        ),
        gap_report=report,
        wall_time_ms=wall_ms,
        applicable=applicable,
    )


def _train_on(spec: CellSpec, train: Dataset) -> TrainTrace:
    config = PerceptronConfig(epochs=spec.epochs, seed=derive_seed(spec.seed, 2))
    return train_adaboost(train, spec.T, config, spec.epsilon_floor)


def _run_synthetic_cell(spec: CellSpec) -> RunRecord:
    t0 = time.perf_counter_ns()
    try:
        data = generate_synthetic(
            SyntheticConfig(
                n_features=spec.d - 1,
                m_total=2 * spec.m,
                seed=derive_seed(spec.seed, 0),
            )
        )
        pair = split_half(data, derive_seed(spec.seed, 1))
        trace = _train_on(spec, pair.train)
        train_error, rho = error_and_margin(trace.ensemble, pair.train)
        test_error = misclassification_rate(trace.ensemble, pair.test)
    except Exception as exc:
        raise _cell_error(spec, exc) from exc
    return _verdict_record(spec, train_error, test_error, rho, _elapsed_ms(t0))


def _run_iteration_repeat(spec: CellSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """One repeat of the iteration sweep: staged error curves over 1..T."""
    t0 = time.perf_counter_ns()
    try:
        data = generate_synthetic(
            SyntheticConfig(
                n_features=spec.d - 1,
                m_total=2 * spec.m,
                seed=derive_seed(spec.seed, 0),
            )
        )
        pair = split_half(data, derive_seed(spec.seed, 1))
        trace = _train_on(spec, pair.train)
        train_curve = staged_misclassification_rates(trace, pair.train)
        test_curve = staged_misclassification_rates(trace, pair.test)
    except Exception as exc:
        raise _cell_error(spec, exc) from exc
    return train_curve, test_curve, _elapsed_ms(t0)


# Real-data context shared with worker processes (set once per worker).
_REAL_CONTEXT: dict[str, Dataset] = {}


def _set_real_context(train: Dataset, test: Dataset) -> None:
    _REAL_CONTEXT["train"] = train
    _REAL_CONTEXT["test"] = test


def _run_real_m_cell(spec: CellSpec) -> RunRecord:
    t0 = time.perf_counter_ns()
    try:
        train_half, test_half = _REAL_CONTEXT["train"], _REAL_CONTEXT["test"]
        rng = make_rng(derive_seed(spec.seed, 3))
        rows = rng.choice(train_half.n_rows, size=spec.m, replace=False)
        subsample = Dataset(
            features=train_half.features[rows],
            labels=train_half.labels[rows],
            feature_names=train_half.feature_names,
        )
        trace = _train_on(spec, subsample)
        train_error, rho = error_and_margin(trace.ensemble, subsample)
        test_error = misclassification_rate(trace.ensemble, test_half)
    except Exception as exc:
        raise _cell_error(spec, exc) from exc
    return _verdict_record(spec, train_error, test_error, rho, _elapsed_ms(t0))


def _run_real_d_cell(spec: CellSpec) -> RunRecord:
    t0 = time.perf_counter_ns()
    try:
        train_half, test_half = _REAL_CONTEXT["train"], _REAL_CONTEXT["test"]
        keep = list(range(spec.d - 1))  # context features arrive importance-ordered
        train = select_features(train_half, keep)
        test = select_features(test_half, keep)
        trace = _train_on(spec, train)
        train_error, rho = error_and_margin(trace.ensemble, train)
        test_error = misclassification_rate(trace.ensemble, test)
    except Exception as exc:
        raise _cell_error(spec, exc) from exc
    return _verdict_record(spec, train_error, test_error, rho, _elapsed_ms(t0))


def _map_cells(
    fn: Callable,
    specs: Sequence[CellSpec],
    workers: int,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> list:
    """Run cells and return their results in spec order, never arrival order.

    A pool gets the cells largest first (cost m * T * epochs, ties in spec
    order), so the longest cell does not start last and leave the other
    workers idle (LPT scheduling, Graham 1969).
    """
    if workers <= 1 or len(specs) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(s) for s in specs]
    order = sorted(
        range(len(specs)), key=lambda i: -specs[i].m * specs[i].T * specs[i].epochs
    )
    results = [None] * len(specs)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        for i, result in zip(order, pool.map(fn, [specs[i] for i in order])):
            results[i] = result
    return results


def _assemble(records: Sequence[RunRecord]) -> SweepResult:
    applicable = [r for r in records if r.applicable]
    conf = (
        sum(1 for r in applicable if r.gap_report.holds) / len(applicable)
        if applicable
        else None
    )
    return SweepResult(
        records=tuple(records),
        confidence=conf,
        inapplicable_count=len(records) - len(applicable),
    )


def _check_grid(name: str, lo: int, hi: int, step: int, minimum: int) -> range:
    if lo < minimum:
        raise ValueError(f"{name}_min must be at least {minimum}, got {lo}")
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
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR,
    workers: int = 1,
) -> SweepResult:
    """Gap vs bound across training sizes, synthetic data of dimension d-1."""
    if d < 2:
        raise ValueError("d must be at least 2 (one input feature)")
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    grid = _check_grid("m", m_min, m_max, m_step, 2)
    eid = f"m-sweep-d{d}"
    specs = [
        CellSpec(
            experiment_id=eid,
            source=SOURCE_SYNTHETIC,
            T=n_rounds,
            m=m,
            d=d,
            delta=delta,
            seed=derive_seed(master_seed, _NS_CELL, gi, r),
            epochs=epochs,
            epsilon_floor=epsilon_floor,
        )
        for gi, m in enumerate(grid)
        for r in range(n_repeats)
    ]
    return _assemble(_map_cells(_run_synthetic_cell, specs, workers))


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
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR,
    workers: int = 1,
) -> SweepResult:
    """Gap vs bound across base-learner VC-dimensions at fixed sample size.

    Cells with d > e*m are retained as inapplicable records rather than
    failing the sweep.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    grid = _check_grid("d", d_min, d_max, d_step, 2)
    eid = f"d-sweep-m{m}"
    specs = [
        CellSpec(
            experiment_id=eid,
            source=SOURCE_SYNTHETIC,
            T=n_rounds,
            m=m,
            d=d,
            delta=delta,
            seed=derive_seed(master_seed, _NS_CELL, gi, r),
            epochs=epochs,
            epsilon_floor=epsilon_floor,
        )
        for gi, d in enumerate(grid)
        for r in range(n_repeats)
    ]
    return _assemble(_map_cells(_run_synthetic_cell, specs, workers))


def run_iteration_sweep(
    d: int,
    m: int,
    t_max: int,
    n_repeats: int,
    master_seed: int,
    *,
    epochs: int = DEFAULT_EPOCHS,
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR,
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
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    if d < 2 or m < 2:
        raise ValueError("d and m must be at least 2")
    eid = f"t-sweep-d{d}-m{m}"
    specs = [
        CellSpec(
            experiment_id=eid,
            source=SOURCE_SYNTHETIC,
            T=t_max,
            m=m,
            d=d,
            delta=math.nan,
            seed=derive_seed(master_seed, _NS_CELL, 0, r),
            epochs=epochs,
            epsilon_floor=epsilon_floor,
        )
        for r in range(n_repeats)
    ]
    results = _map_cells(_run_iteration_repeat, specs, workers)
    train_curves = np.stack([r[0] for r in results])
    test_curves = np.stack([r[1] for r in results])
    total_ms = int(sum(r[2] for r in results))
    mean_train = train_curves.mean(axis=0)
    mean_test = test_curves.mean(axis=0)

    records = []
    for t in range(t_max):
        train_error = float(mean_train[t])
        test_error = float(mean_test[t])
        records.append(
            RunRecord(
                experiment_id=eid,
                params=RunParams(
                    T=t + 1, m=m, d=d, delta=math.nan, seed=master_seed,
                    source=SOURCE_SYNTHETIC,
                ),
                gap_report=GapReport(
                    train_error=train_error,
                    test_error=test_error,
                    delta_r=test_error - train_error,
                    rho=None,
                    epsilon_boost=math.nan,
                    holds=False,
                ),
                wall_time_ms=total_ms,
                applicable=False,
            )
        )
    return SweepResult(records=tuple(records), confidence=None, inapplicable_count=0)


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
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR,
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
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    train_half, test_half = pair.train, pair.test
    n_features = train_half.n_features

    if mode == "m-sweep":
        if min(grid) < 2:
            raise ValueError("every m must be at least 2")
        if max(grid) > train_half.n_rows:
            raise ValueError(
                f"m={max(grid)} exceeds the train half ({train_half.n_rows} rows)"
            )
        eid = "real-m-sweep"
        d = n_features + 1
        specs = [
            CellSpec(
                experiment_id=eid,
                source=SOURCE_REAL,
                T=n_rounds,
                m=m,
                d=d,
                delta=delta,
                seed=derive_seed(master_seed, _NS_CELL, gi, r),
                epochs=epochs,
                epsilon_floor=epsilon_floor,
            )
            for gi, m in enumerate(grid)
            for r in range(n_repeats)
        ]
        records = _map_cells(
            _run_real_m_cell,
            specs,
            workers,
            initializer=_set_real_context,
            initargs=(train_half, test_half),
        )
        return _assemble(records)

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
            epsilon_floor=epsilon_floor,
        )
        ranking_trace = _train_on(rank_spec, train_half)
        order = rank_features(ranking_trace, n_features)
        train_ordered = select_features(train_half, order)
        test_ordered = select_features(test_half, order)

        eid = "real-d-sweep"
        specs = [
            CellSpec(
                experiment_id=eid,
                source=SOURCE_REAL,
                T=n_rounds,
                m=train_half.n_rows,
                d=d,
                delta=delta,
                seed=derive_seed(master_seed, _NS_CELL, gi, r),
                epochs=epochs,
                epsilon_floor=epsilon_floor,
            )
            for gi, d in enumerate(grid)
            for r in range(n_repeats)
        ]
        records = _map_cells(
            _run_real_d_cell,
            specs,
            workers,
            initializer=_set_real_context,
            initargs=(train_ordered, test_ordered),
        )
        return _assemble(records)

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
