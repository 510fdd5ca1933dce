"""Experiment orchestration: every verdict comes from one seeded cell.

A sweep is a ``SweepSpec``: its experiment id, data source, (m, d) grid
points, repeats per point, round count T, epoch budget and delta. Each
``exp`` command is a list of them (``exp confidence`` is eight), and
``run_sweeps`` runs the whole list through one pool and one largest-first
queue, then hands back one ``SweepResult`` per spec, in order.

A cell is a ``CellSpec``: the experiment it belongs to, the ``RunParams``
its record carries (round count T, training size m, VC-dimension d, delta,
seed and data source) and its epoch budget. Every cell runs through one
function, ``_run_cell``:

  * data  - ``_cell_data`` returns its (train, test) pair: synthetic data
            of dimension d-1 split into two halves of m rows; a seeded
            m-row subsample of a real train half, as float64 (real
            m-sweep); or views of the first d-1 columns of both real
            halves, which the real d-sweep holds in importance order and
            which the ``train`` command takes whole;
  * train - T boosting rounds on the train half;
  * score - one ``boosting.evaluate`` pass per half gives the staged train
            and test errors over rounds 1..T and the training margin rho,
            the cell's ``CellResult``.

A sweep without a delta judges no bound: its records are the staged errors
of each point averaged over the repeats, one per round count 1..T (the
iteration sweep). Every other sweep hands each cell's result to
``_verdict``, which judges the final gap against the bound (d > e*m gives
an inapplicable record).

Cell (gi, r) of a sweep, grid point gi and repeat r, is seeded from
(master seed, gi, r), so sweeps can run on any number of worker processes
and still merge to the same records in the same order.

Boosting rounds do not appear in the bound, so the bound sweeps train a
fixed, configurable number of rounds per cell (default 10).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..bound import GapReport, check_bound
from ..boosting import Ensemble, evaluate, train_adaboost
from ..data import (
    Dataset,
    SplitPair,
    SyntheticConfig,
    columns_in_order,
    synthetic_split,
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
    """Everything a worker needs to run one grid cell: its record's
    parameters and the epoch budget."""

    experiment_id: str
    params: RunParams
    epochs: int


@dataclass(frozen=True)
class CellResult:
    """What a cell measured: staged train and test errors over rounds 1..T
    and the training margin rho (None when every alpha is zero)."""

    train_errors: np.ndarray
    test_errors: np.ndarray
    rho: float | None


def _cell_error(spec: CellSpec, exc: Exception) -> RuntimeError:
    p = spec.params
    return RuntimeError(
        f"cell {spec.experiment_id}[T={p.T}, m={p.m}, d={p.d}, seed={p.seed}] failed: {exc}"
    )


# The real-data pair whose halves cells draw from; _map_cells sets it in this
# process or in each pool worker.
_REAL_CONTEXT: dict = {}


def _set_real_context(pair: SplitPair | None) -> None:
    _REAL_CONTEXT["pair"] = pair


def _cell_data(spec: CellSpec) -> tuple[Dataset, Dataset]:
    """The (train, test) pair the cell trains and scores on."""
    p = spec.params
    if p.source == SOURCE_SYNTHETIC:
        config = SyntheticConfig(n_features=p.d - 1, m_total=2 * p.m, seed=derive_seed(p.seed, 0))
        pair = synthetic_split(config, derive_seed(p.seed, 1))
        return pair.train, pair.test
    train, test = _REAL_CONTEXT["pair"].train, _REAL_CONTEXT["pair"].test
    if spec.experiment_id == _REAL_M:
        rows = make_rng(derive_seed(p.seed, 3)).choice(train.n_rows, size=p.m, replace=False)
        features = train.features[rows].astype(np.float64, copy=False)
        return Dataset(features=features, labels=train.labels[rows]), test
    return tuple(Dataset(h.features[:, : p.d - 1], h.labels) for h in (train, test))


def _run_cell(spec: CellSpec) -> CellResult:
    """Train one cell and score it on both halves."""
    p = spec.params
    try:
        train, test = _cell_data(spec)
        config = PerceptronConfig(epochs=spec.epochs, seed=derive_seed(p.seed, 2))
        ensemble = train_adaboost(train, p.T, config).ensemble
        train_errors, rho = evaluate(ensemble, train)
        test_errors = evaluate(ensemble, test)[0]
    except Exception as exc:
        raise _cell_error(spec, exc) from exc
    return CellResult(train_errors, test_errors, rho)


def _verdict(spec: CellSpec, cell: CellResult) -> RunRecord:
    """Judge a cell's final gap against the bound (d > e*m gives an
    inapplicable record)."""
    p = spec.params
    return RunRecord(
        experiment_id=spec.experiment_id,
        params=p,
        gap_report=check_bound(
            float(cell.train_errors[-1]), float(cell.test_errors[-1]), cell.rho, p.d, p.m, p.delta
        ),
    )


def _map_cells(
    specs: Sequence[CellSpec], workers: int, pair: SplitPair | None = None
) -> list[CellResult]:
    """Run ``_run_cell`` on ``pair``'s halves and return the results in spec
    order, never arrival order.

    A pool gets at most one worker per cell, and the cells largest first
    (cost m * T * epochs * d: the fit's row-visits times the row length,
    ties in spec order), so the longest cell does not start last and leave
    the other workers idle (LPT scheduling, Graham 1969).
    """
    if workers <= 1 or len(specs) <= 1:
        _set_real_context(pair)
        try:
            return [_run_cell(s) for s in specs]
        finally:
            _set_real_context(None)
    from concurrent.futures import ProcessPoolExecutor  # a 1-worker run never loads it
    costs = [s.params.m * s.params.T * s.epochs * s.params.d for s in specs]
    order = sorted(range(len(specs)), key=lambda i: -costs[i])
    results = [None] * len(specs)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(specs)),
        initializer=_set_real_context,
        initargs=(pair,),
    ) as pool:
        for i, result in zip(order, pool.map(_run_cell, [specs[i] for i in order])):
            results[i] = result
    return results


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: ``repeats`` cells at each (m, d) point, each training T
    rounds of ``epochs``-epoch perceptrons.

    ``delta`` is NaN for a sweep that judges no bound (the iteration
    sweep). A real-data sweep is ``real-m-sweep`` (every feature, seeded
    m-row subsamples of the train half) or ``real-d-sweep`` (the whole
    train half, the d-1 most important features), so its points hold
    d - 1 = the feature count or m = the train rows. ``run_sweeps`` checks
    real points against the halves.
    """

    experiment_id: str
    source: str
    points: tuple[tuple[int, int], ...]
    repeats: int
    T: int
    epochs: int
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError(f"{self.experiment_id} has an empty grid")
        if self.repeats < 1:
            raise ValueError(f"repeats must be at least 1, got {self.repeats}")
        for m, d in self.points:
            if d < 2:
                raise ValueError(f"d must be at least 2 (one input feature), got {d}")
            if m < 2:
                raise ValueError(f"m must be at least 2, got {m}")
        if self.source == SOURCE_REAL and self.experiment_id not in (_REAL_M, _REAL_D):
            raise ValueError(f"unknown real-data mode {self.experiment_id!r}")

    def cells(self, master_seed: int) -> list[CellSpec]:
        """One cell per (grid point gi, repeat r), seeded (master, gi, r)."""
        return [
            CellSpec(
                self.experiment_id,
                RunParams(
                    T=self.T, m=m, d=d, delta=self.delta,
                    seed=derive_seed(master_seed, _NS_CELL, gi, r), source=self.source,
                ),
                self.epochs,
            )
            for gi, (m, d) in enumerate(self.points)
            for r in range(self.repeats)
        ]


def _check_real(spec: SweepSpec, pair: SplitPair) -> None:
    """A real sweep's points fit the train half and name what its cells use:
    every feature (real-m) or every train row (real-d)."""
    rows, n = pair.train.n_rows, pair.train.n_features
    for m, d in spec.points:
        if m > rows:
            raise ValueError(f"m={m} exceeds the train half ({rows} rows)")
        if d - 1 > n:
            raise ValueError(f"d={d} needs {d - 1} features, dataset has {n}")
        if (m < rows) if spec.experiment_id == _REAL_D else (d - 1 < n):
            raise ValueError(
                f"{spec.experiment_id} point m={m}, d={d} does not use the whole "
                f"train half ({rows} rows x {n} features) along its fixed axis"
            )


def _staged_means(spec: SweepSpec, cells: Sequence[CellResult], master_seed: int) -> SweepResult:
    """Per grid point, the staged errors averaged over its repeats: one
    record per round count 1..T, seeded with the master seed, no verdict."""
    records = []
    for gi, (m, d) in enumerate(spec.points):
        group = cells[gi * spec.repeats : (gi + 1) * spec.repeats]
        mean_train = np.stack([c.train_errors for c in group]).mean(axis=0)
        mean_test = np.stack([c.test_errors for c in group]).mean(axis=0)
        records += [
            RunRecord(
                experiment_id=spec.experiment_id,
                params=RunParams(
                    T=t + 1, m=m, d=d, delta=math.nan, seed=master_seed, source=spec.source
                ),
                gap_report=GapReport(float(mean_train[t]), float(mean_test[t]), None, math.nan),
            )
            for t in range(spec.T)
        ]
    return SweepResult(records)


def run_sweeps(
    sweeps: Sequence[SweepSpec],
    master_seed: int,
    workers: int = 1,
    pair: SplitPair | None = None,
) -> list[SweepResult]:
    """Run every cell of every sweep in one ``_map_cells`` call (one pool,
    one largest-first queue) and return one result per sweep, in order.

    Real-data cells draw from ``pair``, split with
    ``real_split_seed(master_seed)`` by the CLI. Every point is checked
    before any work. A real d-sweep first ranks the features with one
    ensemble on the train half, then its cells run on column views of both
    halves in importance order (``data.columns_in_order``), which are put
    back in file order however the cells end; real d-sweeps that run
    together share that ranking, so they must share T and epochs.
    """
    for spec in sweeps:
        if spec.source == SOURCE_REAL:
            _check_real(spec, pair)
    ranked = {(s.T, s.epochs) for s in sweeps if s.experiment_id == _REAL_D}
    if len(ranked) > 1:
        raise ValueError("real d-sweeps that run together must share T and epochs")
    groups = [spec.cells(master_seed) for spec in sweeps]
    held = nullcontext(pair)
    if ranked:
        ((n_rounds, epochs),) = ranked
        config = PerceptronConfig(epochs, derive_seed(derive_seed(master_seed, _NS_SWEEP, 1), 2))
        ranking = rank_features(train_adaboost(pair.train, n_rounds, config).ensemble)
        held = columns_in_order(pair, ranking)
    with held as halves:
        done = iter(_map_cells([c for g in groups for c in g], workers, halves))
    results = []
    for spec, group in zip(sweeps, groups):
        cells = [next(done) for _ in group]
        if math.isnan(spec.delta):
            results.append(_staged_means(spec, cells, master_seed))
        else:
            results.append(SweepResult([_verdict(s, c) for s, c in zip(group, cells)]))
    return results


def sweep_grid(name: str, lo: int, hi: int, step: int) -> range:
    """The values lo, lo + step, ... up to hi of a swept m or d, checked."""
    if lo < 2:
        raise ValueError(f"{name}_min must be at least 2, got {lo}")
    if step < 1:
        raise ValueError(f"{name}_step must be at least 1, got {step}")
    if hi < lo:
        raise ValueError(f"{name}_max {hi} below {name}_min {lo}")
    return range(lo, hi + 1, step)


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
    if pair is not None and (d, m) != (pair.train.n_features + 1, pair.train.n_rows):
        raise ValueError(
            f"d={d}, m={m} disagree with the train half ({pair.train.n_rows} rows x "
            f"{pair.train.n_features} features: d={pair.train.n_features + 1}, "
            f"m={pair.train.n_rows})"
        )
    source = SOURCE_SYNTHETIC if pair is None else SOURCE_REAL
    params = RunParams(T=n_rounds, m=m, d=d, delta=delta, seed=seed, source=source)
    spec = CellSpec(_TRAIN, params, epochs)
    return _verdict(spec, _map_cells([spec], 1, pair)[0])


def real_split_seed(master_seed: int) -> int:
    """Seed of the train/test split that a real-data sweep runs on."""
    return derive_seed(master_seed, _NS_SWEEP, 0)


def feature_importances(ens: Ensemble) -> np.ndarray:
    """Per-feature importance: sum over rounds of alpha * |weight|, sum-1 normalized.

    Flips never change |weight|, so they do not affect the ranking. An
    all-zero ensemble degenerates to uniform importances.
    """
    totals = sum(r.alpha * np.abs(r.hypothesis.weights) for r in ens.rounds)
    s = float(np.sum(totals))
    if s == 0.0:
        return np.full_like(totals, 1.0 / totals.size)
    return totals / s


def rank_features(ens: Ensemble) -> list[int]:
    """Column indices sorted by descending importance, ties by ascending index."""
    return [int(i) for i in np.argsort(-feature_importances(ens), kind="stable")]


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
