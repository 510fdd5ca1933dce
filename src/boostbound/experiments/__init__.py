"""Experiment sweeps, run records, display fits, and CSV/SVG emitters."""

from .emitters import (
    CSV_HEADER,
    default_figure,
    emit_csv,
    emit_svg,
    load_records_csv,
)
from .fitting import DEFAULT_FIT_ORDER, PolyFit, polyfit
from .records import (
    SOURCE_REAL,
    SOURCE_SYNTHETIC,
    RunParams,
    RunRecord,
    SweepResult,
)
from .sweeps import (
    DEFAULT_EPOCHS,
    DEFAULT_EPSILON_FLOOR,
    DEFAULT_ROUNDS,
    confidence_table,
    feature_importances,
    rank_features,
    real_split_seed,
    run_dimension_sweep,
    run_iteration_sweep,
    run_real_data,
    run_sample_size_sweep,
)

__all__ = [
    "CSV_HEADER",
    "DEFAULT_EPOCHS",
    "DEFAULT_EPSILON_FLOOR",
    "DEFAULT_FIT_ORDER",
    "DEFAULT_ROUNDS",
    "PolyFit",
    "RunParams",
    "RunRecord",
    "SOURCE_REAL",
    "SOURCE_SYNTHETIC",
    "SweepResult",
    "confidence_table",
    "default_figure",
    "emit_csv",
    "emit_svg",
    "feature_importances",
    "load_records_csv",
    "polyfit",
    "rank_features",
    "real_split_seed",
    "run_dimension_sweep",
    "run_iteration_sweep",
    "run_real_data",
    "run_sample_size_sweep",
]
