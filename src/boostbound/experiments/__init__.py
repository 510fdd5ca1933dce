"""Experiment sweeps, run records, display fits, and CSV/SVG emitters."""

from .emitters import CSV_HEADER, default_figure, emit_csv, emit_svg, load_records_csv
from .fitting import PolyFit, polyfit
from .records import RunParams, RunRecord, SweepResult
from .sweeps import (
    confidence_table,
    feature_importances,
    rank_features,
    real_split_seed,
    run_dimension_sweep,
    run_iteration_sweep,
    run_real_data,
    run_sample_size_sweep,
    run_train_cell,
    sweep_grid,
)
