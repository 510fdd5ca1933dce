"""Deterministic AdaBoost with perceptron weak learners, the L1-geometric
margin, the ensemble VC-dimension margin bound, and the sweep harness that
verifies the bound empirically."""

from .bound import (
    BoundInapplicableError,
    BoundInput,
    GapReport,
    check_bound,
    confidence,
    epsilon_boost,
    gap,
)
from .boosting import (
    BoostRound,
    Ensemble,
    TrainTrace,
    compute_alpha,
    compute_z,
    ensemble_predict,
    ensemble_score,
    ensemble_scores,
    l1_margin,
    misclassification_rate,
    staged_misclassification_rates,
    train_adaboost,
    update_distribution,
)
from .data import (
    Dataset,
    SplitPair,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    load_csv_split,
    select_features,
    split_half,
)
from .perceptron import (
    Distribution,
    PerceptronConfig,
    PerceptronModel,
    fit_perceptron,
    predict,
    predict_many,
    weighted_error,
)
from .rng import derive_seed, make_rng

__version__ = "0.1.0"

__all__ = [
    "BoostRound",
    "BoundInapplicableError",
    "BoundInput",
    "Dataset",
    "Distribution",
    "Ensemble",
    "GapReport",
    "PerceptronConfig",
    "PerceptronModel",
    "SplitPair",
    "SyntheticConfig",
    "TrainTrace",
    "check_bound",
    "compute_alpha",
    "compute_z",
    "confidence",
    "derive_seed",
    "ensemble_predict",
    "ensemble_score",
    "ensemble_scores",
    "epsilon_boost",
    "fit_perceptron",
    "gap",
    "generate_synthetic",
    "l1_margin",
    "load_csv",
    "load_csv_split",
    "make_rng",
    "misclassification_rate",
    "predict",
    "predict_many",
    "select_features",
    "split_half",
    "staged_misclassification_rates",
    "train_adaboost",
    "update_distribution",
    "weighted_error",
]
