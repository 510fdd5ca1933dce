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
    l1_margin,
    misclassification_rate,
    staged_misclassification_rates,
    train_adaboost,
    update_distribution,
)
from .data import (
    Dataset,
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
