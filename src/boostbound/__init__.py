"""Deterministic AdaBoost with perceptron weak learners, the L1-geometric
margin, the ensemble VC-dimension margin bound, and the sweep harness that
verifies the bound empirically."""

from .bound import GapReport, check_bound, epsilon_boost
from .boosting import (
    BoostRound,
    Ensemble,
    TrainTrace,
    compute_alpha,
    train_adaboost,
    update_distribution,
)
from .data import (
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    load_csv_split,
    split_half,
)
from .perceptron import (
    Distribution,
    PerceptronConfig,
    PerceptronModel,
    fit_perceptron,
    predict_many,
)
from .rng import derive_seed, make_rng

__version__ = "0.1.0"
