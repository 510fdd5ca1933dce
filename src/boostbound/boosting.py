"""AdaBoost over perceptron weak learners.

Each round fits a perceptron against the current sample distribution,
computes its weighted error eps, the vote weight alpha = 0.5*ln((1-eps)/eps)
and normalizer z = 2*sqrt(eps*(1-eps)), then reweights the sample. Rounds
worse than chance are negated (``flipped``) so eps <= 1/2 and alpha >= 0
always; eps is clamped to the fixed floor ``EPSILON_FLOOR`` so alpha stays
finite on separable data. The new distribution is normalized by its
empirical sum rather than the closed-form z, which keeps it a probability
vector even on clamped rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .perceptron import (
    Distribution,
    PerceptronConfig,
    PerceptronModel,
    error_mass,
    fit_perceptron,
    predict_many,
)
from .rng import derive_seed

EPSILON_FLOOR = 1e-10


@dataclass(frozen=True)
class BoostRound:
    """One boosting round: hypothesis, its vote weight and error bookkeeping."""

    hypothesis: PerceptronModel
    alpha: float
    epsilon: float
    z: float
    flipped: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(f"round epsilon {self.epsilon!r} outside (0, 0.5]")
        if self.alpha < 0.0:
            raise ValueError("round alpha must be nonnegative")
        if not 0.0 < self.z <= 1.0:
            raise ValueError(f"round z {self.z!r} outside (0, 1]")


@dataclass(frozen=True)
class Ensemble:
    """Weighted vote over the rounds' hypotheses (flips already encoded)."""

    rounds: tuple[BoostRound, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", tuple(self.rounds))
        if len(self.rounds) < 1:
            raise ValueError("ensemble needs at least one round")

    @property
    def alpha_total(self) -> float:
        return float(sum(abs(r.alpha) for r in self.rounds))


@dataclass(frozen=True)
class TrainTrace:
    """What :func:`train_adaboost` returns: the final ensemble."""

    ensemble: Ensemble


def compute_alpha(epsilon: float) -> float:
    """Vote weight 0.5*ln((1-eps)/eps); positive iff eps < 1/2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1)")
    return 0.5 * math.log((1.0 - epsilon) / epsilon)


def compute_z(epsilon: float) -> float:
    """Normalizer 2*sqrt(eps*(1-eps)); equals 1 iff eps = 1/2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1)")
    return 2.0 * math.sqrt(epsilon * (1.0 - epsilon))


def update_distribution(
    dist: Distribution,
    alpha: float,
    predictions: np.ndarray,
    labels: np.ndarray,
) -> Distribution:
    """Reweight rows by exp(-alpha * y_i * h(x_i)) and renormalize."""
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    p = dist.probabilities
    if not (p.shape == predictions.shape == labels.shape):
        raise ValueError("distribution, predictions and labels must share length")
    unnormalized = p * np.exp(-alpha * labels * predictions)
    total = float(np.sum(unnormalized))
    if not total > 0.0:
        raise ValueError(
            f"unnormalized mass {total!r} after reweighting by alpha {alpha!r}; "
            "alpha must be finite and small enough that some weight survives"
        )
    return Distribution(unnormalized / total)


def train_adaboost(
    train: Dataset,
    n_rounds: int,
    weak_config: PerceptronConfig,
) -> TrainTrace:
    """Run the boosting loop for ``n_rounds`` rounds.

    Round t fits its perceptron with a seed derived from
    (weak_config.seed, t), so a longer run is an exact extension of a
    shorter one. A round whose raw weighted error exceeds 1/2 has its
    hypothesis negated and its error replaced by 1 - eps; the error is
    then clamped into [EPSILON_FLOOR, 1/2] before alpha and z.
    """
    if train.n_rows < 1:
        raise ValueError("training dataset is empty")
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")

    dist = Distribution.uniform(train.n_rows)
    rounds: list[BoostRound] = []
    for t in range(n_rounds):
        round_config = replace(weak_config, seed=derive_seed(weak_config.seed, t))
        model = fit_perceptron(train, dist, round_config)
        predictions = predict_many(model, train.features)
        raw_epsilon = error_mass(dist, predictions, train.labels)
        flipped = raw_epsilon > 0.5
        if flipped:
            predictions = -predictions
            raw_epsilon = 1.0 - raw_epsilon
        epsilon = min(max(raw_epsilon, EPSILON_FLOOR), 0.5)
        alpha = compute_alpha(epsilon)
        z = compute_z(epsilon)
        dist = update_distribution(dist, alpha, predictions, train.labels)
        rounds.append(
            BoostRound(hypothesis=model, alpha=alpha, epsilon=epsilon, z=z, flipped=flipped)
        )
    return TrainTrace(ensemble=Ensemble(tuple(rounds)))


def round_predictions(round_: BoostRound, features: np.ndarray) -> np.ndarray:
    """The round's +/-1 votes on a feature matrix, flip applied."""
    h = predict_many(round_.hypothesis, features)
    return -h if round_.flipped else h


def evaluate(ens: Ensemble, data: Dataset) -> tuple[np.ndarray, float | None]:
    """Staged errors and L1 margin of ``ens`` on ``data`` from one running vote sum.

    ``staged[t-1]`` is the misclassification rate of the prefix ensemble of
    rounds 1..t, with sign(0) = +1. That equals retraining with t rounds,
    since round t's seed depends only on (seed, t). ``rho`` is the minimum
    of |score(x_i)| / sum_t |alpha_t| over the rows of the full ensemble: it
    lies in [0, 1] since every hypothesis outputs +/-1, and is None when all
    alphas are zero (the margin is undefined; the bound treats it as an
    infinite ceiling).
    """
    if data.n_rows < 1:
        raise ValueError("dataset is empty")
    positive = data.labels > 0.0
    scores = np.zeros(data.n_rows)
    staged = np.empty(len(ens.rounds))
    for t, r in enumerate(ens.rounds):
        scores += r.alpha * round_predictions(r, data.features)
        staged[t] = np.count_nonzero((scores >= 0.0) != positive) / data.n_rows
    total = ens.alpha_total
    rho = None if total == 0.0 else float(np.min(np.abs(scores))) / total
    return staged, rho

