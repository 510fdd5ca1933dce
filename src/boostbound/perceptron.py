"""Weighted perceptron weak learner.

Training runs a fixed number of epochs over seeded shuffles of the rows;
a misclassified row i moves the parameters by ``m * D(i) * y_i`` times the
row (and 1 for the bias), so under the uniform distribution the update is
the classic unit-step perceptron. sign(0) is +1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .rng import make_rng


@dataclass(frozen=True)
class PerceptronModel:
    """Linear threshold unit: predicts sign(weights . x + bias)."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64).ravel()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")


@dataclass(frozen=True)
class Distribution:
    """Probability weights over training rows: nonnegative, summing to 1."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.probabilities, dtype=np.float64).ravel()
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        if p.size == 0:
            raise ValueError("distribution must be nonempty")
        if np.any(p < 0.0):
            raise ValueError("distribution entries must be nonnegative")
        total = float(np.sum(p))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {total!r}, expected 1 within 1e-9")

    @classmethod
    def uniform(cls, m: int) -> "Distribution":
        if m < 1:
            raise ValueError("m must be positive")
        return cls(np.full(m, 1.0 / m))


@dataclass(frozen=True)
class PerceptronConfig:
    epochs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


def fit_perceptron(
    train: Dataset, dist: Distribution, config: PerceptronConfig
) -> PerceptronModel:
    """Train a perceptron under a sample-weight distribution.

    Weights and bias start at zero. Each epoch visits the rows in a fresh
    seeded shuffle; rows with zero weight produce zero-magnitude updates
    and therefore never change the model.

    Before the epochs the fit precomputes the update rows ``step[i] * x_i``
    (the same elementwise products a visit would form), the steps and
    labels as Python floats, and a list of row views. A visit scores with
    ``row.dot(w)``, one ``ddot`` per row as in :func:`predict_many`, so the
    weights and bias are bit for bit those of the per-visit loop that
    ``tests/test_perceptron.py`` keeps as its oracle. A uint8 matrix is
    converted to float64 once, first; a float64 one is used as it is.
    """
    X, y = np.asarray(train.features, dtype=np.float64), train.labels
    m, n = X.shape
    if dist.probabilities.shape[0] != m:
        raise ValueError(
            f"distribution length {dist.probabilities.shape[0]} != row count {m}"
        )
    rng = make_rng(config.seed)
    step = m * dist.probabilities * y
    moves = step[:, None] * X
    rows = list(X)
    steps, labels = step.tolist(), y.tolist()
    w = np.zeros(n)
    b = 0.0
    for _ in range(config.epochs):
        for i in rng.permutation(m).tolist():
            pred = 1.0 if rows[i].dot(w) + b >= 0.0 else -1.0
            if pred != labels[i]:
                w += moves[i]
                b += steps[i]
    return PerceptronModel(weights=w, bias=b)


def predict_many(model: PerceptronModel, features: np.ndarray) -> np.ndarray:
    """Vectorized predict over a feature matrix; returns a float vector of +/-1.

    ``np.vecdot`` scores each row with the fit's single-threaded ``ddot``, so
    the scores are the fit's bit for bit, whatever the BLAS thread count.
    """
    if features.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"input dimension {features.shape[1]} != model dimension "
            f"{model.weights.shape[0]}"
        )
    scores = np.vecdot(features, model.weights) + model.bias
    return np.where(scores >= 0.0, 1.0, -1.0)


def error_mass(dist: Distribution, predictions: np.ndarray, labels: np.ndarray) -> float:
    """Probability mass of the rows where ``predictions`` differ from ``labels``."""
    # A distribution may sum to 1 + (a few ulps); a probability may not.
    return min(float(np.sum(dist.probabilities[predictions != labels])), 1.0)
