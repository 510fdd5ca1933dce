"""Ensemble VC-dimension margin bound and generalization-gap verdicts.

For a base family of VC-dimension d, a training sample of size m, an
L1-geometric margin rho and failure probability delta, the gap between
test and training misclassification rates is bounded (with probability at
least 1 - delta) by

    epsilon_boost = (2/rho) * sqrt(2*d*ln(e*m/d) / m) + sqrt(ln(1/delta) / (2*m))

with natural logarithms. rho = 0 (or an undefined margin) makes the
ceiling +inf, so the inequality holds vacuously; d > e*m makes the first
radicand negative, and the ceiling is NaN: the bound does not apply and
the cell has no verdict. A report is its four measured numbers; its gap
delta_r, whether it holds and whether it has a verdict at all are derived
from them, as is a sweep's confidence (``SweepResult.confidence``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_DELTA = 0.05


@dataclass(frozen=True)
class GapReport:
    """Per-run verdict: errors and margin in [0, 1] (None: undefined margin)
    and a nonnegative ceiling.

    The ceiling is NaN where no verdict exists (d > e*m, or an experiment
    that evaluates no bound); such a report never holds.
    """

    train_error: float
    test_error: float
    rho: float | None
    epsilon_boost: float

    def __post_init__(self) -> None:
        for name, v in (("train_error", self.train_error), ("test_error", self.test_error)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v!r} outside [0, 1]")
        if self.rho is not None and not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho {self.rho!r} outside [0, 1]")
        if self.epsilon_boost < 0.0:
            raise ValueError(f"epsilon_boost {self.epsilon_boost!r} is negative")

    @property
    def delta_r(self) -> float:
        return self.test_error - self.train_error

    @property
    def holds(self) -> bool:
        return self.delta_r <= self.epsilon_boost


def epsilon_boost(rho: float | None, d: int, m: int, delta: float = DEFAULT_DELTA) -> float:
    """The bound's right-hand side: +inf when rho is 0 or None, NaN when d > e*m."""
    if rho is not None and not rho >= 0.0:
        raise ValueError(f"rho {rho!r} must be nonnegative")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta {delta!r} outside (0, 1]")
    if rho is None or rho == 0.0:
        return math.inf
    # ln(e*m/d) written as 1 + ln(m/d): exact at m == d, one fewer rounding.
    radicand = 2.0 * d * (1.0 + math.log(m / d)) / m
    if radicand < 0.0:
        return math.nan
    return (2.0 / rho) * math.sqrt(radicand) + math.sqrt(-math.log(delta) / (2.0 * m))


def inapplicable_reason(d: int, m: int) -> str:
    """Why the bound has no value at (d, m)."""
    return f"d={d} exceeds e*m={math.e * m:.6g}; the bound does not apply"


def check_bound(
    train_error: float,
    test_error: float,
    rho: float | None,
    d: int,
    m: int,
    delta: float = DEFAULT_DELTA,
) -> GapReport:
    """The per-run verdict; its ceiling is NaN (no verdict) for d > e*m."""
    return GapReport(train_error, test_error, rho, epsilon_boost(rho, d, m, delta))
