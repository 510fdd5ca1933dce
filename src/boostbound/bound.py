"""Ensemble VC-dimension margin bound and generalization-gap verdicts.

For a base family of VC-dimension d, a training sample of size m, an
L1-geometric margin rho and failure probability delta, the gap between
test and training misclassification rates is bounded (with probability at
least 1 - delta) by

    epsilon_boost = (2/rho) * sqrt(2*d*ln(e*m/d) / m) + sqrt(ln(1/delta) / (2*m))

with natural logarithms. rho = 0 (or an undefined margin) makes the
ceiling infinite, so the inequality holds vacuously; d > e*m makes the
first radicand negative and is reported as a distinguished
"bound inapplicable" outcome rather than a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

DEFAULT_DELTA = 0.05


class BoundInapplicableError(ValueError):
    """The bound's first radicand is negative (d > e*m): no finite value exists."""


@dataclass(frozen=True)
class BoundInput:
    """Arguments of the margin bound; ``rho=None`` means undefined margin."""

    rho: float | None
    d: int
    m: int
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if self.rho is not None and not self.rho >= 0.0:
            raise ValueError(f"rho {self.rho!r} must be nonnegative")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta {self.delta!r} outside (0, 1]")


@dataclass(frozen=True)
class GapReport:
    """Per-run verdict: measured errors, gap, margin, ceiling, holds flag."""

    train_error: float
    test_error: float
    delta_r: float
    rho: float | None
    epsilon_boost: float
    holds: bool

    def __post_init__(self) -> None:
        if self.delta_r != gap(self.train_error, self.test_error):
            raise ValueError("delta_r must equal test_error - train_error exactly")
        if self.holds != (self.delta_r <= self.epsilon_boost):
            raise ValueError(
                f"holds={str(self.holds).lower()} contradicts delta_r {self.delta_r!r} "
                f"and epsilon_boost {self.epsilon_boost!r} (an infinite ceiling "
                "always holds, a NaN one never does)"
            )


def epsilon_boost(inp: BoundInput) -> float:
    """Evaluate the bound's right-hand side; +inf when rho is 0 or undefined."""
    if inp.rho is None or inp.rho == 0.0:
        return math.inf
    # ln(e*m/d) written as 1 + ln(m/d): exact at m == d, one fewer rounding.
    radicand = 2.0 * inp.d * (1.0 + math.log(inp.m / inp.d)) / inp.m
    if radicand < 0.0:
        raise BoundInapplicableError(inapplicable_reason(inp.d, inp.m))
    first = (2.0 / inp.rho) * math.sqrt(radicand)
    second = math.sqrt(-math.log(inp.delta) / (2.0 * inp.m))
    return first + second


def inapplicable_reason(d: int, m: int) -> str:
    """Why the bound has no value at (d, m): the message of BoundInapplicableError."""
    return f"d={d} exceeds e*m={math.e * m:.6g}; the bound does not apply"


def gap(train_error: float, test_error: float) -> float:
    """Generalization gap: test error minus training error (may be negative)."""
    for name, v in (("train_error", train_error), ("test_error", test_error)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} {v!r} outside [0, 1]")
    return test_error - train_error


def check_bound(
    train_error: float,
    test_error: float,
    rho: float | None,
    d: int,
    m: int,
    delta: float = DEFAULT_DELTA,
) -> GapReport:
    """Assemble the per-run verdict; raises BoundInapplicableError for d > e*m."""
    ceiling = epsilon_boost(BoundInput(rho=rho, d=d, m=m, delta=delta))
    delta_r = gap(train_error, test_error)
    return GapReport(
        train_error=train_error,
        test_error=test_error,
        delta_r=delta_r,
        rho=rho,
        epsilon_boost=ceiling,
        holds=delta_r <= ceiling,
    )


def no_verdict(train_error: float, test_error: float, rho: float | None) -> GapReport:
    """A report without a bound verdict: NaN ceiling, ``holds`` false by convention."""
    return GapReport(
        train_error=train_error,
        test_error=test_error,
        delta_r=gap(train_error, test_error),
        rho=rho,
        epsilon_boost=math.nan,
        holds=False,
    )


def confidence(reports: Sequence[GapReport]) -> float:
    """Fraction of reports whose gap stayed below the ceiling."""
    if not reports:
        raise ValueError("confidence needs at least one report")
    return sum(1 for r in reports if r.holds) / len(reports)
