"""Run records and sweep results: the rows behind every table and figure."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..bound import GapReport

SOURCE_SYNTHETIC = "synthetic"
SOURCE_REAL = "real"


@dataclass(frozen=True)
class RunParams:
    """Parameters that fully determine one run (given the code version)."""

    T: int
    m: int
    d: int
    delta: float
    seed: int
    source: str

    def __post_init__(self) -> None:
        for name, v in (("T", self.T), ("m", self.m), ("d", self.d)):
            if v < 1:
                raise ValueError(f"{name} must be at least 1, got {v}")
        if self.source not in (SOURCE_SYNTHETIC, SOURCE_REAL):
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class RunRecord:
    """One grid cell's parameters plus its measured gap report."""

    experiment_id: str
    params: RunParams
    gap_report: GapReport

    @property
    def applicable(self) -> bool:
        """Whether the cell has a verdict: False when the bound's regime did
        not cover it (d > e*m) or the experiment evaluates no bound; such
        rows are excluded from confidence denominators."""
        return not math.isnan(self.gap_report.epsilon_boost)


@dataclass(frozen=True)
class SweepResult:
    """All records of one sweep."""

    records: tuple[RunRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def confidence(self) -> float | None:
        """Fraction of applicable records that hold; None without one (the
        iteration sweep evaluates no bound)."""
        holds = [r.gap_report.holds for r in self.records if r.applicable]
        return sum(holds) / len(holds) if holds else None

    @property
    def inapplicable_count(self) -> int:
        """Cells outside the bound's regime (d > e*m): inapplicable records
        with a margin, as records that skip the bound (t-sweep) carry none.

        This relies on ``bound.epsilon_boost`` returning +inf for an
        undefined or zero margin before it compares d with e*m: a cell
        without a margin is then never outside the regime.
        ``tests/test_experiments.py`` pins that order.
        """
        return sum(1 for r in self.records if not r.applicable and r.gap_report.rho is not None)
