"""Run records and sweep results: the rows behind every table and figure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..bound import GapReport, confidence

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
        if self.source not in (SOURCE_SYNTHETIC, SOURCE_REAL):
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class RunRecord:
    """One grid cell's parameters plus its measured gap report.

    ``applicable`` is False when the bound's regime did not cover the cell
    (d > e*m) or when the experiment evaluates no bound at all; such rows
    are excluded from confidence denominators. ``wall_time_ms`` is not part
    of the deterministic output surface.
    """

    experiment_id: str
    params: RunParams
    gap_report: GapReport
    wall_time_ms: int
    applicable: bool = True

    def __post_init__(self) -> None:
        if self.wall_time_ms < 0:
            raise ValueError("wall_time_ms must be nonnegative")


@dataclass(frozen=True)
class SweepResult:
    """All records of one sweep plus its aggregate confidence.

    ``confidence`` is None for sweeps that evaluate no bound (the
    iteration sweep). ``inapplicable_count`` counts cells rejected by the
    bound's regime (d > e*m), not rows that simply skip the bound.
    """

    records: tuple[RunRecord, ...]
    confidence: float | None
    inapplicable_count: int

    @classmethod
    def of(cls, records: Sequence[RunRecord]) -> SweepResult:
        """Records with their confidence, the fraction of applicable rows that
        hold (None without one), and their count of cells outside the bound's
        regime: inapplicable rows with a margin, as rows that skip the bound
        (t-sweep) carry none.

        This relies on ``bound.epsilon_boost`` returning +inf for an
        undefined or zero margin before it compares d with e*m: a cell
        without a margin is then never outside the regime.
        ``tests/test_experiments.py`` pins that order.
        """
        applicable = [r.gap_report for r in records if r.applicable]
        return cls(
            records=tuple(records),
            confidence=confidence(applicable) if applicable else None,
            inapplicable_count=sum(
                1 for r in records if not r.applicable and r.gap_report.rho is not None
            ),
        )

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if self.inapplicable_count < 0:
            raise ValueError("inapplicable_count must be nonnegative")
