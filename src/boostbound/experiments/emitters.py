"""Deterministic CSV and SVG emitters for sweep results.

Floats in CSV are serialized with 17 significant digits, which round-trips
IEEE doubles exactly; booleans as ``true``/``false``; an infinite bound as
``+inf``. Two emissions of the same result are byte-identical, so golden
files and worker-count invariance can be checked by comparing bytes.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from typing import Sequence

import numpy as np

from ..bound import GapReport, epsilon_boost
from .fitting import PolyFit, polyfit
from .records import RunParams, RunRecord, SweepResult

CSV_HEADER = (
    "experiment_id,source,T,m,d,delta,seed,rho,"
    "train_error,test_error,delta_r,epsilon_boost,holds,applicable"
)

SVG_WIDTH = 800
SVG_HEIGHT = 600
_PLOT_BOX = (80.0, 40.0, 760.0, 540.0)  # left, top, right, bottom


def _fmt_float(v: float | None) -> str:
    if v is None or math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return format(v, ".17g")


def emit_csv(result: SweepResult, path: str | Path) -> None:
    """Write one row per record under the fixed schema."""
    if not result.records:
        raise ValueError("refusing to emit an empty sweep")
    lines = [CSV_HEADER]
    for rec in result.records:
        p, g = rec.params, rec.gap_report
        lines.append(
            ",".join(
                [
                    rec.experiment_id,
                    p.source,
                    str(p.T),
                    str(p.m),
                    str(p.d),
                    _fmt_float(p.delta),
                    str(p.seed),
                    _fmt_float(g.rho),
                    _fmt_float(g.train_error),
                    _fmt_float(g.test_error),
                    _fmt_float(g.delta_r),
                    _fmt_float(g.epsilon_boost),
                    "true" if g.holds else "false",
                    "true" if rec.applicable else "false",
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_bool(name: str, text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"{name} must be true or false, got {text!r}")
    return text == "true"


def load_records_csv(path: str | Path) -> SweepResult:
    """Read a sweep CSV back into records (wall times are not stored).

    ``delta_r``, ``holds`` and ``applicable`` are derived from the row's
    errors and ceiling; a row whose stored values disagree is rejected.
    Rows whose bound was never evaluated load with ``rho=None`` and a NaN
    ceiling.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (bad header)")
    records = []
    for n, ln in lines[1:]:
        try:
            cells = ln.split(",")
            if len(cells) != 14:
                raise ValueError(f"malformed row {ln!r}")
            rho = float(cells[7])
            record = RunRecord(
                experiment_id=cells[0],
                params=RunParams(
                    T=int(cells[2]),
                    m=int(cells[3]),
                    d=int(cells[4]),
                    delta=float(cells[5]),
                    seed=int(cells[6]),
                    source=cells[1],
                ),
                gap_report=GapReport(
                    train_error=float(cells[8]),
                    test_error=float(cells[9]),
                    rho=None if math.isnan(rho) else rho,
                    epsilon_boost=float(cells[11]),
                ),
            )
            g = record.gap_report
            if float(cells[10]) != g.delta_r:
                raise ValueError("delta_r must equal test_error - train_error exactly")
            if _parse_bool("holds", cells[12]) != g.holds:
                raise ValueError(
                    f"holds={cells[12]} contradicts delta_r {g.delta_r!r} and epsilon_boost "
                    f"{g.epsilon_boost!r} (an infinite ceiling always holds, a NaN one never does)"
                )
            if _parse_bool("applicable", cells[13]) != record.applicable:
                raise ValueError(
                    f"applicable={cells[13]} contradicts epsilon_boost {g.epsilon_boost!r} "
                    "(a row has a verdict exactly when its ceiling is not NaN)"
                )
            records.append(record)
        except ValueError as exc:
            raise ValueError(f"{path}: row {n}: {exc}") from exc
    return SweepResult(records)


def x_axis_name(experiment_id: str) -> str:
    """Which parameter the sweep varies, from the experiment id."""
    if experiment_id.startswith("t-sweep"):
        return "T"
    if experiment_id.startswith(("m-sweep", "real-m")):
        return "m"
    if experiment_id.startswith(("d-sweep", "real-d")):
        return "d"
    raise ValueError(f"cannot infer swept axis from {experiment_id!r}")


def record_x(record: RunRecord) -> float:
    return float(getattr(record.params, x_axis_name(record.experiment_id)))


def default_figure(
    result: SweepResult,
) -> tuple[PolyFit | None, list[tuple[float, float]] | None]:
    """Fit and bound curve for a sweep's standard figure.

    The scatter is (swept parameter, delta_r). The fit is an order-10
    polynomial when enough distinct abscissae exist (degree falls back to
    what the data supports). The dashed bound curve is evaluated at the
    median measured margin across applicable runs, one point per distinct
    abscissa; sweeps without bound verdicts get no curve.
    """
    xs = [record_x(r) for r in result.records]
    distinct = len(set(xs))
    fit = None
    if distinct >= 2:
        points = [(x, r.gap_report.delta_r) for x, r in zip(xs, result.records)]
        fit = polyfit(points, order=min(10, distinct - 1))

    applicable = [r for r in result.records if r.applicable and r.gap_report.rho is not None]
    curve = None
    if applicable:
        # statistics.median gives np.median's value (the middle element, or
        # (a + b) / 2) without the numpy.ma import that np.median costs.
        rho_med = float(statistics.median(r.gap_report.rho for r in applicable))
        seen: dict[float, tuple[int, int, float]] = {}
        for r in applicable:
            seen.setdefault(record_x(r), (r.params.d, r.params.m, r.params.delta))
        curve = []
        for x in sorted(seen):
            d, m, delta = seen[x]
            y = epsilon_boost(rho_med, d, m, delta)
            if not math.isnan(y):
                curve.append((x, y))
        if not curve:
            curve = None
    return fit, curve


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _scale(v: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def emit_svg(
    result: SweepResult,
    fit: PolyFit | None,
    bound_curve: Sequence[tuple[float, float]] | None,
    path: str | Path,
) -> None:
    """Write a standalone SVG: scatter, solid fit line, dashed bound line.

    The y-range covers the scatter and the fit; bound points above it are
    clamped to the top edge so an enormous ceiling stays visible without
    flattening the data.
    """
    if not result.records:
        raise ValueError("refusing to plot an empty sweep")
    experiment_id = result.records[0].experiment_id
    axis = x_axis_name(experiment_id)

    xs = [record_x(r) for r in result.records]
    ys = [r.gap_report.delta_r for r in result.records]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    fit_pts: list[tuple[float, float]] = []
    if fit is not None:
        grid = [x_lo + k * (x_hi - x_lo) / 199 for k in range(200)]
        fit_pts = list(zip(grid, fit.evaluate(np.array(grid)).tolist()))
    y_all = ys + [y for _, y in fit_pts]
    y_lo, y_hi = min(y_all), max(y_all)
    # A span within rounding of |y| is flat: plotting it would stretch the
    # last bits of delta_r and of the fit over the whole y-axis.
    if y_hi - y_lo <= 1e-12 * max(abs(y_lo), abs(y_hi)):
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    left, top, right, bottom = _PLOT_BOX

    def px(v: float) -> str:
        return format(_scale(v, x_lo, x_hi, left, right), ".2f")

    def py(v: float) -> str:
        return format(_scale(v, y_lo, y_hi, bottom, top), ".2f")

    parts = [
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<title>{experiment_id}</title>',
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
        f'fill="none" stroke="#333333"/>',
        f'<text x="{(left + right) / 2:.2f}" y="{SVG_HEIGHT - 10}" '
        f'text-anchor="middle">{axis}</text>',
        f'<text x="18" y="{(top + bottom) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(top + bottom) / 2:.2f})">delta_r</text>',
        f'<text x="{(left + right) / 2:.2f}" y="24" text-anchor="middle" '
        f'font-size="14">{experiment_id}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx)}" y1="{bottom}" x2="{px(tx)}" y2="{bottom + 5}" '
            f'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px(tx)}" y="{bottom + 18}" text-anchor="middle">'
            f"{format(tx, '.4g')}</text>"
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{left - 5}" y1="{py(ty)}" x2="{left}" y2="{py(ty)}" '
            f'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py(ty)}" text-anchor="end" '
            f'dominant-baseline="middle">{format(ty, ".4g")}</text>'
        )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="#1f77b4" '
            f'fill-opacity="0.6"/>'
        )
    if fit_pts:
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in fit_pts)
        parts.append(f'<polyline fill="none" stroke="#2ca02c" stroke-width="1.5" points="{pts}"/>')
    if bound_curve:
        clamped = [(x, min(y, y_hi)) for x, y in bound_curve]
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in clamped)
        parts.append(
            f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
            f'stroke-dasharray="6 4" points="{pts}"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
