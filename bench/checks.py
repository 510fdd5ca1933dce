"""Output checks made apart from the program.

Each check compares an output with an independent computation (the bound
in mpmath, the ensemble vote in a plain loop written here) or with a
property the method guarantees. None compares with a stored copy of an
earlier output. Every function returns a list of problems; empty means
the output passed.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from typing import Sequence

import mpmath
import numpy as np

HEADER = (
    "experiment_id,source,T,m,d,delta,seed,rho,"
    "train_error,test_error,delta_r,epsilon_boost,holds,applicable"
).split(",")
_INTS = ("T", "m", "d", "seed")
_FLOATS = ("delta", "rho", "train_error", "test_error", "delta_r", "epsilon_boost")
_BOOLS = ("holds", "applicable")
_SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"


def parse_rows(csv_text: str) -> list[dict]:
    """Parse a sweep CSV; raises ValueError on a bad header or cell."""
    lines = [ln for ln in csv_text.splitlines() if ln]
    if not lines or lines[0].split(",") != HEADER:
        raise ValueError("bad or missing CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(HEADER):
            raise ValueError(f"row has {len(cells)} cells: {ln!r}")
        row = dict(zip(HEADER, cells))
        for k in _INTS:
            row[k] = int(row[k])
        for k in _FLOATS:
            row[k] = float(row[k])
        for k in _BOOLS:
            if row[k] not in ("true", "false"):
                raise ValueError(f"{k} is {row[k]!r}, not true/false")
            row[k] = row[k] == "true"
        rows.append(row)
    return rows


def epsilon_reference(rho: float, d: int, m: int, delta: float) -> float:
    """epsilon_boost from its closed form, evaluated at 50 digits."""
    if rho == 0.0:
        return math.inf
    with mpmath.workdps(50):
        rho, d, m, delta = (mpmath.mpf(v) for v in (rho, d, m, delta))
        first = 2 / rho * mpmath.sqrt(2 * d * mpmath.log(mpmath.e * m / d) / m)
        second = mpmath.sqrt(mpmath.log(1 / delta) / (2 * m))
        return float(first + second)


def bound_applies(d: int, m: int) -> bool:
    with mpmath.workdps(50):
        return d <= mpmath.e * m


def _is_count(rate: float, denominator: int) -> bool:
    x = rate * denominator
    return math.isfinite(x) and abs(x - round(x)) <= 1e-6


def row_problems(row: dict, *, n_test: int, repeats: int, verdict: bool) -> list[str]:
    """Checks on one CSV row.

    ``n_test`` is the test-set size behind ``test_error``; ``repeats`` is
    how many runs a row averages; ``verdict`` is False for the t-sweep,
    whose rows carry no bound.
    """
    p = []
    tr, te = row["train_error"], row["test_error"]
    if not (0.0 <= tr <= 1.0 and 0.0 <= te <= 1.0):
        p.append(f"errors {tr}, {te} outside [0, 1]")
    if row["delta_r"] != te - tr:
        p.append(f"delta_r {row['delta_r']!r} != test_error - train_error {te - tr!r}")
    if not _is_count(tr, row["m"] * repeats):
        p.append(f"train_error {tr!r} is not a count over {row['m']}x{repeats}")
    if not _is_count(te, n_test * repeats):
        p.append(f"test_error {te!r} is not a count over {n_test}x{repeats}")
    eps, rho = row["epsilon_boost"], row["rho"]
    if not verdict:
        if row["applicable"] or row["holds"] or not math.isnan(eps) or not math.isnan(rho):
            p.append("a row without a verdict must read nan, nan, false, false")
        return p
    applies = bound_applies(row["d"], row["m"])
    if row["applicable"] != applies:
        p.append(f"applicable is {row['applicable']} but d <= e*m is {applies}")
    if math.isnan(rho):
        if not math.isinf(eps):
            p.append("an undefined margin must give an infinite bound")
    elif not 0.0 <= rho <= 1.0:
        p.append(f"rho {rho!r} outside [0, 1]")
    if not applies:
        if not math.isnan(eps) or row["holds"]:
            p.append("an inapplicable row must read epsilon_boost nan and holds false")
        return p
    if not math.isnan(rho):
        ref = epsilon_reference(rho, row["d"], row["m"], row["delta"])
        if not (eps == ref or abs(eps - ref) <= 1e-12 * abs(ref)):
            p.append(f"epsilon_boost {eps!r} != closed form {ref!r}")
    if row["holds"] != (row["delta_r"] <= eps):
        p.append(f"holds is {row['holds']} but delta_r <= epsilon_boost is {row['delta_r'] <= eps}")
    return p


def confidence_problems(rows: Sequence[dict], stdout: str) -> list[str]:
    """The printed confidence must be the holds fraction of applicable rows."""
    printed = re.findall(r"^confidence = (.*)%$", stdout, re.MULTILINE)
    applicable = [r for r in rows if r["applicable"]]
    if not applicable:
        return [f"confidence printed {printed} with no applicable row"] if printed else []
    expected = format(100.0 * sum(r["holds"] for r in applicable) / len(applicable), ".1f")
    if printed != [expected]:
        return [f"printed confidence {printed} != holds fraction {expected}%"]
    return []


def svg_problems(svg_text: str, n_rows: int) -> list[str]:
    """The figure must parse as XML and draw one circle per CSV row."""
    try:
        root = ET.fromstring(svg_text.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    circles = sum(1 for el in root.iter() if el.tag == _SVG_CIRCLE)
    if circles != n_rows:
        return [f"SVG has {circles} circles for {n_rows} rows"]
    return []


def sweep_failures(
    csv_text: str,
    svg_text: str,
    stdout: str,
    *,
    axis: str,
    grid: Sequence[int],
    n_test: int | None,
    repeats: int,
) -> tuple[set[int], list[str]]:
    """Grid keys whose row is missing or wrong, with the problems found.

    ``n_test=None`` means the test set has the training size (synthetic
    data is split in half). A problem with the sweep as a whole (the
    printed confidence or the figure) fails every key.
    """
    try:
        rows = parse_rows(csv_text)
    except ValueError as exc:
        return set(grid), [f"CSV: {exc}"]
    verdict = axis != "T"
    failed, problems = set(), []
    by_key: dict[int, list[dict]] = {}
    for row in rows:
        by_key.setdefault(row[axis], []).append(row)
    for key in grid:
        found = by_key.get(key, [])
        if len(found) != 1:
            failed.add(key)
            problems.append(f"{axis}={key}: {len(found)} rows")
            continue
        row = found[0]
        try:
            msgs = row_problems(row, n_test=row["m"] if n_test is None else n_test,
                                repeats=repeats, verdict=verdict)
        except (ArithmeticError, ValueError) as exc:  # e.g. d = 0 in a corrupted row
            msgs = [f"unusable row: {exc!r}"]
        for msg in msgs:
            failed.add(key)
            problems.append(f"{axis}={key}: {msg}")
    extra = sorted(set(by_key) - set(grid))
    whole = [f"rows outside the grid: {extra}"] if extra else []
    whole += confidence_problems(rows, stdout) + svg_problems(svg_text, len(rows))
    if whole:
        failed |= set(grid)
        problems += whole
    return failed, problems


# --- Recomputation through the public API, evaluated by a plain loop here.


def round_votes(r, features: np.ndarray) -> np.ndarray:
    """alpha_t * h_t(x) per row, h_t = +/-sign(w.x + b), sign(0) = +1."""
    h = np.where(features @ r.hypothesis.weights + r.hypothesis.bias >= 0.0, 1.0, -1.0)
    return r.alpha * (-h if r.flipped else h)


def vote(ensemble, features: np.ndarray) -> np.ndarray:
    """sum_t alpha_t * h_t(x) per row, accumulated one round at a time."""
    scores = np.zeros(features.shape[0])
    for r in ensemble.rounds:
        scores += round_votes(r, features)
    return scores


def vote_error(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.count_nonzero(np.where(scores >= 0.0, 1.0, -1.0) != labels)) / len(labels)


def vote_margin(ensemble, scores: np.ndarray) -> float:
    return float(np.min(np.abs(scores))) / sum(abs(r.alpha) for r in ensemble.rounds)


def cell_problems(row: dict, ensemble, train, test) -> list[str]:
    """Compare a row with a retrained ensemble scored by :func:`vote`."""
    s_train = vote(ensemble, train.features)
    got = (
        vote_error(s_train, train.labels),
        vote_error(vote(ensemble, test.features), test.labels),
    )
    p = []
    if got != (row["train_error"], row["test_error"]):
        p.append(f"retrained errors {got} != row {(row['train_error'], row['test_error'])}")
    rho = vote_margin(ensemble, s_train)
    if abs(rho - row["rho"]) > 1e-9 * max(rho, 1e-300):
        p.append(f"retrained margin {rho!r} != row rho {row['rho']!r}")
    return p


def staged_errors(ensemble, data) -> np.ndarray:
    """Error of every prefix vote, rounds 1..T."""
    scores = np.zeros(data.n_rows)
    out = []
    for r in ensemble.rounds:
        scores += round_votes(r, data.features)
        out.append(vote_error(scores, data.labels))
    return np.array(out)


def t_row_problems(row: dict, train_curves: np.ndarray, test_curves: np.ndarray) -> list[str]:
    """A t-sweep row against per-repeat staged errors computed here."""
    t = row["T"] - 1
    want = (float(np.mean(train_curves[:, t])), float(np.mean(test_curves[:, t])))
    got = (row["train_error"], row["test_error"])
    if any(abs(a - b) > 1e-12 for a, b in zip(want, got)):
        return [f"T={row['T']}: retrained mean errors {want} != row {got}"]
    return []


def loaded_problems(dataset, rows: int, positives: int, feature_sums: Sequence[int]) -> list[str]:
    """The loaded dataset must hold exactly what the generator wrote."""
    p = []
    if dataset.n_rows != rows:
        p.append(f"loaded {dataset.n_rows} rows, wrote {rows}")
    n_pos = int(np.count_nonzero(dataset.labels == 1.0))
    if n_pos != positives:
        p.append(f"loaded {n_pos} positive labels, wrote {positives}")
    sums = dataset.features.sum(axis=0).tolist()
    if sums != [float(s) for s in feature_sums]:
        p.append("loaded feature column sums differ from the written ones")
    return p
