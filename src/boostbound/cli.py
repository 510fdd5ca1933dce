"""Command-line entry point.

Subcommands: ``gen`` (synthetic dataset CSV), ``train`` (one boosted run
with its gap report), ``bound`` (evaluate the margin bound), ``exp``
(experiment sweeps), ``plot`` (re-render a figure from a sweep CSV).

Configuration is flags-first with an optional ``key = value`` config file
(``--config``) that flags override. Every run that owns an output
directory writes a ``manifest`` file with the fully-resolved
configuration; re-running from that manifest reproduces the outputs
byte-for-byte. Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .bound import DEFAULT_DELTA, epsilon_boost, inapplicable_reason
from .data import Dataset, SplitPair, SyntheticConfig, generate_synthetic, load_csv_split
from .experiments import (
    SweepResult,
    SweepSpec,
    confidence_table,
    default_figure,
    emit_csv,
    emit_svg,
    load_records_csv,
    real_split_seed,
    run_sweeps,
    run_train_cell,
    sweep_grid,
)
from .experiments.records import SOURCE_REAL, SOURCE_SYNTHETIC
from .experiments.sweeps import DEFAULT_EPOCHS, DEFAULT_ROUNDS
from .rng import derive_seed

EXP_MODES = ("t-sweep", "m-sweep", "d-sweep", "real-m", "real-d", "confidence")

# flag name -> (dest, type); one table keeps spellings and parsing in sync.
_FLAG_TYPES = {
    "d": int,
    "m": int,
    "m-min": int,
    "m-max": int,
    "m-step": int,
    "d-min": int,
    "d-max": int,
    "d-step": int,
    "t-max": int,
    "repeats": int,
    "delta": float,
    "seed": int,
    "workers": int,
    "out": str,
    "data": str,
    "target-column": str,
    "positive-value": str,
    "epochs": int,
    "rho": float,
    "config": str,
}

_SUBCOMMAND_FLAGS = {
    "gen": ("d", "m", "seed", "out", "config"),
    "train": (
        "d", "m", "t-max", "epochs", "delta", "seed", "out",
        "data", "target-column", "positive-value", "config",
    ),
    "bound": ("rho", "d", "m", "delta", "out", "config"),
    "exp": (
        "d", "m", "m-min", "m-max", "m-step", "d-min", "d-max", "d-step",
        "t-max", "repeats", "delta", "seed", "workers", "out",
        "data", "target-column", "positive-value", "epochs", "config",
    ),
    "plot": ("data", "out", "config"),
}

_COMMON_DEFAULTS = {
    "delta": DEFAULT_DELTA,
    "seed": 42,
    "epochs": DEFAULT_EPOCHS,
    "t-max": DEFAULT_ROUNDS,
    "repeats": 1,
}

# Grids used where neither a flag nor the config file sets one: full scale
# for t-sweep, m-sweep and d-sweep; desk scale for confidence, which runs
# eight sweeps.
_MODE_DEFAULTS = {
    "t-sweep": {"d": 50, "m": 1000, "t-max": 100, "repeats": 100},
    "m-sweep": {"d": 25, "m-min": 10, "m-max": 10000, "m-step": 10},
    "d-sweep": {"m": 500, "d-min": 5, "d-max": 1000, "d-step": 5},
    "confidence": {
        "m-min": 10, "m-max": 2000, "m-step": 50,
        "d-min": 5, "d-max": 200, "d-step": 15,
        "repeats": 3,
    },
    "real-m": {"m-min": 50, "m-step": 250},  # m-max defaults to the train half
    "real-d": {"d-min": 2, "d-step": 1},  # d-max defaults to n_features + 1
}


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostbound",
        description="Boosted perceptrons and empirical margin-bound verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "gen": "generate a synthetic two-cluster dataset CSV",
        "train": "train one boosted ensemble and report its generalization gap",
        "bound": "evaluate the margin bound for explicit rho, d, m, delta",
        "exp": "run an experiment sweep and emit CSV/SVG/manifest",
        "plot": "re-render the SVG figure from a sweep CSV",
    }
    for name, flags in _SUBCOMMAND_FLAGS.items():
        p = sub.add_parser(name, help=helps[name])
        if name == "exp":
            p.add_argument("mode", nargs="?", choices=EXP_MODES)
        for flag in flags:
            p.add_argument(f"--{flag}", type=_FLAG_TYPES[flag], default=None)
    return parser


def _load_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    """Parse 'key = value' lines; keys use the flag spelling or underscores."""
    text = Path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if key not in allowed:
            raise UsageError(f"{path}:{line_no}: unknown configuration key {key!r}")
        out[key] = value
    return out


def _resolve(ns: argparse.Namespace) -> dict:
    """Merge flags over config-file values over built-in defaults."""
    sub = ns.subcommand
    flags = _SUBCOMMAND_FLAGS[sub]
    allowed = set(flags) | {"subcommand", "mode"}
    config: dict[str, str] = {}
    if getattr(ns, "config", None):
        config = _load_config_file(ns.config, allowed)
        declared = config.pop("subcommand", sub)
        if declared != sub:
            raise UsageError(
                f"config file was written for subcommand {declared!r}, not {sub!r}"
            )

    resolved: dict = {"subcommand": sub}
    mode = getattr(ns, "mode", None)
    if sub == "exp":
        mode = mode or config.pop("mode", None)
        if mode not in EXP_MODES:
            raise UsageError(
                f"exp needs a mode out of {', '.join(EXP_MODES)} "
                "(positional argument or config file)"
            )
        resolved["mode"] = mode
    else:
        config.pop("mode", None)

    defaults = dict(_COMMON_DEFAULTS)
    if sub == "exp":
        defaults["workers"] = os.cpu_count() or 1
        defaults.update(_MODE_DEFAULTS.get(mode, {}))
    for flag in flags:
        if flag == "config":
            continue
        value = getattr(ns, flag.replace("-", "_"))
        if value is None and flag in config:
            try:
                value = _FLAG_TYPES[flag](config[flag])
            except ValueError:
                raise UsageError(
                    f"config value for {flag!r} is not a valid "
                    f"{_FLAG_TYPES[flag].__name__}: {config[flag]!r}"
                ) from None
        if value is None:
            value = defaults.get(flag)
        resolved[flag.replace("-", "_")] = value
    if resolved.get("workers", 1) < 1:
        raise UsageError(f"--workers must be at least 1, got {resolved['workers']}")
    return resolved


def _require(cfg: dict, *names: str) -> None:
    for name in names:
        if cfg.get(name) is None:
            flag = name.replace("_", "-")
            raise UsageError(f"--{flag} is required for this command")


def _prepare_out(cfg: dict) -> Path:
    """Create the output directory and write the resolved-config manifest."""
    _require(cfg, "out")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg) if cfg[k] is not None]
    (out_dir / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_dir


def _write_dataset_csv(dataset: Dataset, path: Path) -> None:
    lines = [",".join(["label"] + [f"x{j + 1}" for j in range(dataset.n_features)])]
    for i in range(dataset.n_rows):
        cells = ["1" if dataset.labels[i] > 0 else "-1"]
        cells += [format(v, ".17g") for v in dataset.features[i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_real_halves(cfg: dict, seed: int) -> SplitPair:
    """Load --data and split it with ``seed``; the target defaults to the
    first header cell and the positive value to "1". A target that puts
    every row in one class is refused: nothing could be learned or bounded."""
    _require(cfg, "data")
    path, target, positive = cfg["data"], cfg.get("target_column"), cfg.get("positive_value")
    positive = "1" if positive is None else positive
    pair = load_csv_split(path, target, positive, seed)
    halves = (pair.train, pair.test)
    n_positive = sum(int((h.labels > 0.0).sum()) for h in halves)
    n_negative = sum(h.n_rows for h in halves) - n_positive
    if n_positive == 0 or n_negative == 0:
        if target is None:
            with open(path, encoding="utf-8", newline="") as fh:
                target = next(csv.reader(fh))[0].strip()
        raise ValueError(
            f"{path}: target column {target!r} with positive value {positive!r} gives "
            f"{n_positive} positive and {n_negative} negative rows; both classes are needed"
        )
    return pair


def _cmd_gen(cfg: dict) -> None:
    _require(cfg, "d", "m")
    out_dir = _prepare_out(cfg)
    dataset = generate_synthetic(
        SyntheticConfig(n_features=cfg["d"] - 1, m_total=cfg["m"], seed=cfg["seed"])
    )
    path = out_dir / "dataset.csv"
    _write_dataset_csv(dataset, path)
    print(f"wrote {path} ({dataset.n_rows} rows, {dataset.n_features} features)")


def _cmd_bound(cfg: dict) -> None:
    _require(cfg, "rho", "d", "m")
    value = epsilon_boost(cfg["rho"], cfg["d"], cfg["m"], cfg["delta"])
    if math.isnan(value):
        raise ValueError(inapplicable_reason(cfg["d"], cfg["m"]))
    text = "+inf" if math.isinf(value) else format(value, ".17g")
    print(text)
    if cfg.get("out"):
        out_dir = _prepare_out(cfg)
        (out_dir / "bound.txt").write_text(text + "\n", encoding="utf-8")


def _cmd_train(cfg: dict) -> None:
    out_dir = _prepare_out(cfg)
    pair = None
    if cfg.get("data"):
        pair = _load_real_halves(cfg, derive_seed(cfg["seed"], 1))
        d, m = pair.train.n_features + 1, pair.train.n_rows
    else:
        _require(cfg, "d", "m")
        d, m = cfg["d"], cfg["m"]
    record = run_train_cell(
        d, m, cfg["t_max"], cfg["epochs"], cfg["delta"], cfg["seed"], pair
    )
    report = record.gap_report
    if not record.applicable:
        print(f"note: {inapplicable_reason(d, m)}")
    emit_csv(SweepResult([record]), out_dir / "report.csv")
    print(f"rounds = {cfg['t_max']}  train_rows = {m}  d = {d}")
    print(f"train_error = {report.train_error:.6f}")
    print(f"test_error = {report.test_error:.6f}")
    print(f"delta_r = {report.delta_r:.6f}")
    rho = report.rho
    print(f"rho = {'undefined' if rho is None else format(rho, '.6g')}")
    eps = report.epsilon_boost
    print(f"epsilon_boost = {'+inf' if math.isinf(eps) else format(eps, '.6g')}")
    print(f"holds = {str(report.holds).lower()}")
    print(f"wrote {out_dir / 'report.csv'}")


def _emit_sweep(result: SweepResult, out_dir: Path, stem: str) -> None:
    csv_path = out_dir / f"{stem}.csv"
    svg_path = out_dir / f"{stem}.svg"
    emit_csv(result, csv_path)
    fit, curve = default_figure(result)
    emit_svg(result, fit, curve, svg_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    if result.confidence is not None:
        print(f"confidence = {100.0 * result.confidence:.1f}%")
    if result.inapplicable_count:
        print(f"inapplicable cells = {result.inapplicable_count}")


# confidence: four m-sweeps at fixed d, four d-sweeps at fixed m
_CONFIDENCE = [("m", d) for d in (25, 50, 75, 100)] + [("d", m) for m in (500, 1000, 1500, 2000)]


def _exp_sweeps(cfg: dict, pair: SplitPair | None) -> list[SweepSpec]:
    """The sweeps an ``exp`` mode runs, every grid built and checked. Each
    but the t-sweep runs over m at a fixed d, or over d at a fixed m."""
    mode, d, m = cfg["mode"], cfg["d"], cfg["m"]
    shape = (cfg["repeats"], cfg["t_max"], cfg["epochs"])
    if mode == "t-sweep":
        return [SweepSpec(f"t-sweep-d{d}-m{m}", SOURCE_SYNTHETIC, [(m, d)], *shape, math.nan)]
    if pair is None:  # (experiment id, source, swept axis, fixed value, unset maximum)
        plan = {"m-sweep": [("m", d)], "d-sweep": [("d", m)], "confidence": _CONFIDENCE}[mode]
        axes = [(f"{a}-sweep-{'d' if a == 'm' else 'm'}{v}", SOURCE_SYNTHETIC, a, v, None)
                for a, v in plan]
    else:  # real-m or real-d: a maximum left unset is the whole train half or every feature
        rows, width = pair.train.n_rows, pair.train.n_features + 1
        a = mode[-1]
        axes = [(f"{mode}-sweep", SOURCE_REAL, a) + ((width, rows) if a == "m" else (rows, width))]
    sweeps = []
    for experiment_id, source, axis, fixed, top in axes:
        hi = cfg[f"{axis}_max"]
        grid = sweep_grid(axis, cfg[f"{axis}_min"], top if hi is None else hi, cfg[f"{axis}_step"])
        points = [(v, fixed) if axis == "m" else (fixed, v) for v in grid]
        sweeps.append(SweepSpec(experiment_id, source, points, *shape, cfg["delta"]))
    return sweeps


def _cmd_exp(cfg: dict) -> None:
    """Build and check every sweep of the mode, run them all through one
    pool, then write each sweep's CSV and SVG."""
    mode = cfg["mode"]
    out_dir = _prepare_out(cfg)
    pair = None
    if mode.startswith("real-"):
        pair = _load_real_halves(cfg, real_split_seed(cfg["seed"]))
    sweeps = _exp_sweeps(cfg, pair)
    results = run_sweeps(sweeps, cfg["seed"], workers=cfg["workers"], pair=pair)
    for spec, result in zip(sweeps, results):
        _emit_sweep(result, out_dir, spec.experiment_id if mode == "confidence" else mode)
    if mode != "confidence":
        return
    rows = confidence_table(results)
    table_path = out_dir / "confidence.csv"
    table_path.write_text(
        "\n".join(["label,confidence"] + [f"{l},{c}" for l, c in rows]) + "\n",
        encoding="utf-8",
    )
    for label, conf in rows:
        print(f"{label}: {conf}")
    print(f"wrote {table_path}")


def _cmd_plot(cfg: dict) -> None:
    _require(cfg, "data")
    out_dir = _prepare_out(cfg)
    result = load_records_csv(cfg["data"])
    fit, curve = default_figure(result)
    svg_path = out_dir / (Path(cfg["data"]).stem + ".svg")
    emit_svg(result, fit, curve, svg_path)
    print(f"wrote {svg_path}")


_HANDLERS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "bound": _cmd_bound,
    "exp": _cmd_exp,
    "plot": _cmd_plot,
}


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        _HANDLERS[cfg["subcommand"]](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
