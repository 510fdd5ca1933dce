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

from .bound import (
    BoundInapplicableError,
    BoundInput,
    GapReport,
    check_bound,
    epsilon_boost,
    gap,
)
from .data import (
    Dataset,
    SplitPair,
    SyntheticConfig,
    generate_synthetic,
    load_csv_split,
    split_half,
)
from .experiments import (
    RunParams,
    RunRecord,
    SOURCE_REAL,
    SOURCE_SYNTHETIC,
    SweepResult,
    confidence_table,
    default_figure,
    emit_csv,
    emit_svg,
    load_records_csv,
    real_split_seed,
    run_dimension_sweep,
    run_iteration_sweep,
    run_real_data,
    run_sample_size_sweep,
)
from .boosting import error_and_margin, misclassification_rate, train_adaboost
from .perceptron import PerceptronConfig
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
    "delta": 0.05,
    "seed": 42,
    "epochs": 10,
    "t-max": 10,
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


def _feature_header(n: int) -> list[str]:
    return [f"x{j + 1}" for j in range(n)]


def _write_dataset_csv(dataset: Dataset, path: Path) -> None:
    names = list(dataset.feature_names or _feature_header(dataset.n_features))
    lines = [",".join(["label"] + names)]
    for i in range(dataset.n_rows):
        cells = ["1" if dataset.labels[i] > 0 else "-1"]
        cells += [format(v, ".17g") for v in dataset.features[i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_real_halves(cfg: dict, seed: int) -> SplitPair:
    """Load --data and split it with ``seed``; the target defaults to the
    first header cell."""
    _require(cfg, "data")
    path = Path(cfg["data"])
    target = cfg.get("target_column")
    if target is None:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), [])
        if not header:
            raise ValueError(f"{path}: empty header")
        target = header[0].strip()
    positive = cfg.get("positive_value") or "1"
    return load_csv_split(path, target, positive, seed)


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
    value = epsilon_boost(
        BoundInput(rho=cfg["rho"], d=cfg["d"], m=cfg["m"], delta=cfg["delta"])
    )
    text = "+inf" if math.isinf(value) else format(value, ".17g")
    print(text)
    if cfg.get("out"):
        out_dir = _prepare_out(cfg)
        (out_dir / "bound.txt").write_text(text + "\n", encoding="utf-8")


def _cmd_train(cfg: dict) -> None:
    out_dir = _prepare_out(cfg)
    seed = cfg["seed"]
    if cfg.get("data"):
        pair = _load_real_halves(cfg, derive_seed(seed, 1))
        source = SOURCE_REAL
    else:
        _require(cfg, "d", "m")
        dataset = generate_synthetic(
            SyntheticConfig(
                n_features=cfg["d"] - 1,
                m_total=2 * cfg["m"],
                seed=derive_seed(seed, 0),
            )
        )
        pair = split_half(dataset, derive_seed(seed, 1))
        source = SOURCE_SYNTHETIC
    config = PerceptronConfig(epochs=cfg["epochs"], seed=derive_seed(seed, 2))
    trace = train_adaboost(pair.train, cfg["t_max"], config)
    ens = trace.ensemble
    train_error, rho = error_and_margin(ens, pair.train)
    test_error = misclassification_rate(ens, pair.test)
    d = pair.train.n_features + 1
    m = pair.train.n_rows
    try:
        report = check_bound(train_error, test_error, rho, d, m, cfg["delta"])
        applicable = True
    except BoundInapplicableError as exc:
        report = GapReport(
            train_error=train_error,
            test_error=test_error,
            delta_r=gap(train_error, test_error),
            rho=rho,
            epsilon_boost=math.nan,
            holds=False,
        )
        applicable = False
        print(f"note: {exc}")
    record = RunRecord(
        experiment_id="train",
        params=RunParams(
            T=cfg["t_max"], m=m, d=d, delta=cfg["delta"], seed=seed, source=source
        ),
        gap_report=report,
        wall_time_ms=0,
        applicable=applicable,
    )
    emit_csv(
        SweepResult(records=(record,), confidence=None, inapplicable_count=0),
        out_dir / "report.csv",
    )
    print(f"rounds = {cfg['t_max']}  train_rows = {m}  d = {d}")
    print(f"train_error = {train_error:.6f}")
    print(f"test_error = {test_error:.6f}")
    print(f"delta_r = {report.delta_r:.6f}")
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


def _cmd_exp(cfg: dict) -> None:
    mode = cfg["mode"]
    out_dir = _prepare_out(cfg)
    workers = cfg["workers"] or 1
    common = dict(epochs=cfg["epochs"], workers=workers)

    if mode == "t-sweep":
        result = run_iteration_sweep(
            cfg["d"], cfg["m"], cfg["t_max"], cfg["repeats"], cfg["seed"], **common
        )
        _emit_sweep(result, out_dir, "t-sweep")
        return

    if mode == "m-sweep":
        result = run_sample_size_sweep(
            cfg["d"], cfg["m_min"], cfg["m_max"], cfg["m_step"],
            cfg["delta"], cfg["seed"],
            n_repeats=cfg["repeats"], n_rounds=cfg["t_max"], **common,
        )
        _emit_sweep(result, out_dir, "m-sweep")
        return

    if mode == "d-sweep":
        result = run_dimension_sweep(
            cfg["m"], cfg["d_min"], cfg["d_max"], cfg["d_step"],
            cfg["delta"], cfg["seed"],
            n_repeats=cfg["repeats"], n_rounds=cfg["t_max"], **common,
        )
        _emit_sweep(result, out_dir, "d-sweep")
        return

    if mode in ("real-m", "real-d"):
        pair = _load_real_halves(cfg, real_split_seed(cfg["seed"]))
        if mode == "real-m":
            m_max = cfg["m_max"]
            if m_max is None:
                m_max = pair.train.n_rows
            grid = list(range(cfg["m_min"], m_max + 1, cfg["m_step"]))
            result = run_real_data(
                pair, "m-sweep", grid, cfg["delta"], cfg["seed"],
                n_repeats=cfg["repeats"], n_rounds=cfg["t_max"], **common,
            )
        else:
            d_max = cfg["d_max"]
            if d_max is None:
                d_max = pair.train.n_features + 1
            grid = list(range(cfg["d_min"], d_max + 1, cfg["d_step"]))
            result = run_real_data(
                pair, "d-sweep", grid, cfg["delta"], cfg["seed"],
                n_repeats=cfg["repeats"], n_rounds=cfg["t_max"], **common,
            )
        _emit_sweep(result, out_dir, mode)
        return

    if mode == "confidence":
        sweeps: list[SweepResult] = []
        for d in (25, 50, 75, 100):
            result = run_sample_size_sweep(
                d, cfg["m_min"], cfg["m_max"], cfg["m_step"],
                cfg["delta"], cfg["seed"],
                n_repeats=cfg["repeats"], n_rounds=cfg["t_max"], **common,
            )
            _emit_sweep(result, out_dir, f"m-sweep-d{d}")
            sweeps.append(result)
        for m in (500, 1000, 1500, 2000):
            result = run_dimension_sweep(
                m, cfg["d_min"], cfg["d_max"], cfg["d_step"],
                cfg["delta"], cfg["seed"],
                n_repeats=cfg["repeats"], n_rounds=cfg["t_max"], **common,
            )
            _emit_sweep(result, out_dir, f"d-sweep-m{m}")
            sweeps.append(result)
        rows = confidence_table(sweeps)
        table_path = out_dir / "confidence.csv"
        table_path.write_text(
            "\n".join(["label,confidence"] + [f"{l},{c}" for l, c in rows]) + "\n",
            encoding="utf-8",
        )
        for label, conf in rows:
            print(f"{label}: {conf}")
        print(f"wrote {table_path}")
        return

    raise UsageError(f"unknown exp mode {mode!r}")


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
