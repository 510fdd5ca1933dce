"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces the package's public functions with timing
wrappers at every module attribute that holds them, because callers
import them by name (``boosting`` calls its own ``fit_perceptron``
attribute). Spans stay in memory until :meth:`Tracer.flush` appends them
to ``<span_dir>/<pid>.jsonl``; a forked sweep worker flushes whenever its
call stack empties, so nothing is lost when the pool ends the worker.
:func:`read_spans` gathers the files and :func:`layer_metrics` turns one
round's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Public function name -> layer. A name the package no longer has is skipped
# and its layer reads 0.
LAYER = {
    "generate_synthetic": "data.generate",
    "split_half": "data.split",
    "select_features": "data.split",
    "load_csv": "data.load_csv",
    "fit_perceptron": "perceptron.fit",
    "predict_many": "perceptron.predict",
    "weighted_error": "perceptron.predict",
    "train_adaboost": "boosting.train",
    "misclassification_rate": "boosting.eval",
    "l1_margin": "boosting.eval",
    "staged_misclassification_rates": "boosting.eval",
    "check_bound": "bound.check",
    "run_sample_size_sweep": "sweeps.sweep",
    "run_dimension_sweep": "sweeps.sweep",
    "run_iteration_sweep": "sweeps.sweep",
    "run_real_data": "sweeps.sweep",
    "emit_csv": "emitters.write",
    "emit_svg": "emitters.write",
    "default_figure": "emitters.figure",
    "load_records_csv": "emitters.read",
    "dispatch": "cli",
}

METRICS = (
    ("data.generate_s", "s", "lower"),
    ("data.split_s", "s", "lower"),
    ("data.load_csv_s", "s", "lower"),
    ("perceptron.fit_s", "s", "lower"),
    ("perceptron.ns_per_visit", "ns", "lower"),
    ("perceptron.predict_s", "s", "lower"),
    ("boosting.round_self_s", "s", "lower"),
    ("boosting.eval_s", "s", "lower"),
    ("bound.check_s", "s", "lower"),
    ("sweeps.cell_busy_s", "s", "lower"),
    ("sweeps.first_cell_wait_s", "s", "lower"),
    ("sweeps.tail_s", "s", "lower"),
    ("sweeps.utilisation", "ratio", "higher"),
    ("emitters.write_s", "s", "lower"),
    ("emitters.figure_s", "s", "lower"),
    ("emitters.read_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass(frozen=True)
class Span:
    pid: int
    name: str
    start: int  # perf_counter_ns; CLOCK_MONOTONIC, so comparable across processes
    end: int
    sid: int
    parent: int | None
    extra: int  # row-visits for fit_perceptron, workers for a sweep, else 0

    @property
    def layer(self) -> str:
        return LAYER[self.name]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


@dataclass
class _ProcessState:
    worker: bool = False
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    next_id: int = 0


def _extra(name: str, args: tuple, kwargs: dict) -> int:
    if name == "fit_perceptron":
        train = args[0] if args else kwargs["train"]
        config = args[2] if len(args) > 2 else kwargs["config"]
        return train.n_rows * config.epochs
    if LAYER[name] == "sweeps.sweep":
        return int(kwargs.get("workers", 1))
    return 0


class Tracer:
    def __init__(self, span_dir: Path):
        self.span_dir = span_dir
        self.active = False
        self._state = _ProcessState()
        self._saved: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self.active:
            self._state = _ProcessState(worker=True)

    def _wrap(self, fn):
        name, tracer = fn.__name__, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state
            sid, parent = st.next_id, (st.stack[-1] if st.stack else None)
            st.next_id += 1
            st.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                st.stack.pop()
                st.spans.append((name, t0, t1, sid, parent, _extra(name, args, kwargs)))
                if st.worker and not st.stack:
                    tracer.flush()

        return wrapper

    def flush(self) -> None:
        """Append this process's spans to its file in span_dir."""
        st = self._state
        with open(self.span_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in st.spans)
        st.spans.clear()

    def install(self) -> None:
        """Wrap every public function in LAYER wherever a package module holds it."""
        self.span_dir.mkdir(parents=True, exist_ok=True)
        wrappers = {}
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "boostbound"]
        for module in modules:
            for name in LAYER:
                fn = getattr(module, name, None)
                if callable(fn) and getattr(fn, "__module__", "").startswith("boostbound"):
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(fn)
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrappers[fn])
        self._state = _ProcessState()
        self.active = True

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        self.active = False


def read_spans(span_dir: Path) -> list[Span]:
    """Every span flushed to span_dir, which is emptied."""
    spans = []
    for path in sorted(span_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans += [Span(int(path.stem), *json.loads(line)) for line in fh]
        path.unlink()
    return spans


def _busy(spans: list[Span], by_id: dict, layer: str) -> float:
    """Summed duration of a layer's calls, not counting calls nested in its own calls."""
    total = 0
    for s in spans:
        if s.layer != layer:
            continue
        p = by_id.get((s.pid, s.parent))
        while p is not None and p.layer != layer:
            p = by_id.get((p.pid, p.parent))
        if p is None:
            total += s.end - s.start
    return total / 1e9


def _self_time(spans: list[Span], layer: str) -> float:
    """Summed duration of a layer's calls minus their direct traced callees."""
    own = {(s.pid, s.sid): s.end - s.start for s in spans if s.layer == layer}
    for s in spans:
        key = (s.pid, s.parent)
        if key in own:
            own[key] -= s.end - s.start
    return sum(own.values()) / 1e9


def cells(spans: list[Span]) -> list[tuple[int, int]]:
    """Group one process's cell-level spans (in start order) into cells.

    Every cell trains exactly once. A synthetic cell opens with
    generate_synthetic (then split_half), a real-data d cell with
    select_features, a real-data m cell with train_adaboost itself;
    evaluation and bound calls after the training belong to it. A
    split_half that follows no generator is the real-data sweep's own
    split and belongs to no cell. Returns (start, end) per cell.
    """
    out, cur, trained = [], None, False
    for s in spans:
        if s.name in ("generate_synthetic", "select_features", "train_adaboost"):
            if cur is None or trained:
                if cur is not None:
                    out.append(tuple(cur))
                cur, trained = [s.start, s.end], False
            cur[1] = s.end
            trained = trained or s.name == "train_adaboost"
        elif cur is not None and (trained or s.name == "split_half"):
            cur[1] = s.end
    if cur is not None and trained:
        out.append(tuple(cur))
    return out


def layer_metrics(spans: list[Span], main: int) -> dict[str, float]:
    """Per-layer metrics of one round whose commands ran in process ``main``
    (all but trace.overhead_s)."""
    by_id = {(s.pid, s.sid): s for s in spans}
    spans = sorted(spans, key=lambda s: s.start)
    fit_s = _busy(spans, by_id, "perceptron.fit")
    visits = sum(s.extra for s in spans if s.layer == "perceptron.fit")
    busy = first_wait = tail = capacity = 0.0
    for sweep in (s for s in spans if s.layer == "sweeps.sweep" and s.pid == main):
        per_process = [cells([s for s in spans if s.pid == main and s.parent == sweep.sid])]
        workers = sorted({s.pid for s in spans if s.pid != main})
        per_process += [
            cells([s for s in spans if s.pid == w and s.parent is None
                   and sweep.start <= s.start < sweep.end])
            for w in workers
        ]
        per_process = [c for c in per_process if c]
        if not per_process:
            continue
        every = [cell for proc in per_process for cell in proc]
        busy += sum(e - s for s, e in every) / 1e9
        first_wait += (min(s for s, _ in every) - sweep.start) / 1e9
        last_ends = [c[-1][1] for c in per_process]
        tail += (max(last_ends) - min(last_ends)) / 1e9
        capacity += max(1, sweep.extra) * sweep.seconds
    return {
        "data.generate_s": _busy(spans, by_id, "data.generate"),
        "data.split_s": _busy(spans, by_id, "data.split"),
        "data.load_csv_s": _busy(spans, by_id, "data.load_csv"),
        "perceptron.fit_s": fit_s,
        "perceptron.ns_per_visit": fit_s * 1e9 / visits if visits else 0.0,
        "perceptron.predict_s": _busy(spans, by_id, "perceptron.predict"),
        "boosting.round_self_s": _self_time(spans, "boosting.train"),
        "boosting.eval_s": _busy(spans, by_id, "boosting.eval"),
        "bound.check_s": _busy(spans, by_id, "bound.check"),
        "sweeps.cell_busy_s": busy,
        "sweeps.first_cell_wait_s": first_wait,
        "sweeps.tail_s": tail,
        "sweeps.utilisation": busy / capacity if capacity else 0.0,
        "emitters.write_s": _busy(spans, by_id, "emitters.write"),
        "emitters.figure_s": _busy(spans, by_id, "emitters.figure"),
        "emitters.read_s": _busy(spans, by_id, "emitters.read"),
        "cli.self_s": _self_time(spans, "cli"),
    }
