"""One round of a workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/timed_round.py '<spec JSON>'

The spec holds ``warmup`` and ``argvs`` (lists of ``boostbound`` argument
lists) and ``span_dir`` (null, or where a traced round writes its spans).
The warm-up commands run first; then the ``argvs`` run through
``boostbound.cli.dispatch`` and are timed. A fresh process per round keeps
one round's heap, caches and pool from reaching the next, so a round's
peak resident set is its own. Prints one JSON line: the perf_counter time
the warm-up returned (``ready``), the timed ``wall`` and ``cpu`` seconds,
``rss_mb``, ``pid`` and each command's exit code and captured output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has reaped."""
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child (Linux: KiB)."""
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(s.ru_maxrss, c.ru_maxrss) / 1024.0


def dispatch_all(argvs: list[list[str]]) -> list[dict]:
    from boostbound import cli

    done = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)  # looked up per call, so a traced round sees the wrapper
        done.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return done


def main() -> None:
    spec = json.loads(sys.argv[1])
    for argv, result in zip(spec["warmup"], dispatch_all(spec["warmup"])):
        if result["code"] != 0:
            sys.exit(f"warm-up {' '.join(argv)} exited {result['code']}: {result['stderr']}")
    ready = time.perf_counter()

    tracer = None
    if spec["span_dir"] is not None:
        from tracing import Tracer

        tracer = Tracer(Path(spec["span_dir"]))
        tracer.install()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    commands = dispatch_all(spec["argvs"])
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        tracer.flush()
    print(json.dumps({"ready": ready, "wall": wall, "cpu": cpu, "rss_mb": rss,
                      "pid": os.getpid(), "commands": commands}))


if __name__ == "__main__":
    main()
