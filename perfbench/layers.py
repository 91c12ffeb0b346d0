"""Benchmark-side tracing: spans around public calls, and host time
split by ``repro.<package>``.

Spans are recorded only in a traced run and are kept in memory until
the benchmark writes them out.  The profile hook is :mod:`cProfile`;
:func:`host_seconds_by_layer` charges every function's self time to
the package that owns it.  Time in the standard library and builtins
goes to whoever called it, split by the per-caller times the profiler
records, and code in this directory (including the callbacks the
simulator calls back into) is charged to ``bench``.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict
from typing import Dict, Optional

__all__ = ["Spans", "host_seconds_by_layer", "LAYERS"]

#: the layers the benchmark reports, named after ``repro`` packages
LAYERS = ("sim", "hardware", "netstack", "core", "fs", "cluster",
          "query", "algos", "workloads")

_NULL = contextlib.nullcontext()


class Spans:
    """Host-time spans around the benchmark's calls into the program.

    Disabled, :meth:`span` returns one shared no-op context, so an
    untraced run pays a context enter/exit per call and nothing else.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: [name, start, end, parent index or -1]
        self.records = []
        self._open = []

    def span(self, name: str):
        """Context manager timing one call (no-op when disabled)."""
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.records)
        record = [name, time.perf_counter(), None, parent]
        self.records.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self host seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(
                self.records):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out


def _owner(filename: str, src_repro: str, bench_dir: str) -> Optional[str]:
    """``repro`` package (or ``bench``) that owns a source file."""
    if filename.startswith(src_repro):
        head = filename[len(src_repro):].split(os.sep)[0]
        return head[:-3] if head.endswith(".py") else head
    if filename.startswith(bench_dir):
        return "bench"
    return None


def host_seconds_by_layer(stats: dict, src_dir: str,
                          bench_dir: str) -> Dict[str, float]:
    """Self time per owner, from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each caller to the part of the
    callee's counts and times spent on its behalf.
    """
    src_repro = os.path.join(src_dir, "repro") + os.sep
    bench_dir = bench_dir.rstrip(os.sep) + os.sep
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func, active) -> Dict[str, float]:
        cached = memo.get(func)
        if cached is not None:
            return cached
        package = _owner(func[0], src_repro, bench_dir)
        if package is not None:
            share = {package: 1.0}
        else:
            callers = {caller: times for caller, times
                       in stats.get(func, (0, 0, 0, 0, {}))[4].items()
                       if caller != func and caller not in active}
            weights = {caller: times[2] for caller, times
                       in callers.items()}
            if not sum(weights.values()):
                weights = {caller: times[1] for caller, times
                           in callers.items()}
            total = sum(weights.values())
            if not total:
                # No caller recorded: the profiled region's entry,
                # which is the benchmark's own code.
                share = {"bench": 1.0}
            else:
                share = defaultdict(float)
                active.add(func)
                for caller, weight in weights.items():
                    for owner, part in owners(caller, active).items():
                        share[owner] += part * weight / total
                active.discard(func)
                share = dict(share)
        memo[func] = share
        return share

    seconds: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for owner, part in owners(func, set()).items():
            seconds[owner] += tt * part
    return dict(seconds)
