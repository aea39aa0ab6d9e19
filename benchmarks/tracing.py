"""In-memory spans around calls into lowlight_rppg's public functions.

A span records its name, start and end (``perf_counter_ns``), the span
that caused it, the thread it ran on and the operation it belongs to.
The benchmark opens one root span per operation; ``instrument`` replaces
each traced public function, in every package module that binds it, with
a wrapper that opens a child span around the call.  A span opened on a
thread that has no open span of its own (a sweep worker) gets the span
currently open on the operation's thread as its parent.

A span's self time is its duration minus the part of it that its
children cover.  When every span lies inside its parent, the self times
of an operation add up, by construction, to its wall time plus the time
the children of one parent ran concurrently (``parallel overlap``, 0 on
one thread).  So what can go wrong is nesting, which ``summarize_op``
checks.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

ROOT = "bench.op"
PACKAGE = "lowlight_rppg"

# Public functions traced, as "<module>.<function>" of lowlight_rppg.
TRACED = (
    "cli.main",
    "cli.sweep_report",
    "ingest.load_trace_csv",
    "reconstruct.run_pipeline",
    "preprocess.detrend",
    "preprocess.bandpass",
    "selection.update_reference",
    "ssa.decompose",
    "ssa.svd_components",
    "selection.select_candidates",
    "reconstruct.fuse_window",
    "reconstruct.overlap_add",
    "hr.estimate_hr",
    "hr.sliding_hr",
    "metrics.snr",
    "baseline.green_baseline_signal",
    "synth.generate",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    op: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans and counters in memory; one operation open at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation, on the calling thread."""
        self._op = op_id
        self._op_stack = self._stack()
        try:
            with self.span(ROOT):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # Operation-thread stack, read without copying: a worker starts
            # only while its submitter's span is open.
            parent = self._op_stack[-1] if self._op_stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), self._op)
            with self._lock:
                self.spans.append(span)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n


def _count_decompose(tracer: Tracer, dec) -> None:
    tracer.count("ssa.components_kept", len(dec))


def _count_triples(tracer: Tracer, triples) -> None:
    tracer.count("ssa.triples_computed", len(triples))


def _count_selection(tracer: Tracer, sel) -> None:
    tracer.count("selection.candidates", len(sel.candidates))
    tracer.count("selection.mask_accepted", sum(d.accepted for d in sel.decisions))
    tracer.count("selection.fallbacks", int(sel.fallback_used))


# Counters recorded from a traced function's return value.
RESULT_COUNTERS = {
    "ssa.decompose": _count_decompose,
    "ssa.svd_components": _count_triples,
    "selection.select_candidates": _count_selection,
}


def _wrap(tracer: Tracer, name: str, func, on_result):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        if on_result is not None:
            on_result(tracer, result)
        return result
    return traced


def instrument(tracer: Tracer):
    """Patch every traced function where package modules bind it.

    Returns a function that restores the originals.  A traced name the
    package no longer defines is skipped, so its calls read as zero.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    undo = []
    for qualname in TRACED:
        mod_name, func_name = qualname.split(".")
        home = sys.modules.get(f"{PACKAGE}.{mod_name}")
        original = getattr(home, func_name, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, qualname, original, RESULT_COUNTERS.get(qualname))
        for module in modules:
            if vars(module).get(func_name) is original:
                setattr(module, func_name, wrapper)
                undo.append((module, func_name, original))

    def restore():
        for module, func_name, original in reversed(undo):
            setattr(module, func_name, original)
    return restore


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns))
                for c in children[s.id]]
        out[s.id] = s.duration_ns - _union_ns((a, b) for a, b in kids if b > a)
    return out


@dataclass(frozen=True)
class OpSummary:
    """Time accounting of one traced operation, in nanoseconds."""

    wall_ns: int
    self_sum_ns: int
    parallel_overlap_ns: int
    worker_busy_ns: int
    nested: bool  # every child span lies inside its parent


def summarize_op(spans) -> OpSummary:
    """Account for one operation's spans (exactly one root span)."""
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"operation has {len(roots)} root spans, expected 1")
    selfs = self_times(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    overlap = sum(sum(c.duration_ns for c in kids)
                  - _union_ns((c.start_ns, c.end_ns) for c in kids)
                  for kids in children.values())
    nested = all(by_id[s.parent].start_ns <= s.start_ns
                 and s.end_ns <= by_id[s.parent].end_ns
                 for s in spans if s.parent is not None)
    busy = sum(s.duration_ns for s in spans
               if s.parent is not None and s.thread != by_id[s.parent].thread)
    return OpSummary(wall_ns=roots[0].duration_ns, self_sum_ns=sum(selfs.values()),
                     parallel_overlap_ns=overlap, worker_busy_ns=busy, nested=nested)


def layer_totals(spans) -> dict[str, tuple[int, int]]:
    """Span name -> (calls, summed self time in ns)."""
    selfs = self_times(spans)
    calls, self_ns = Counter(), Counter()
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += selfs[s.id]
    return {name: (calls[name], self_ns[name]) for name in calls}
