"""Per-layer tracing from outside the program.

Each layer entry point in :data:`ENTRIES` is wrapped, for the duration
of one traced flow, by a function that records a span (name, parent,
start, end, process CPU time) and, for a few entries, counts of the work
passed in.  Module-level functions are replaced at every module
attribute that binds them, so ``from .legalize import legalize`` call
sites are covered; methods are replaced on their class.  Leaving
:func:`installed` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

Counter = Callable[[Mapping[str, Any]], Mapping[str, float]]


def _dense_cells(args: Mapping[str, Any]) -> Mapping[str, float]:
    n_rows = len(args["cost"])
    caps = sum(min(int(u), n_rows) for u in args["capacities"])
    return {"opt.mincostflow.dense_cells": float(n_rows * caps)}


def _pairs(args: Mapping[str, Any]) -> Mapping[str, float]:
    return {"rotary.tapping_vec.pairs": float(len(args["ring_ids"]))}


def _chunks(args: Mapping[str, Any]) -> Mapping[str, float]:
    # Mirrors the dispatch rule of repro.parallel.pool: chunks go to the
    # pool only when there is more than one worker and more than one chunk.
    n = len(args["bounds"])
    return {"parallel.pool.chunks": float(n if args["jobs"] > 1 and n > 1 else 0)}


@dataclass(frozen=True)
class Entry:
    name: str
    module: str
    #: ``function`` or ``Class.method``.
    attr: str
    counter: Counter | None = None


ENTRIES: tuple[Entry, ...] = (
    Entry("placement.quadratic.place", "repro.placement.quadratic", "QuadraticPlacer.place"),
    Entry(
        "placement.quadratic.set_net_weights",
        "repro.placement.quadratic",
        "QuadraticPlacer.set_net_weights",
    ),
    Entry("placement.legalize.legalize", "repro.placement.legalize", "legalize"),
    Entry(
        "placement.incremental.incremental_place",
        "repro.placement.incremental",
        "incremental_place",
    ),
    Entry("timing.sta_vec.build", "repro.timing.sta_vec", "TimingStructure.build"),
    Entry("timing.sta_vec.analyze", "repro.timing.sta_vec", "VectorizedTiming.analyze"),
    Entry("timing.critical.extract", "repro.timing.critical", "CriticalPathExtractor.extract"),
    Entry(
        "core.skew_traditional.max_slack_schedule",
        "repro.core.skew_traditional",
        "max_slack_schedule",
    ),
    Entry(
        "core.skew_cost_driven.cost_driven_schedule",
        "repro.core.skew_cost_driven",
        "cost_driven_schedule",
    ),
    Entry("core.cost.matrix", "repro.core.cost", "TappingCostCache.matrix"),
    Entry(
        "core.assignment_flow.network_flow_assignment",
        "repro.core.assignment_flow",
        "network_flow_assignment",
    ),
    Entry("core.assignment_ilp.ilp_assignment", "repro.core.assignment_ilp", "ilp_assignment"),
    Entry(
        "opt.mincostflow.solve_transportation",
        "repro.opt.mincostflow",
        "solve_transportation",
        _dense_cells,
    ),
    Entry("opt.lp.solve", "repro.opt.lp", "LinearProgram.solve"),
    Entry(
        "rotary.tapping_vec.batch_solve_rings",
        "repro.rotary.tapping_vec",
        "batch_solve_rings",
        _pairs,
    ),
    Entry("parallel.pool.run_chunk_tasks", "repro.parallel.pool", "run_chunk_tasks", _chunks),
    Entry(
        "parallel.pool.run_kernel_chunks", "repro.parallel.pool", "run_kernel_chunks", _chunks
    ),
    Entry("analysis.checker.run_checks", "repro.analysis.checker", "run_checks"),
)

#: Work counts the wrappers derive from call arguments.
ARG_COUNTS: tuple[str, ...] = (
    "opt.mincostflow.dense_cells",
    "rotary.tapping_vec.pairs",
    "parallel.pool.chunks",
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    #: Index of the traced flow the span belongs to.
    flow: int
    thread: int
    start: float
    end: float
    cpu: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans and argument-derived counts in memory.

    Wrappers record only while :attr:`flow` is set (see :meth:`flow_scope`).
    A span opened on a pool thread outside any span of its own thread takes
    the innermost open span of the owning thread as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Argument-derived work counts keyed by ``(flow, name)``.
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.flow: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def flow_scope(self, index: int) -> Iterator[None]:
        self.flow = index
        try:
            yield
        finally:
            self.flow = None

    def wrap(self, name: str, fn: Callable[..., Any], counter: Counter | None) -> Callable[..., Any]:
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            flow = self.flow
            if flow is None:
                return fn(*args, **kwargs)
            if signature is not None and counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    for key, value in counter(bound.arguments).items():
                        self.counts[(flow, key)] += value
            stack = self._stack()
            if stack:
                parent: int | None = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu0
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, name, flow, threading.get_ident(), start, end, cpu)
                )

        return wrapper


def _owner(entry: Entry) -> tuple[object, str]:
    module = importlib.import_module(entry.module)
    if "." in entry.attr:
        cls_name, attr = entry.attr.split(".")
        return getattr(module, cls_name), attr
    return module, entry.attr


@contextmanager
def installed(tracer: Tracer, entries: Iterable[Entry] = ENTRIES) -> Iterator[None]:
    """Wrap every entry point for the duration of the block."""
    patches: list[tuple[object, str, object]] = []
    try:
        for entry in entries:
            owner, attr = _owner(entry)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped: object = staticmethod(tracer.wrap(entry.name, raw.__func__, entry.counter))
                else:
                    wrapped = tracer.wrap(entry.name, raw, entry.counter)
                patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = tracer.wrap(entry.name, fn, entry.counter)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, key, fn))
                        setattr(module, key, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reached = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reached)
        if hi > lo:
            total += hi - lo
            reached = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.id: span.duration
        - covered(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]
        )
        for span in spans
    }


def unattributed(spans: Iterable[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end)`` that no top-level span covers."""
    tops = ((max(s.start, start), min(s.end, end)) for s in spans if s.parent is None)
    return (end - start) - covered(tops)
