"""Span tracing: parent/child timing trees over the runtime's code paths.

A span is one timed region (``orchestrator.tick``,
``fleet.push_rows``, ...).  Spans opened while another span is open become its
children, so one closed-loop tick yields a tree::

    orchestrator.tick
    ├── simulation.step
    ├── policy.saturated_services
    │   └── policy.fleet
    │       ├── fleet.synthesize
    │       ├── fleet.push_rows
    │       └── policy.classify
    └── autoscaler.act

Durations come from :func:`time.perf_counter_ns` (monotonic; immune to
wall-clock steps).  The tracer is single-threaded by design -- the
runtime parallelizes with *processes*, and a forked worker inherits a
fork-time copy whose spans stay in the worker.

Retention is bounded: beyond ``max_spans`` retained spans, finished
spans are timed but not stored (``dropped`` counts them), so tracing a
multi-hour loop cannot grow memory without bound.
"""

from __future__ import annotations

import time

__all__ = ["Span", "Tracer"]


class Span:
    """One finished (or still-open) timed region."""

    __slots__ = ("name", "start_ns", "duration_ns", "children")

    def __init__(self, name: str, start_ns: int):
        self.name = name
        self.start_ns = start_ns
        self.duration_ns = 0
        self.children: list[Span] = []

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_ns": self.duration_ns,
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Collects spans into per-root trees; bounded retention."""

    def __init__(self, max_spans: int = 100_000):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1.")
        self.max_spans = max_spans
        self.roots: list[Span] = []
        self.retained = 0
        self.dropped = 0
        self._stack: list[Span] = []

    def start(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns())
        self._stack.append(span)
        return span

    def end(self) -> Span:
        if not self._stack:
            raise RuntimeError("Tracer.end() without a matching start().")
        span = self._stack.pop()
        span.duration_ns = time.perf_counter_ns() - span.start_ns
        if self.retained >= self.max_spans and not span.children:
            # Past the cap new leaves are dropped, but a span that
            # already holds retained children is kept so no retained
            # subtree becomes unreachable (the overshoot is bounded by
            # the tree depth).
            self.dropped += 1
        else:
            self.retained += 1
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)
        return span

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self.retained = 0
        self.dropped = 0
