"""Runtime observability: metrics registry, span tracing, exporters.

Zero-dependency instrumentation for the repro runtime itself -- the
streaming pipeline, the closed-loop orchestrator, forest fit/predict,
the process pool, telemetry emission, and fault injection all record
through this module (the paper infers *application* health from cheap
platform signals; this layer gives the reproduction's own runtime the
same courtesy).

Everything is **disabled by default** and the disabled path is a single
attribute check per hook, so instrumented hot loops pay near-zero
overhead until someone opts in (``benchmarks/bench_obs.py`` holds the
disabled-mode loop to <=2% overhead):

>>> from repro import obs
>>> obs.enable()
>>> with obs.trace("my.region"):
...     obs.inc("my.events")
>>> obs.snapshot()["counters"]["my.events"]
1.0

Hooks (:func:`inc`, :func:`set_gauge`, :func:`observe`, :func:`trace`)
re-resolve instruments by name on every call, so :func:`reset` gives a
clean slate without stale-handle hazards.  State is process-local:
:func:`repro.parallel.parallel_map` workers inherit a fork-time copy
and their recordings stay worker-side -- the parent's snapshot never
double-counts (the pool reports parent-side queue-wait/execute
timings instead).

Export via :func:`metrics_to_json` / :func:`metrics_to_prometheus` /
:func:`render_span_tree`, or from the command line with
``python -m repro obs`` and the ``--trace`` flag on ``stream`` /
``train`` / ``evaluate``.
"""

from __future__ import annotations

import functools

from repro.obs.export import (
    aggregate_spans,
    metrics_to_json,
    metrics_to_prometheus,
    render_span_tree,
)
from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "inc",
    "set_gauge",
    "observe",
    "trace",
    "traced",
    "registry",
    "tracer",
    "snapshot",
    "span_roots",
    "dropped_spans",
    "metrics_to_json",
    "metrics_to_prometheus",
    "render_span_tree",
    "aggregate_spans",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "DEFAULT_SECONDS_BUCKETS",
]


class _ObsState:
    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


_STATE = _ObsState()


class _NullSpanContext:
    """Shared no-op context manager returned by :func:`trace` when off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        return self._tracer.start(self._name)

    def __exit__(self, *exc_info):
        self._tracer.end()
        return False


# ---------------------------------------------------------------------------
# Switch
# ---------------------------------------------------------------------------
def enabled() -> bool:
    """Is observability recording right now?"""
    return _STATE.enabled


def enable() -> None:
    """Turn recording on."""
    _STATE.enabled = True


def disable() -> None:
    """Stop recording; accumulated state stays readable until reset."""
    _STATE.enabled = False


def reset() -> None:
    """Drop every metric and span (the switch position is unchanged)."""
    _STATE.registry.reset()
    _STATE.tracer.reset()


# ---------------------------------------------------------------------------
# Hot-path hooks -- each is one attribute check when disabled.
# ---------------------------------------------------------------------------
def inc(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.gauge(name).set(value)


def observe(name: str, value: float, bounds=None) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.histogram(name, bounds).observe(value)


def trace(name: str):
    """Context manager timing one region as a span.

    While disabled this returns a shared no-op context manager; while
    enabled, spans opened inside another open span become its children.
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return _SpanContext(_STATE.tracer, name)


def traced(name: str):
    """Decorator form of :func:`trace` for whole-function spans."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not _STATE.enabled:
                return func(*args, **kwargs)
            tracer = _STATE.tracer
            tracer.start(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end()

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Introspection
# ---------------------------------------------------------------------------
def registry() -> MetricsRegistry:
    return _STATE.registry


def tracer() -> Tracer:
    return _STATE.tracer


def snapshot() -> dict:
    """Detached copy of every counter/gauge/histogram."""
    return _STATE.registry.snapshot()


def span_roots() -> list[Span]:
    """Finished top-level spans, in completion order."""
    return list(_STATE.tracer.roots)


def dropped_spans() -> int:
    """Spans timed but not retained (beyond the tracer cap)."""
    return _STATE.tracer.dropped
