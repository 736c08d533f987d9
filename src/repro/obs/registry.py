"""Process-wide metrics registry: counters, gauges, histograms.

Three instrument kinds cover everything the runtime needs to expose:

- :class:`Counter` -- a monotonically increasing float (ticks run,
  rows emitted, readings dropped);
- :class:`Gauge` -- a last-write-wins float (active workers);
- :class:`Histogram` -- fixed-bucket latency/size distribution with
  Prometheus ``le`` (less-or-equal) bucket semantics.

Hot-path recording is O(1): counters and gauges are a single float
store, histograms a binary search over a fixed boundary tuple.  The
registry is plain-dict get-or-create and is **not** shared across
processes -- a :func:`repro.parallel.parallel_map` worker inherits a
fork-time copy and its recordings stay in the worker (no cross-worker
double counting; the parent's registry only ever sees what the parent
process recorded).

Snapshots are deep, detached copies: mutating the registry after
:meth:`MetricsRegistry.snapshot` never changes an earlier snapshot.
:meth:`MetricsRegistry.reset` drops every instrument; callers holding
an instrument object across a reset keep a detached orphan, so
hot paths should record through the :mod:`repro.obs` module functions
(which re-resolve by name) rather than caching instruments.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Default histogram boundaries, tuned for sub-second code-path
#: latencies (seconds).  The implicit final bucket is +Inf.
DEFAULT_SECONDS_BUCKETS = (
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("Counters only go up; use a Gauge instead.")
        self.value += amount


class Gauge:
    """A value that can go up and down; last write wins."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with ``le`` (<=) bucket semantics.

    ``bounds`` are the finite upper bucket boundaries, ascending; an
    implicit +Inf bucket catches everything above the last bound.  An
    observation equal to a boundary lands in that boundary's bucket
    (Prometheus convention).  Recording is O(log n_buckets) -- one
    binary search and three adds.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "total", "count")

    def __init__(self, name: str, bounds=DEFAULT_SECONDS_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("A histogram needs at least one bucket bound.")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("Bucket bounds must be strictly ascending.")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative_counts(self) -> list[int]:
        """Per-bound cumulative (``le``) counts, +Inf bucket last."""
        running, out = 0, []
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out


class MetricsRegistry:
    """Named get-or-create store for counters, gauges, and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unique(self, name: str, own: dict) -> None:
        for kind, instruments in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if instruments is not own and name in instruments:
                raise ValueError(
                    f"Metric {name!r} is already registered as a {kind}."
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unique(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unique(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds=None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unique(name, self._histograms)
            instrument = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_SECONDS_BUCKETS
            )
        return instrument

    def snapshot(self) -> dict:
        """Detached deep copy of every instrument's current state."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (a fresh run starts from nothing)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
