"""The per-container serving chain, kept as the slow reference.

``MonitorlessPolicy`` and ``FallbackPolicy`` are one-cell views over
:class:`~repro.fleet.policy.FleetPolicy`, whose telemetry, fault and
feature layers are kernels over one fleet matrix.  This module keeps a
per-container implementation of every layer, so the fleet is compared
with an independent implementation rather than with itself:

- telemetry -- :class:`InstanceTelemetryStream` synthesizes one
  container's instance rows tick by tick (:func:`synthesize_step`, one
  tick of ``MetricCatalog.synthesize``) into a :class:`MetricStream`
  ring buffer;
- faults -- :class:`DropoutInstanceStream`, :class:`ChaosInstanceStream`
  and :class:`ResilientInstanceStream` wrap a stream the way
  ``MetricDropout``, ``ChaosAgent`` and ``ResilientTelemetry`` wrap an
  agent; :func:`open_reference_stream` builds the stack for an agent;
- features -- :class:`PipelineStream` applies each fitted step's batch
  ``transform`` to a one-row matrix, with the temporal step backed by
  an O(1) :class:`TemporalState`;
- serving -- :class:`ContainerStream` (one container's telemetry and
  pipeline stream), :class:`ReferenceMonitorlessPolicy` (one stream per
  container in ``deployment.instances`` order, one classifier call per
  tick, and the lifecycle hook: follow the champion, observe every
  classified batch) and :class:`ReferenceFallbackPolicy` (the scalar
  per-container ``healthy -> degraded -> failsafe -> recovering`` state
  machine).

The policies have the same constructor signatures and
``saturated_services`` surface as the views, so a test can drive
either one through the same loop.

Equivalence with the batch path: opened at the container's creation
tick, a telemetry stream reproduces ``agent.instance_matrix(container,
nodes)`` row for row, bitwise, except counter *rates* at the first
tick: the batch converter back-fills ``rates[0]`` from the second
sample (non-causal), while a per-tick emitter has no successor yet and
emits 0.  With ``convert_counters=False`` the rows are identical
everywhere.  Stacked :class:`PipelineStream` outputs equal the batch
``pipeline.transform`` of the stacked rows bitwise (to 1e-9 with PCA).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cluster.faults import MetricDropout, _dropout_seed
from repro.reliability.chaos import ChaosAgent, InjectedTelemetryError
from repro.reliability.fallback import DEGRADED, FAILSAFE, HEALTHY, RECOVERING
from repro.reliability.telemetry import (
    BACKOFF_BASE,
    ResilientTelemetry,
    TelemetryFault,
    TelemetryUnavailable,
)
from repro.telemetry.agent import TelemetryAgent, _stream_seed
from repro.telemetry.store import MetricFrame

__all__ = [
    "MetricStream",
    "synthesize_step",
    "InstanceTelemetryStream",
    "DropoutInstanceStream",
    "ChaosInstanceStream",
    "ResilientInstanceStream",
    "open_reference_stream",
    "TemporalState",
    "temporal_tick",
    "PipelineStream",
    "ContainerStream",
    "ReferenceMonitorlessPolicy",
    "ReferenceFallbackPolicy",
]

_STATES = (HEALTHY, DEGRADED, FAILSAFE, RECOVERING)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class MetricStream:
    """A fixed-capacity ring buffer of named metric rows.

    Producers append one row per tick with :meth:`push`; only the most
    recent ``capacity`` rows are retained.  Each row carries a
    *completeness* fraction in [0, 1]: 1.0 for a fully observed reading
    (the default), lower when some or all of the row was imputed.
    """

    def __init__(self, columns: list[str], capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1.")
        if len(set(columns)) != len(columns):
            raise ValueError("Column names must be unique.")
        self.columns = list(columns)
        self.capacity = capacity
        self._buffer = np.zeros((capacity, len(columns)))
        self._completeness = np.ones(capacity)
        self._total = 0  # rows ever pushed

    def __len__(self) -> int:
        """Rows currently retained (<= capacity)."""
        return min(self._total, self.capacity)

    @property
    def total(self) -> int:
        """Rows ever pushed, including rows already evicted."""
        return self._total

    def has_metric(self, name: str) -> bool:
        return name in self.columns

    def _check_row(self, row) -> np.ndarray:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (len(self.columns),):
            raise ValueError(
                f"Expected a row of {len(self.columns)} values, "
                f"got shape {row.shape}."
            )
        return row

    @staticmethod
    def _check_completeness(completeness: float) -> None:
        if not 0.0 <= completeness <= 1.0:
            raise ValueError("completeness must be in [0, 1].")

    def push(self, row, completeness: float = 1.0) -> None:
        """Append one row, evicting the oldest once at capacity."""
        row = self._check_row(row)
        self._check_completeness(completeness)
        slot = self._total % self.capacity
        self._buffer[slot] = row
        self._completeness[slot] = completeness
        self._total += 1

    def amend_last(self, row, completeness: float | None = None) -> None:
        """Replace the most recent row in place (same tick, new values);
        ``completeness`` updates its flag when given."""
        if self._total == 0:
            raise ValueError("Stream is empty; nothing to amend.")
        row = self._check_row(row)
        slot = (self._total - 1) % self.capacity
        self._buffer[slot] = row
        if completeness is not None:
            self._check_completeness(completeness)
            self._completeness[slot] = completeness

    def last(self) -> np.ndarray:
        """The most recent row (a copy)."""
        if self._total == 0:
            raise ValueError("Stream is empty.")
        return self._buffer[(self._total - 1) % self.capacity].copy()

    def last_completeness(self) -> float:
        if self._total == 0:
            raise ValueError("Stream is empty.")
        return float(self._completeness[(self._total - 1) % self.capacity])

    def _slots(self, n: int | None) -> np.ndarray:
        held = len(self)
        if n is None:
            n = held
        if n < 0 or n > held:
            raise ValueError(f"window of {n} rows requested; {held} retained.")
        return np.arange(self._total - n, self._total) % self.capacity

    def window(self, n: int | None = None) -> np.ndarray:
        """The last ``n`` retained rows, oldest first (a copy); asking
        for more rows than are retained is an error."""
        return self._buffer[self._slots(n)]

    def completeness_window(self, n: int | None = None) -> np.ndarray:
        """Per-row completeness flags aligned with :meth:`window`."""
        return self._completeness[self._slots(n)]

    def frame(self, n: int | None = None) -> MetricFrame:
        """The retained tail as a :class:`MetricFrame`."""
        return MetricFrame(self.window(n), list(self.columns))


def synthesize_step(catalog, specs, state_row, rng, counter_accum=None):
    """One tick of ``catalog.synthesize``: ``(values, counter_accum)``.

    The row is ``synthesize_rows`` on a one-row batch; counters add to
    the running ``counter_accum`` (``None`` on the first tick), the
    same sequential additions ``np.cumsum`` performs.
    """
    values = catalog.synthesize_rows(specs, state_row[None, :], [rng])[0]
    counters = catalog.spec_arrays(specs).counter_idx
    if counter_accum is None:
        counter_accum = np.zeros(counters.size)
    if counters.size:
        counter_accum = counter_accum + np.maximum(values[counters], 0.0)
        values[counters] = counter_accum
    return values, counter_accum


class _ScopeStream:
    """Per-tick synthesis state for one spec list (host or container)."""

    def __init__(self, catalog, specs, rng, convert_counters: bool):
        self._catalog = catalog
        self._specs = specs
        self._rng = rng
        self._convert = convert_counters
        self._counter_mask = catalog.spec_arrays(specs).counters
        self._accum: np.ndarray | None = None
        self._previous_cum: np.ndarray | None = None

    def step(self, state_row: np.ndarray) -> np.ndarray:
        """State row -> metric row, counters rate-converted if asked."""
        values, self._accum = synthesize_step(
            self._catalog, self._specs, state_row, self._rng, self._accum
        )
        if self._convert and self._counter_mask.any():
            cumulative = values[self._counter_mask].copy()
            if self._previous_cum is None:
                values[self._counter_mask] = 0.0  # no predecessor yet
            else:
                deltas = cumulative - self._previous_cum
                values[self._counter_mask] = np.maximum(deltas, 0.0)
            self._previous_cum = cumulative
        return values


class InstanceTelemetryStream:
    """Per-tick emission of one container's instance rows ``M_{I,t}``,
    from its creation tick; the newest ``history`` rows are kept in
    :attr:`tail`."""

    def __init__(self, agent: TelemetryAgent, container, nodes,
                 history: int = 16):
        if container.node is None:
            raise ValueError(f"Container {container.name} is not placed.")
        self.agent = agent
        self.container = container
        self.node = nodes[container.node]
        self.start = container.created_at
        catalog = agent.catalog
        self._host = _ScopeStream(
            catalog,
            catalog.host,
            np.random.default_rng(
                _stream_seed(agent.seed, f"host:{self.node.name}:{self.start}")
            ),
            agent.convert_counters,
        )
        self._container = _ScopeStream(
            catalog,
            catalog.container,
            np.random.default_rng(
                _stream_seed(
                    agent.seed, f"container:{container.name}:{self.start}"
                )
            ),
            agent.convert_counters,
        )
        self.tail = MetricStream(catalog.names(), capacity=history)
        self._next = self.start

    @property
    def clock(self) -> int:
        """The next tick :meth:`emit` will produce."""
        return self._next

    def emit(self) -> np.ndarray:
        """Synthesize the next tick's row; the container must already
        have recorded that tick."""
        t = self._next
        if self.container.tick_at(t) is None:
            raise ValueError(
                f"Container {self.container.name} has no recorded tick {t}; "
                "advance the simulation before emitting."
            )
        host_state = self.agent.host_state(self.node, t, t + 1)[0]
        container_state = self.agent.container_state(
            self.container, self.node, t, t + 1
        )[0]
        row = np.concatenate(
            [self._host.step(host_state), self._container.step(container_state)]
        )
        self.tail.push(row)
        obs.inc("telemetry.rows_emitted")
        self._next = t + 1
        return row

    def skip(self) -> None:
        """A missed scrape: advance the clock without synthesizing (no
        RNG draw, no counter accumulation)."""
        self._next += 1
        obs.inc("telemetry.rows_skipped")

    def advance_to(self, end: int) -> np.ndarray | None:
        """Emit every tick before ``end``; the last row, or ``None``."""
        row = None
        while self._next < end:
            row = self.emit()
        return row


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class _Wrapper:
    """Forwards the stream surface to the wrapped stream."""

    @property
    def container(self):
        return self.inner.container

    @property
    def tail(self):
        return self.inner.tail

    @property
    def clock(self) -> int:
        return self.inner.clock

    def skip(self) -> None:
        self.inner.skip()


class DropoutInstanceStream(_Wrapper):
    """Per-tick sample-and-hold dropout (``MetricDropout``): one row of
    uniforms per emit from the batch path's ``blake2b(seed:container)``
    generator, so the masks equal the batch dropout matrix's rows."""

    def __init__(self, dropout: MetricDropout, inner):
        self._dropout = dropout
        self.inner = inner
        self._rng = np.random.default_rng(
            _dropout_seed(dropout.seed, inner.container.name)
        )
        self._held: np.ndarray | None = None

    def emit(self) -> np.ndarray:
        row = self.inner.emit()
        probability = self._dropout.probability
        if probability == 0.0:
            self._held = row
            return row
        dropped = self._rng.random(row.shape) < probability
        if self._held is None:
            dropped[:] = False  # the first sample always exists
        if dropped.any():
            row = row.copy()
            row[dropped] = self._held[dropped]
            self.inner.tail.amend_last(
                row, completeness=1.0 - float(dropped.mean())
            )
            if obs.enabled():
                obs.inc("faults.readings_dropped", float(dropped.sum()))
        self._held = row  # held values chain, as in the batch path
        return row


class ChaosInstanceStream(_Wrapper):
    """Per-tick ``ChaosAgent`` injection: hard and transient failures
    raise, ``nan`` reads corrupt a copy of the delivered row."""

    def __init__(self, chaos: ChaosAgent, inner):
        self.inner = inner
        self.chaos = chaos
        self.name = inner.container.name
        self._delayed_tick: int | None = None

    def emit(self) -> np.ndarray:
        t = self.clock
        mode = self.chaos.stream_mode(self.name, t)
        if mode == "hard":
            obs.inc("chaos.hard_failures")
            raise InjectedTelemetryError(
                f"chaos: telemetry read for {self.name} failed at tick {t}."
            )
        if mode == "transient" and self._delayed_tick != t:
            # The first attempt times out; a retry of the tick succeeds.
            self._delayed_tick = t
            obs.inc("chaos.transient_failures")
            raise InjectedTelemetryError(
                f"chaos: telemetry read for {self.name} delayed at tick {t}."
            )
        row = self.inner.emit()
        if mode == "nan":
            row = row.copy()
            row[self.chaos.nan_columns(self.name, t, row.size)] = np.nan
            self.inner.tail.amend_last(row)
            obs.inc("chaos.nan_rows")
        return row


class ResilientInstanceStream(_Wrapper):
    """Retry / LOCF-imputation / NaN-masking shell (``ResilientTelemetry``).

    ``staleness`` counts consecutive ticks without a real reading;
    ``imputed_ticks``, ``masked_values``, ``retries`` and ``lost_ticks``
    are monotonic counters, mirrored under ``resilience.*`` in ``obs``.
    """

    def __init__(self, inner, *, staleness_budget: int = 5,
                 max_retries: int = 2):
        self.inner = inner
        self.staleness_budget = staleness_budget
        self.max_retries = max_retries
        self.staleness = 0
        self.imputed_ticks = 0
        self.masked_values = 0
        self.retries = 0
        self.lost_ticks = 0
        self._last_real: np.ndarray | None = None

    def emit(self) -> np.ndarray:
        """The next tick's row: real if possible, imputed if allowed;
        :class:`TelemetryUnavailable` otherwise.  The clock advances
        either way."""
        attempt = 0
        while True:
            try:
                row = self.inner.emit()
                break
            except TelemetryFault as error:
                if attempt >= self.max_retries:
                    return self._lost_tick(error)
                delay = BACKOFF_BASE * (2.0 ** attempt)
                self.retries += 1
                attempt += 1
                obs.inc("resilience.retries")
                obs.observe("resilience.retry_backoff_seconds", delay)
        row = self._mask_nans(row)
        self.staleness = 0
        self._last_real = row
        return row

    def _mask_nans(self, row: np.ndarray) -> np.ndarray:
        mask = np.isnan(row)
        if not mask.any():
            return row
        row = row.copy()
        row[mask] = 0.0 if self._last_real is None else self._last_real[mask]
        self.masked_values += int(mask.sum())
        obs.inc("resilience.nan_masked_values", float(mask.sum()))
        self.inner.tail.amend_last(row, completeness=1.0 - float(mask.mean()))
        return row

    def _lost_tick(self, error: BaseException) -> np.ndarray:
        tick = self.inner.clock
        self.inner.skip()
        self.lost_ticks += 1
        self.staleness += 1
        obs.inc("resilience.ticks_lost")
        name = getattr(self.container, "name", "?")
        if self._last_real is None:
            obs.inc("resilience.unavailable")
            raise TelemetryUnavailable(
                f"Telemetry for {name} lost at tick {tick} with no prior "
                f"observation to impute from."
            ) from error
        if self.staleness > self.staleness_budget:
            obs.inc("resilience.unavailable")
            raise TelemetryUnavailable(
                f"Telemetry for {name} stale for {self.staleness} "
                f"consecutive ticks (budget {self.staleness_budget})."
            ) from error
        imputed = self._last_real.copy()
        self.inner.tail.push(imputed, completeness=0.0)
        self.imputed_ticks += 1
        obs.inc("resilience.imputed_ticks")
        obs.set_gauge("resilience.staleness", float(self.staleness))
        return imputed


def open_reference_stream(agent, container, nodes, history: int = 16):
    """The per-container stream stack for ``agent``.

    Unwraps ``ResilientTelemetry -> ChaosAgent -> MetricDropout ->
    TelemetryAgent`` (any subsequence) the way the fleet does, and
    wraps an :class:`InstanceTelemetryStream` in the matching stream
    wrappers, innermost first.
    """
    layers = []
    while type(agent) is not TelemetryAgent:
        layers.append(agent)
        agent = agent.agent
    stream = InstanceTelemetryStream(agent, container, nodes, history=history)
    for layer in reversed(layers):
        if isinstance(layer, MetricDropout):
            stream = DropoutInstanceStream(layer, stream)
        elif isinstance(layer, ChaosAgent):
            stream = ChaosInstanceStream(layer, stream)
        elif isinstance(layer, ResilientTelemetry):
            stream = ResilientInstanceStream(
                stream,
                staleness_budget=layer.staleness_budget,
                max_retries=layer.max_retries,
            )
        else:
            raise TypeError(f"No reference stream for {type(layer).__name__}.")
    return stream


# ----------------------------------------------------------------------
# Features
# ----------------------------------------------------------------------
class TemporalState:
    """O(1)-per-tick rolling state for one series' AVG/LAG features.

    Holds the running cumulative sum (the same sequential additions
    ``np.cumsum`` performs, so trailing averages as cumulative
    differences are bitwise equal to the batch path), ring buffers of
    the last ``max(windows) + 1`` cumulative rows and raw rows, and
    the series' first row (batch lag warm-up repeats it).
    """

    def __init__(self, n_columns: int, windows: tuple[int, ...]):
        self.t = 0
        max_window = max(windows) if windows else 1
        self.cumulative = np.zeros(n_columns)
        self._cum_ring = np.zeros((max_window + 2, n_columns))
        self._raw_ring = np.zeros((max_window + 1, n_columns))
        self.first_row: np.ndarray | None = None

    def cumulative_before(self, t: int) -> np.ndarray:
        """The cumulative row after tick ``t`` (still retained)."""
        return self._cum_ring[t % self._cum_ring.shape[0]]

    def raw_at(self, t: int) -> np.ndarray:
        """The source row of tick ``t`` (still retained)."""
        return self._raw_ring[t % self._raw_ring.shape[0]]

    def window_extremes(self, t: int, x_value: int):
        """Per-column (min, max) over the trailing ``x_value + 1`` rows
        ending at tick ``t`` (warm-up shortened)."""
        count = min(x_value, t) + 1
        rows = np.stack([self.raw_at(t - i) for i in range(count)])
        return rows.min(axis=0), rows.max(axis=0)

    def push(self, source: np.ndarray) -> None:
        self.cumulative = self.cumulative + source
        self._cum_ring[self.t % self._cum_ring.shape[0]] = self.cumulative
        self._raw_ring[self.t % self._raw_ring.shape[0]] = source
        if self.t == 0:
            self.first_row = source.copy()
        self.t += 1


def temporal_tick(temporal, row: np.ndarray, state: TemporalState):
    """One row through a fitted ``TemporalFeatures``: the row with its
    AVG/LAG columns appended, bitwise equal to the matching row of the
    batch ``transform`` over the whole series."""
    if not temporal.columns_:
        return row
    source = row[temporal.columns_]
    state.push(source)
    t = state.t - 1  # 0-based index of the row just pushed
    blocks = [row]
    for x_value in temporal.windows:
        if t > x_value:
            averaged = (
                state.cumulative - state.cumulative_before(t - x_value - 1)
            ) / (x_value + 1)
        else:
            averaged = state.cumulative / (t + 1)
        # The batch path's window-extremes clamp.
        lo, hi = state.window_extremes(t, x_value)
        blocks.append(np.clip(averaged, lo, hi))
        if t >= x_value:
            blocks.append(state.raw_at(t - x_value).copy())
        else:
            blocks.append(state.first_row.copy())
    return np.concatenate(blocks)


class PipelineStream:
    """Per-tick execution of a fitted ``MonitorlessPipeline``.

    Each stateless step applies its batch ``transform`` to a one-row
    matrix; the temporal step keeps a :class:`TemporalState`.  NaN
    inputs are masked to the last clean input (0.0 before one exists)
    and counted as imputed, like ``FleetPipelineStream``.
    """

    def __init__(self, pipeline):
        if not hasattr(pipeline, "variance_"):
            raise RuntimeError("Pipeline must be fit_transform-ed first.")
        self.pipeline = pipeline
        temporal = pipeline.temporal_
        self.temporal_state = (
            TemporalState(len(temporal.columns_), temporal.windows)
            if temporal is not None
            else None
        )
        self.ticks = 0
        self.imputed_ticks = 0
        self._last_clean: np.ndarray | None = None

    def push(self, row, imputed: bool = False) -> np.ndarray:
        """One raw metric row -> one engineered feature row."""
        pipeline = self.pipeline
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError("push expects a single 1-D metric row.")
        nan_mask = np.isnan(row)
        if nan_mask.any():
            row = row.copy()
            row[nan_mask] = (
                0.0 if self._last_clean is None else self._last_clean[nan_mask]
            )
            imputed = True
        self._last_clean = row
        self.imputed_ticks += bool(imputed)
        self.ticks += 1
        X, meta = pipeline.binary_.transform(
            row[None, :], pipeline.binary_.input_meta_
        )
        X, meta = pipeline.log_.transform(X, meta)
        if pipeline.scaler_ is not None:
            X = pipeline.scaler_.transform(X)
        if pipeline.reduction1_ is not None:
            X, meta = pipeline.reduction1_.transform(X, meta)
        if pipeline.temporal_ is not None:
            X = temporal_tick(
                pipeline.temporal_, X[0], self.temporal_state
            )[None, :]
            meta = meta + pipeline.temporal_.derived_meta_
        if pipeline.interactions_ is not None:
            X, meta = pipeline.interactions_.transform(X, meta)
        if pipeline.reduction2_ is not None:
            X, meta = pipeline.reduction2_.transform(X, meta)
        X, _ = pipeline.variance_.transform(X, meta)
        return X[0]


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class ContainerStream:
    """One container's live data path: telemetry stream + pipeline stream."""

    __slots__ = ("telemetry", "features", "last_features", "last_complete")

    def __init__(self, telemetry, features):
        self.telemetry = telemetry
        self.features = features
        self.last_features: np.ndarray | None = None
        self.last_complete: float = 1.0

    def catch_up(self, end: int) -> np.ndarray | None:
        """Consume every unseen tick up to ``end``; O(new ticks).

        Rows flagged incomplete by the telemetry layer (imputed or
        masked readings) are pushed with ``imputed=True`` so the
        pipeline can account for them.
        """
        telemetry = self.telemetry
        while telemetry.clock < end:
            row = telemetry.emit()
            self.last_complete = telemetry.tail.last_completeness()
            self.last_features = self.features.push(
                row, imputed=self.last_complete < 1.0
            )
        return self.last_features


class ReferenceMonitorlessPolicy:
    """Per-container streaming monitorless detector."""

    name = "monitorless"

    def __init__(self, model, agent, window: int = 16, streaming: bool = True,
                 lifecycle=None):
        if not streaming:
            raise ValueError("The reference chain is the streaming path.")
        self.model = model
        self.agent = agent
        self.window = window
        self.lifecycle = lifecycle
        self._streams: dict[str, ContainerStream] = {}

    def _classify(self, services, current_rows, t=None, completeness=None):
        if not current_rows:
            return set()
        if (
            self.lifecycle is not None
            and self.lifecycle.champion is not self.model
        ):
            # A promotion happened since the last tick; the pipeline is
            # frozen within a lineage, so live streams stay valid.
            self.model = self.lifecycle.champion
        with obs.trace("policy.classify"):
            batch = np.vstack(current_rows)
            classifier = self.model.classifier_
            if hasattr(classifier, "predict_proba"):
                positive = classifier.predict_proba(batch)[:, 1]
                flags = positive >= self.model.prediction_threshold
            else:
                flags = np.asarray(classifier.predict(batch)) == 1
        if self.lifecycle is not None and t is not None:
            self.lifecycle.observe(t, batch, flags, completeness)
        saturated = {
            service for service, flag in zip(services, flags) if flag
        }
        if obs.enabled():
            obs.inc("policy.classified_instances", len(services))
            obs.inc("policy.saturation_verdicts", len(saturated))
        return saturated

    def stream_for(self, container, simulation) -> ContainerStream:
        stream = self._streams.get(container.name)
        if stream is None:
            stream = ContainerStream(
                open_reference_stream(
                    self.agent, container, simulation.nodes,
                    history=self.window,
                ),
                PipelineStream(self.model.pipeline_),
            )
            self._streams[container.name] = stream
        return stream

    def drop_retired(self, live: set[str]) -> None:
        """Forget the streams of replicas that left (scale-in)."""
        if not self._streams.keys() <= live:
            for name in [n for n in self._streams if n not in live]:
                del self._streams[name]

    def saturated_services(self, simulation, application: str, t: int):
        deployment = simulation.deployments[application]
        services: list[str] = []
        current_rows: list[np.ndarray] = []
        completeness: list[float] = []
        live: set[str] = set()
        for service, replicas in deployment.instances.items():
            for instance in replicas:
                container = instance.container
                live.add(container.name)
                end = container.created_at + len(container.history)
                if end <= container.created_at:
                    continue  # no samples yet
                stream = self.stream_for(container, simulation)
                features = stream.catch_up(end)
                if features is not None:
                    services.append(service)
                    current_rows.append(features)
                    completeness.append(stream.last_complete)
        self.drop_retired(live)
        return self._classify(
            services, current_rows, t=t, completeness=completeness
        )


class ReferenceFallbackPolicy:
    """Per-container monitorless -> thresholds -> fail-safe chain."""

    name = "fallback"

    def __init__(self, primary, secondary, *, failsafe: str = "hold",
                 recovery_ticks: int = 3):
        self.primary = primary
        self.secondary = secondary
        self.failsafe = failsafe
        self.recovery_ticks = recovery_ticks
        self.health: dict[str, str] = {}
        self.demotions = 0
        self.recoveries = 0
        self.failsafe_entries = 0
        self.failsafe_ticks = 0
        self.last_classifier_error: str | None = None
        self._streak: dict[str, int] = {}

    def _record_outcome(self, name: str, outcome: str) -> None:
        state = self.health.get(name, HEALTHY)
        if outcome == "primary":
            if state == HEALTHY:
                new = HEALTHY
            else:
                streak = self._streak.get(name, 0) + 1 if state == RECOVERING else 1
                if streak >= self.recovery_ticks:
                    new = HEALTHY
                    self.recoveries += 1
                    obs.inc("fallback.recoveries")
                    self._streak.pop(name, None)
                else:
                    new = RECOVERING
                    self._streak[name] = streak
        elif outcome == "secondary":
            if state in (HEALTHY, RECOVERING):
                self.demotions += 1
                obs.inc("fallback.demotions")
            new = DEGRADED
            self._streak.pop(name, None)
        else:  # fail-safe
            if state != FAILSAFE:
                self.failsafe_entries += 1
                obs.inc("fallback.failsafe_entries")
            self.failsafe_ticks += 1
            obs.inc("fallback.failsafe_ticks")
            new = FAILSAFE
            self._streak.pop(name, None)
        self.health[name] = new

    def _export_gauges(self) -> None:
        if not obs.enabled():
            return
        counts = dict.fromkeys(_STATES, 0)
        for state in self.health.values():
            counts[state] += 1
        for state, count in counts.items():
            obs.set_gauge(f"fallback.containers_{state}", float(count))

    def saturated_services(self, simulation, application: str, t: int):
        with obs.trace("policy.fallback"):
            deployment = simulation.deployments[application]
            live: set[str] = set()
            # (service, container, features, completeness) for
            # containers whose primary data path delivered this tick.
            primary_items: list = []
            demoted: list = []  # (service, container)
            for service, replicas in deployment.instances.items():
                for instance in replicas:
                    container = instance.container
                    live.add(container.name)
                    end = container.created_at + len(container.history)
                    if end <= container.created_at:
                        continue  # no samples yet
                    stream = self.primary.stream_for(container, simulation)
                    try:
                        features = stream.catch_up(end)
                    except TelemetryFault:
                        demoted.append((service, container))
                        continue
                    if features is None:
                        continue
                    primary_items.append(
                        (service, container, features, stream.last_complete)
                    )

            self.primary.drop_retired(live)
            if not self.health.keys() <= live:
                for name in [n for n in self.health if n not in live]:
                    del self.health[name]
                    self._streak.pop(name, None)

            try:
                saturated = self.primary._classify(
                    [service for service, _, _, _ in primary_items],
                    [features for _, _, features, _ in primary_items],
                    t=t,
                    completeness=[
                        complete for _, _, _, complete in primary_items
                    ],
                )
            except Exception as error:
                # The classifier itself failed: every primary candidate
                # falls through to the secondary this tick.
                self.last_classifier_error = type(error).__name__
                obs.inc("fallback.classifier_errors")
                obs.inc(
                    "fallback.classifier_error"
                    f"{{type={type(error).__name__}}}"
                )
                saturated = set()
                demoted.extend(
                    (service, container)
                    for service, container, _, _ in primary_items
                )
            else:
                for _, container, _, _ in primary_items:
                    self._record_outcome(container.name, "primary")

            for service, container in demoted:
                try:
                    verdict = self.secondary.instance_saturated(
                        container, simulation
                    )
                except Exception:
                    self._record_outcome(container.name, "failsafe")
                    if self.failsafe == "scale-up":
                        saturated.add(service)
                else:
                    self._record_outcome(container.name, "secondary")
                    if verdict:
                        saturated.add(service)

            self._export_gauges()
        return saturated
