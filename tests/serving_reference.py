"""The per-container streaming serving chain, kept as the slow reference.

``MonitorlessPolicy(streaming=True)`` and ``FallbackPolicy`` are one-cell
views over :class:`~repro.fleet.policy.FleetPolicy`.  This module keeps
the chain they replaced, so the fleet is compared with an independent
implementation rather than with itself:

- :class:`ContainerStream` -- one container's telemetry stream
  (``agent.open_stream``, including the per-stream dropout, chaos and
  resilience wrappers) feeding its own ``pipeline_.stream()``;
- :class:`ReferenceMonitorlessPolicy` -- one stream per container in
  ``deployment.instances`` order, one classifier call per tick, and the
  lifecycle hook (follow the champion, observe every classified batch);
- :class:`ReferenceFallbackPolicy` -- the scalar per-container
  ``healthy -> degraded -> failsafe -> recovering`` state machine.

Same constructor signatures and ``saturated_services`` surface as the
views, so a test can drive either one through the same loop.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.model import predict_proba_trusted
from repro.reliability.fallback import DEGRADED, FAILSAFE, HEALTHY, RECOVERING
from repro.reliability.telemetry import TelemetryFault

__all__ = [
    "ContainerStream",
    "ReferenceMonitorlessPolicy",
    "ReferenceFallbackPolicy",
]

_STATES = (HEALTHY, DEGRADED, FAILSAFE, RECOVERING)


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
        self.streaming = True
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
                positive = predict_proba_trusted(classifier, batch)[:, 1]
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
                self.agent.open_stream(
                    container, simulation.nodes, history=self.window
                ),
                self.model.pipeline_.stream(),
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

    def __init__(self, primary, secondary, *, staleness_budget=None,
                 failsafe: str = "hold", recovery_ticks: int = 3):
        self.primary = primary
        self.secondary = secondary
        self.staleness_budget = staleness_budget
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
                    staleness = getattr(stream.telemetry, "staleness", 0)
                    if (
                        self.staleness_budget is not None
                        and staleness > self.staleness_budget
                    ):
                        demoted.append((service, container))
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
