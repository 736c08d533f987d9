"""Per-tick saturation-detection policies for the closed loop.

A policy inspects the live cluster at tick ``t`` and returns the set
of *service names* it considers saturated.  Four families mirror the
paper's Table-7 comparison:

- :class:`MonitorlessPolicy` -- the trained model applied to a short
  window of live platform metrics per container (application
  knowledge: none);
- :class:`ThresholdPolicy` -- static CPU/MEM utilization thresholds
  (the optimally-tuned baselines);
- :class:`ResponseTimePolicy` -- the "optimal" RT-based scaler that
  watches the end-to-end application KPI directly (requires exactly
  the application-level monitoring monitorless is designed to avoid);
- :class:`NoScalingPolicy` -- the static worst-case baseline.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cluster.simulation import ClusterSimulation
from repro.core.model import MonitorlessModel, predict_proba_trusted
from repro.core.thresholds import ThresholdBaseline
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.catalog import CONTAINER_CHANNELS

__all__ = [
    "MonitorlessPolicy",
    "ThresholdPolicy",
    "ResponseTimePolicy",
    "NoScalingPolicy",
]


class NoScalingPolicy:
    """Never reports saturation (the paper's static baseline)."""

    name = "no-scaling"

    def saturated_services(
        self, simulation: ClusterSimulation, application: str, t: int
    ) -> set[str]:
        return set()


class MonitorlessPolicy:
    """The monitorless detector over live platform metrics.

    Two data paths produce the per-container verdicts:

    - **batch** (``streaming=False``, the historical default): each
      tick, every container's last ``window`` seconds of metrics are
      re-synthesized and re-transformed from scratch -- O(window) work
      per container per tick;
    - **streaming** (``streaming=True``): a one-cell view over a
      private :class:`~repro.fleet.policy.FleetPolicy` (:attr:`fleet`).
      The first :meth:`saturated_services` call registers
      ``(simulation, application)`` as the fleet's only cell, named
      after the application; each tick only the *new* rows are
      synthesized and pushed -- O(1) per container per tick.  Replicas
      created mid-run are caught up from their creation tick, so their
      temporal features warm up exactly as the batch path's shortened
      windows do.  A later call with another simulation or application
      raises :class:`ValueError`.

    The classifier is invoked once per tick on all containers' current
    feature rows (per-call overhead dominates at per-tick batch sizes).

    Parameters
    ----------
    model:
        A fitted :class:`MonitorlessModel`.
    agent:
        Telemetry agent (must use the catalog the model was trained on).
    window:
        Seconds of history per batch-mode prediction; must cover the
        model's longest temporal feature (the paper uses 15 s + the
        current sample).  Streaming mode keeps per-row rolling state
        instead and does not use it.
    streaming:
        Select the incremental data path.
    lifecycle:
        Optional :class:`~repro.lifecycle.manager.LifecycleManager`;
        requires ``streaming=True``.  When attached, the fleet follows
        its champion (promotions swap the serving model between ticks)
        and reports every classified batch to it; the manager's
        challenger shadow-scores the same batch but never influences
        the returned verdicts.  ``None`` (default) leaves the serving
        path byte-identical to a lifecycle-free policy.
    """

    name = "monitorless"

    def __init__(
        self,
        model: MonitorlessModel,
        agent: TelemetryAgent,
        window: int = 16,
        streaming: bool = False,
        lifecycle=None,
    ):
        if window < 1:
            raise ValueError("window must be >= 1.")
        if lifecycle is not None and not streaming:
            raise ValueError(
                "A lifecycle manager requires the streaming data path "
                "(streaming=True)."
            )
        self.agent = agent
        self.window = window
        self.streaming = streaming
        self.meta = agent.catalog.feature_meta()
        self._model = None if streaming else model  # batch mode's
        #: The private one-cell fleet serving streaming mode (``None``
        #: in batch mode).
        self.fleet = None
        if streaming:
            from repro.fleet.policy import FleetPolicy

            self.fleet = FleetPolicy(
                model, catalog=agent.catalog, lifecycle=lifecycle
            )
        self._cell: tuple | None = None  # (simulation, application)

    @property
    def model(self) -> MonitorlessModel:
        """The serving model; in streaming mode the fleet's, which
        follows lifecycle promotions."""
        return self._model if self.fleet is None else self.fleet.model

    @model.setter
    def model(self, model: MonitorlessModel) -> None:
        if self.fleet is None:
            self._model = model
        else:
            self.fleet.model = model

    @property
    def lifecycle(self):
        return None if self.fleet is None else self.fleet.lifecycle

    def _serve(self, simulation, application: str, t: int,
               secondary=None) -> set[str]:
        """The one-cell fleet's verdict; registers the cell on first use."""
        if self._cell is None:
            self.fleet.add_cell(
                application, simulation, application, self.agent,
                secondary=secondary,
            )
            self._cell = (simulation, application)
        elif self._cell[0] is not simulation or self._cell[1] != application:
            raise ValueError(
                f"This policy serves application {self._cell[1]!r} of the "
                "simulation it first saw; build one policy per cell."
            )
        return {service for _, service in self.fleet.saturated_services(t)}

    def _classify(
        self, services: list[str], current_rows: list[np.ndarray]
    ) -> set[str]:
        if not current_rows:
            return set()
        with obs.trace("policy.classify"):
            batch = np.vstack(current_rows)
            classifier = self.model.classifier_
            if hasattr(classifier, "predict_proba"):
                # Rows come straight from the fitted pipeline; skip the
                # per-call check_array re-validation.
                positive = predict_proba_trusted(classifier, batch)[:, 1]
                flags = positive >= self.model.prediction_threshold
            else:
                flags = np.asarray(classifier.predict(batch)) == 1
        saturated = {
            service for service, flag in zip(services, flags) if flag
        }
        if obs.enabled():
            obs.inc("policy.classified_instances", len(services))
            obs.inc("policy.saturation_verdicts", len(saturated))
        return saturated

    def saturated_services(
        self, simulation: ClusterSimulation, application: str, t: int
    ) -> set[str]:
        if self.fleet is not None:
            return self._serve(simulation, application, t)
        deployment = simulation.deployments[application]
        services: list[str] = []
        current_rows: list[np.ndarray] = []
        for service, replicas in deployment.instances.items():
            for instance in replicas:
                container = instance.container
                end = container.created_at + len(container.history)
                if end <= container.created_at:
                    continue  # no samples yet
                start = max(container.created_at, end - self.window)
                window_matrix = self.agent.instance_matrix(
                    container, simulation.nodes, start=start, end=end
                )
                features = self.model.transform(window_matrix, self.meta)
                services.append(service)
                current_rows.append(features[-1])
        return self._classify(services, current_rows)


class ThresholdPolicy:
    """Static-threshold detector over live container utilizations."""

    def __init__(self, baseline: ThresholdBaseline, agent: TelemetryAgent):
        self.baseline = baseline
        self.agent = agent
        self.name = baseline.label()

    def instance_saturated(
        self, container, simulation: ClusterSimulation
    ) -> bool:
        """Threshold verdict for one container's latest recorded tick.

        The per-instance unit of :meth:`saturated_services`, exposed so
        a fallback chain can consult the threshold baseline for exactly
        the containers whose primary data path is degraded.  Containers
        with no recorded ticks yet are never saturated.
        """
        end = container.created_at + len(container.history)
        if end <= container.created_at:
            return False
        node = simulation.nodes[container.node]
        state = self.agent.container_state(container, node, end - 1, end)
        cpu = state[0, CONTAINER_CHANNELS["cpu_rel_util"]]
        mem = state[0, CONTAINER_CHANNELS["mem_limit_util"]]
        return bool(
            self.baseline.predict_instance(
                np.asarray([cpu]), np.asarray([mem])
            )[0]
        )

    def saturated_services(
        self, simulation: ClusterSimulation, application: str, t: int
    ) -> set[str]:
        deployment = simulation.deployments[application]
        saturated: set[str] = set()
        for service, replicas in deployment.instances.items():
            for instance in replicas:
                if self.instance_saturated(instance.container, simulation):
                    saturated.add(service)
                    break
        return saturated


class ResponseTimePolicy:
    """The a-posteriori "optimal" scaler: watches the application KPI.

    Fires on the services in ``target_services`` whenever the measured
    end-to-end response time exceeds ``rt_threshold`` (the paper scales
    Recommender and Auth together, chosen with application knowledge).
    """

    name = "rt-based"

    def __init__(self, target_services: list[str], rt_threshold: float = 0.5):
        if not target_services:
            raise ValueError("target_services must not be empty.")
        if rt_threshold <= 0:
            raise ValueError("rt_threshold must be positive.")
        self.target_services = list(target_services)
        self.rt_threshold = rt_threshold

    def saturated_services(
        self, simulation: ClusterSimulation, application: str, t: int
    ) -> set[str]:
        kpis = simulation._kpis[application]
        if not kpis["response_time"]:
            return set()
        if kpis["response_time"][-1] > self.rt_threshold:
            return set(self.target_services)
        return set()
