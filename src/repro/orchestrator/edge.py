"""Agent-side prediction offloading (paper section 5, "Refine the
architecture").

In the baseline architecture every agent ships its full metric vector
(1040 float64 values per container per second) to the orchestrator,
which predicts centrally.  The paper's proposed refinement offloads
the saturation prediction to the agents: each agent runs the model
locally and ships a single verdict bit, trading orchestrator-side
visibility and agent CPU for network traffic.

:class:`EdgeDeployment` models both modes over a simulation run and
accounts the traffic, quantifying the reduction the paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.simulation import ClusterSimulation
from repro.core.model import MonitorlessModel
from repro.orchestrator.policies import MonitorlessPolicy
from repro.telemetry.agent import TelemetryAgent

__all__ = ["TrafficAccount", "EdgeDeployment"]

_FLOAT_BYTES = 8
_METRIC_NAME_OVERHEAD = 4  # compact metric-id encoding per value
_MESSAGE_HEADER_BYTES = 64  # transport + timestamp + container id
_VERDICT_BYTES = 1


@dataclass(frozen=True)
class TrafficAccount:
    """Bytes moved from agents to the orchestrator over one run."""

    centralized_bytes: float
    edge_bytes: float
    samples: int

    @property
    def reduction_factor(self) -> float:
        if self.edge_bytes <= 0:
            return float("inf")
        return self.centralized_bytes / self.edge_bytes

    def summary(self) -> dict:
        return {
            "centralized_MB": round(self.centralized_bytes / 1e6, 2),
            "edge_MB": round(self.edge_bytes / 1e6, 3),
            "reduction": f"{self.reduction_factor:.0f}x",
        }


class EdgeDeployment:
    """Run the monitorless detector in edge (agent-side) mode.

    The predictions are identical to the centralized mode -- the same
    model runs on the same metrics, just on the other side of the
    network -- so this class reuses :class:`MonitorlessPolicy` for
    inference and layers traffic accounting on top.  Its per-tick
    streaming data path is the natural fit for edge inference, which
    sees each sample exactly once.
    """

    def __init__(self, model: MonitorlessModel, agent: TelemetryAgent):
        self.policy = MonitorlessPolicy(model, agent)
        self.agent = agent

    def n_metrics(self) -> int:
        return self.agent.catalog.n_metrics

    def per_sample_bytes(self, *, edge: bool) -> float:
        """Agent-to-orchestrator bytes for one container-second."""
        if edge:
            return _MESSAGE_HEADER_BYTES + _VERDICT_BYTES
        return _MESSAGE_HEADER_BYTES + self.n_metrics() * (
            _FLOAT_BYTES + _METRIC_NAME_OVERHEAD
        )

    def account(
        self, simulation: ClusterSimulation, application: str, duration: int
    ) -> TrafficAccount:
        """Traffic accounting for ``duration`` seconds of one application.

        Uses the deployment's *current* replica counts (call after a
        run, or per-tick for time-varying deployments).
        """
        replica_count = sum(
            simulation.replica_counts(application).values()
        )
        samples = replica_count * duration
        return TrafficAccount(
            centralized_bytes=samples * self.per_sample_bytes(edge=False),
            edge_bytes=samples * self.per_sample_bytes(edge=True),
            samples=samples,
        )

    def saturated_services(
        self, simulation: ClusterSimulation, application: str, t: int
    ) -> set[str]:
        """Policy-compatible entry point (edge mode predicts locally)."""
        return self.policy.saturated_services(simulation, application, t)

    @staticmethod
    def agent_cpu_overhead_estimate(
        prediction_seconds: float, containers_per_node: int
    ) -> float:
        """Cores consumed by agent-side inference on one node.

        The paper's trade-off: one prediction per container per second,
        each costing ``prediction_seconds`` of CPU.
        """
        if prediction_seconds < 0 or containers_per_node < 0:
            raise ValueError("Inputs must be non-negative.")
        return prediction_seconds * containers_per_node
