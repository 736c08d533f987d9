"""Closed-loop orchestration (paper section 2 and the Table-7 experiment).

- :mod:`repro.orchestrator.policies` -- per-tick saturation detectors:
  monitorless (the trained model over live platform metrics), static
  thresholds, the a-posteriori response-time scaler and no-scaling.
- :mod:`repro.orchestrator.slo` -- SLO-violation detection (average
  response time above 750 ms, dropped requests, >10% failures).
- :mod:`repro.orchestrator.autoscaler` -- scale-out on predicted
  saturation with a 120-second replica lifespan, scale-in afterwards.
- :mod:`repro.orchestrator.loop` -- the orchestrator: advance the
  simulation one second at a time, collect metrics, predict, scale,
  and account provisioning cost and SLO violations.  Drive it with
  ``run(workloads)`` for a pre-recorded trace or ``start()`` /
  ``tick(arrivals)`` / ``finish()`` for live, per-tick arrivals.

The monitorless policy supports two data paths: batch (re-transform a
sliding window per container per tick) and streaming
(``streaming=True``: a one-cell view over the fleet serving path,
:class:`repro.fleet.policy.FleetPolicy`, with O(1) incremental work per
container per tick).
"""

from repro.orchestrator.autoscaler import Autoscaler, ScalingRules
from repro.orchestrator.edge import EdgeDeployment, TrafficAccount
from repro.orchestrator.loop import Orchestrator, OrchestratorResult
from repro.orchestrator.rightsizing import (
    Rightsizer,
    RightsizingModel,
    label_overprovisioning,
)
from repro.orchestrator.policies import (
    MonitorlessPolicy,
    NoScalingPolicy,
    ResponseTimePolicy,
    ThresholdPolicy,
)
from repro.orchestrator.slo import SloPolicy, slo_violations

__all__ = [
    "MonitorlessPolicy",
    "ThresholdPolicy",
    "ResponseTimePolicy",
    "NoScalingPolicy",
    "SloPolicy",
    "slo_violations",
    "Autoscaler",
    "ScalingRules",
    "Orchestrator",
    "OrchestratorResult",
    "EdgeDeployment",
    "TrafficAccount",
    "RightsizingModel",
    "Rightsizer",
    "label_overprovisioning",
]
