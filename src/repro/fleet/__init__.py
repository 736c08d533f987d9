"""Fleet-scale vectorized serving: struct-of-arrays streaming from
telemetry to policy, sharded over workers.

This package is the serving path.  It carries one
``(n_containers, n_features)`` float64 matrix per tick end to end, for
one cell or thousands: the per-container policies ``MonitorlessPolicy``
and ``FallbackPolicy`` are one-cell views over :class:`FleetPolicy`.
The per-container chain it replaced (a telemetry stream, a pipeline
stream and a policy object per container) lives on in
``tests/serving_reference.py`` as the slow reference, and the fleet
must match it container-for-container -- bitwise for filter-based
pipeline configs, within the documented 1e-9 streaming tolerance for
PCA.

- :mod:`repro.fleet.membership` -- namespace/pod/container ->
  deployment rollup keys mapped onto matrix rows;
- :mod:`repro.fleet.telemetry` -- :class:`FleetTelemetryStream`, the
  whole fleet's raw metric rows in one array per tick, with dropout,
  chaos and resilient imputation applied as row masks;
- :mod:`repro.fleet.features` -- :class:`FleetPipelineStream` /
  :class:`FleetTemporalState`, batched feature engineering with
  preallocated per-row rolling state;
- :mod:`repro.fleet.policy` -- :class:`FleetPolicy`, one
  ``predict_proba`` per tick plus the vectorized fallback health
  state machine;
- :mod:`repro.fleet.orchestrator` -- :class:`FleetOrchestrator` /
  :class:`FleetShardRunner`, the container axis sharded across
  ``parallel_map`` workers with per-shard checkpoint/resume.
"""

from repro.fleet.features import FleetPipelineStream, FleetTemporalState
from repro.fleet.membership import FleetIndex, FleetMember
from repro.fleet.orchestrator import (
    CELL_BUILDERS,
    FleetCell,
    FleetCellSpec,
    FleetOrchestrator,
    FleetResult,
    FleetShardResult,
    FleetShardRunner,
    build_cell,
    default_fleet_workloads,
    make_fleet_specs,
)
from repro.fleet.policy import FleetPolicy
from repro.fleet.telemetry import FleetTelemetryStream

__all__ = [
    "FleetMember",
    "FleetIndex",
    "FleetTelemetryStream",
    "FleetTemporalState",
    "FleetPipelineStream",
    "FleetPolicy",
    "FleetCellSpec",
    "FleetCell",
    "FleetShardRunner",
    "FleetShardResult",
    "FleetOrchestrator",
    "FleetResult",
    "build_cell",
    "make_fleet_specs",
    "default_fleet_workloads",
    "CELL_BUILDERS",
]
