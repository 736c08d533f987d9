"""PCP-like platform telemetry.

The paper collects 1040 platform metrics with Performance Co-Pilot:
952 host-level and 88 container-level (section 3.3).  This package
reproduces that monitoring surface over the simulated cluster:

- :mod:`repro.telemetry.catalog` -- the metric catalog: named metrics
  with scope (host/container), resource domain, semantics (gauge /
  counter / utilization / byte-valued) and a *driver* coupling each
  metric to the simulation state.  Causal metrics (CPU utilization,
  cgroup throttling, TCP connection counts, disk queue, vmstat
  counters, ...) respond to load exactly the way their Linux
  counterparts do; the long tail of filler metrics (per-CPU splits,
  slab caches, protocol counters) carries noise and constants so
  feature selection faces a realistic haystack.
- :mod:`repro.telemetry.agent` -- turns a finished (or running)
  simulation into per-instance sample matrices ``M_{I,t}`` (host
  row of the instance's node concatenated with its container row).
- :mod:`repro.telemetry.rates` -- counter-to-rate and utilization
  normalisation preprocessing (section 3.1).
- :mod:`repro.telemetry.store` -- :class:`MetricFrame`, a metric
  matrix with named columns.

Per-tick emission for live serving is the fleet's
(:class:`repro.fleet.telemetry.FleetTelemetryStream`): one row per
container per tick with O(1) synthesis state instead of whole-run
matrices.
"""

from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.catalog import MetricCatalog, MetricSpec, default_catalog
from repro.telemetry.rates import counters_to_rates, to_percent
from repro.telemetry.store import MetricFrame

__all__ = [
    "MetricSpec",
    "MetricCatalog",
    "default_catalog",
    "TelemetryAgent",
    "counters_to_rates",
    "to_percent",
    "MetricFrame",
]
