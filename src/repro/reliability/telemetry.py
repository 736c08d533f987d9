"""Telemetry resilience: retries, gap imputation and NaN masking.

Real collectors are lossy: scrapes time out, exporters crash, rows
arrive with holes.  :class:`ResilientTelemetry` wraps any
telemetry-agent-shaped object and makes its per-tick readings
degradation tolerant; the fleet's telemetry
(:class:`~repro.fleet.telemetry.FleetTelemetryStream`) applies the
contract to every row whose agent it wraps:

- **Retry with deterministic backoff**: an agent read that raises a
  :class:`TelemetryFault` is retried up to ``max_retries`` times; the
  backoff for attempt ``k`` is the deterministic ``BACKOFF_BASE *
  2**k`` seconds, recorded via :mod:`repro.obs`
  (``resilience.retry_backoff_seconds``) and never slept, because
  simulated time must not depend on wall clocks.
- **Gap detection + LOCF imputation**: when every retry fails the
  tick is *lost*: the row's clock moves past it unsynthesized
  (tracking real time, exactly like a missed scrape) and the last
  fully observed row is carried forward with completeness 0.0.
  Consecutive lost ticks are the row's *staleness*; once it exceeds
  ``staleness_budget`` the row faults with
  :class:`TelemetryUnavailable` instead of serving ever staler
  guesses -- the policy layer decides what to do next.  A budget of 0
  disables imputation entirely.
- **NaN masking**: NaN entries in an otherwise delivered row are
  replaced with the last observed value for that metric (0.0 before
  one exists) and the row's completeness flag reflects the masked
  fraction.  NaNs must never reach the rolling temporal feature state
  -- a single NaN would poison its cumulative sums irrecoverably.
"""

from __future__ import annotations

__all__ = [
    "BACKOFF_BASE",
    "TelemetryFault",
    "TelemetryUnavailable",
    "ResilientTelemetry",
]

#: Seconds of (virtual) backoff before the first retry of a tick;
#: attempt ``k`` backs off ``BACKOFF_BASE * 2**k``.
BACKOFF_BASE = 0.05


class TelemetryFault(RuntimeError):
    """A telemetry read failed (collector error, injected fault)."""


class TelemetryUnavailable(TelemetryFault):
    """A stream ran out of both real readings and imputation budget."""


class ResilientTelemetry:
    """Degradation-tolerant wrapper around a telemetry agent.

    Batch reads pass straight through; per-tick serving reads follow
    the retry / imputation / masking contract described in the module
    docstring.

    Parameters
    ----------
    agent:
        Any telemetry-agent-shaped object (``TelemetryAgent``,
        ``MetricDropout``, a chaos injector, ...).
    staleness_budget:
        Maximum consecutive lost ticks a row bridges via
        last-observation-carried-forward before raising
        :class:`TelemetryUnavailable`.  0 disables imputation.
    max_retries:
        Extra read attempts after the first failure of one tick.
    """

    def __init__(self, agent, *, staleness_budget: int = 5,
                 max_retries: int = 2):
        if staleness_budget < 0:
            raise ValueError("staleness_budget must be >= 0.")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0.")
        self.agent = agent
        self.catalog = agent.catalog
        self.staleness_budget = staleness_budget
        self.max_retries = max_retries

    # Batch reads are not imputed: a missing whole-run matrix is a
    # caller bug, not a lossy scrape.
    def instance_matrix(self, container, nodes, start=None, end=None):
        return self.agent.instance_matrix(container, nodes, start, end)

    def utilization_series(self, container, nodes):
        return self.agent.utilization_series(container, nodes)

    def host_state(self, node, start, end):
        return self.agent.host_state(node, start, end)

    def container_state(self, container, node, start, end):
        return self.agent.container_state(container, node, start, end)
