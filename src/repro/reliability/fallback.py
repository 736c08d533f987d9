"""The policy fallback chain: monitorless -> thresholds -> fail-safe.

:class:`FallbackPolicy` runs a streaming
:class:`~repro.orchestrator.policies.MonitorlessPolicy` as the primary
detector and demotes *per container* when that container's data path
degrades:

1. **primary** -- the container's resilient telemetry delivered
   (possibly imputed) features and the classifier produced a verdict;
2. **secondary** -- the telemetry raised
   :class:`~repro.reliability.telemetry.TelemetryFault` (staleness
   budget exhausted, injected failure) or the classifier raised: the
   container is judged by
   :meth:`~repro.orchestrator.policies.ThresholdPolicy.instance_saturated`
   instead;
3. **fail-safe** -- the threshold read failed too.  ``failsafe="hold"``
   keeps the current replica count (never scale on no data);
   ``failsafe="scale-up"`` reports the service saturated (provision
   for the worst).

Each container walks a health state machine ``healthy -> degraded ->
failsafe -> recovering -> healthy``; ``recovering`` requires
``recovery_ticks`` consecutive primary successes before the container
counts as healthy again.

The chain runs on the primary's one-cell
:class:`~repro.fleet.policy.FleetPolicy`, which keeps the states as
row arrays: the policy configures that fleet's fallback settings and
attaches the secondary to its cell.  Transitions are exported as
``obs`` counters (``fallback.demotions`` / ``fallback.recoveries`` /
``fallback.failsafe_entries`` / ``fallback.failsafe_ticks``;
classifier failures additionally emit ``fallback.classifier_errors``
and ``fallback.classifier_error{type=<ExceptionClass>}``) and
``fallback.containers_<state>`` gauges, and mirrored on the policy
object (:attr:`demotions`, :attr:`recoveries`,
:attr:`failsafe_entries`, :attr:`health`) for obs-disabled callers.
"""

from __future__ import annotations

from repro import obs

__all__ = [
    "FallbackPolicy",
    "HEALTHY",
    "DEGRADED",
    "FAILSAFE",
    "RECOVERING",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
FAILSAFE = "failsafe"
RECOVERING = "recovering"


def _forward(name: str) -> property:
    return property(
        lambda self: getattr(self.fleet, name),
        doc=f"The fleet's ``{name}``.",
    )


class FallbackPolicy:
    """Degradation-tolerant saturation policy (see module docstring).

    Parameters
    ----------
    primary:
        A ``MonitorlessPolicy`` with ``streaming=True`` (the fallback
        chain tracks per-container stream health, which only exists on
        the streaming path), normally built over a
        :class:`~repro.reliability.telemetry.ResilientTelemetry` agent.
        The fallback policy takes over its fleet, so drive the chain
        through this policy only.
    secondary:
        A ``ThresholdPolicy`` used per-container while demoted.
    staleness_budget:
        Optional *tighter* bound than the telemetry layer's own budget:
        a container whose stream reports more than this many
        consecutive imputed ticks is demoted even though its stream is
        still serving rows.  ``None`` (default) trusts the telemetry
        layer to raise when its budget runs out.
    failsafe:
        ``"hold"`` or ``"scale-up"`` -- the verdict when primary *and*
        secondary are unavailable.
    recovery_ticks:
        Consecutive primary successes required to leave ``recovering``.
    """

    name = "fallback"

    def __init__(
        self,
        primary,
        secondary,
        *,
        staleness_budget: int | None = None,
        failsafe: str = "hold",
        recovery_ticks: int = 3,
    ):
        if not getattr(primary, "streaming", False):
            raise ValueError(
                "FallbackPolicy requires a streaming MonitorlessPolicy "
                "(streaming=True)."
            )
        if failsafe not in ("hold", "scale-up"):
            raise ValueError('failsafe must be "hold" or "scale-up".')
        if recovery_ticks < 1:
            raise ValueError("recovery_ticks must be >= 1.")
        if staleness_budget is not None and staleness_budget < 0:
            raise ValueError("staleness_budget must be >= 0.")
        self.primary = primary
        self.secondary = secondary
        self.fleet = primary.fleet
        self.fleet.staleness_budget = staleness_budget
        self.fleet.failsafe = failsafe
        self.fleet.recovery_ticks = recovery_ticks

    staleness_budget = _forward("staleness_budget")
    failsafe = _forward("failsafe")
    recovery_ticks = _forward("recovery_ticks")
    lifecycle = _forward("lifecycle")
    demotions = _forward("demotions")
    recoveries = _forward("recoveries")
    failsafe_entries = _forward("failsafe_entries")
    failsafe_ticks = _forward("failsafe_ticks")
    last_classifier_error = _forward("last_classifier_error")

    @property
    def model(self):
        """The serving model (the fleet's)."""
        return self.fleet.model

    @model.setter
    def model(self, model) -> None:
        self.fleet.model = model

    @property
    def health(self) -> dict[str, str]:
        """Pod -> health state of every container judged so far."""
        return {pod: state for (_, pod), state in self.fleet.health().items()}

    def saturated_services(self, simulation, application: str, t: int):
        with obs.trace("policy.fallback"):
            return self.primary._serve(
                simulation, application, t, secondary=self.secondary
            )
