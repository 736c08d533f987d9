"""Seeded chaos harness for the degradation-tolerant closed loop.

Composes every fault family the repo knows -- node capacity faults
(:class:`~repro.cluster.faults.NodeSlowdown`,
:class:`~repro.cluster.faults.DiskDegradation`), lossy scrapes
(:class:`~repro.cluster.faults.MetricDropout`) and the new
telemetry-exception injectors defined here -- under one deterministic
schedule, runs the TeaStore closed loop through it with the full
resilience stack (``ResilientTelemetry`` + ``FallbackPolicy``), and
compares the outcome against a clean run of the same scenario.

The injection stack, innermost first::

    TelemetryAgent -> MetricDropout -> ChaosAgent -> ResilientTelemetry

``ChaosAgent`` decides per ``(stream, tick)`` from a keyed blake2b
hash (never process-salted ``hash()``), so a given seed produces the
same fault sequence in every process:

- **hard** failures raise on every read attempt of that tick -- the
  tick is lost and the resilience layer imputes or gives up;
- **transient** ("delayed reading") failures raise on the first
  attempt only, exercising the retry path;
- **nan** corruption delivers the row with a deterministic subset of
  entries NaN-ed, exercising masking.  Corruption happens on a *copy
  of the emitted row*, never on synthesis state: a NaN entering the
  counter accumulators would poison every later reading and make
  recovery impossible by construction.
- :class:`TelemetryBlackout` windows force hard failures for whole
  tick ranges (scope ``"stream"``, ``"state"`` or ``"both"``), which
  is what deterministically drives the fallback chain through demotion
  (budget exhaustion), fail-safe (both paths dark) and recovery.

:func:`run_chaos` returns a :class:`ChaosReport` asserting-material:
the SLO-violation delta versus the clean run and its documented bound
(:data:`MAX_VIOLATION_DELTA_FRACTION` of the duration), plus the
demotion / recovery / imputation counters read back from
:mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.reliability.fallback import FallbackPolicy
from repro.reliability.telemetry import ResilientTelemetry, TelemetryFault

__all__ = [
    "InjectedTelemetryError",
    "TelemetryBlackout",
    "ChaosConfig",
    "ChaosAgent",
    "chaos_stack",
    "ChaosReport",
    "run_chaos",
    "MAX_VIOLATION_DELTA_FRACTION",
]

#: The documented bound of a chaos run: its SLO-violation count may
#: exceed the clean run's by at most this fraction of the duration.
MAX_VIOLATION_DELTA_FRACTION = 0.15


class InjectedTelemetryError(TelemetryFault):
    """A chaos-injected telemetry read failure."""


def _chaos_seed(seed: int, stream: str, t: int) -> int:
    """Deterministic 64-bit key for one (stream, tick) cell."""
    digest = hashlib.blake2b(
        f"{seed}:{stream}:{t}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _chaos_uniform(seed: int, stream: str, t: int) -> float:
    """Deterministic uniform in [0, 1) for one (stream, tick) cell."""
    return _chaos_seed(seed, stream, t) / 2.0**64


@dataclass(frozen=True)
class TelemetryBlackout:
    """All matching telemetry reads fail during [start, end).

    ``scope`` selects which reads go dark: ``"stream"`` (per-tick
    instance emission -- the primary policy's data path), ``"state"``
    (the point reads the threshold fallback uses), or ``"both"``.
    """

    start: int
    end: int
    scope: str = "stream"

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("end must exceed start.")
        if self.scope not in ("stream", "state", "both"):
            raise ValueError('scope must be "stream", "state" or "both".')

    def active(self, t: int) -> bool:
        return self.start <= t < self.end

    @property
    def hits_stream(self) -> bool:
        return self.scope in ("stream", "both")

    @property
    def hits_state(self) -> bool:
        return self.scope in ("state", "both")


@dataclass
class ChaosConfig:
    """Knobs of the seeded chaos schedule.

    ``blackouts`` / ``node_faults`` default to ``None`` meaning
    "derive a schedule from the run duration" (one stream-scoped
    blackout long enough to exhaust the staleness budget, one
    both-scoped blackout, one mild node slowdown).  Pass explicit
    tuples -- possibly empty -- to take full control.

    A ``"nan"`` read corrupts 10% of its row.  The resilience layer
    retries a failed read twice, and a demoted container needs 3
    consecutive primary successes to count as healthy again (the
    ``ResilientTelemetry`` and ``FallbackPolicy`` defaults).

    ``antagonist`` adds a noisy neighbour to the chaos run only: a
    single-resource stressor (:mod:`repro.apps.antagonist` kind
    ``"cpu"``, ``"membw"`` or ``"disk"``) co-located on M2, where the
    TeaStore scale-outs land, idle for the first 40% of the run and
    hammering at ``antagonist_rate`` after.  The clean reference run
    never sees it, so the violation delta includes the interference
    the resilience stack has to ride out.
    """

    dropout_probability: float = 0.15
    hard_failure_probability: float = 0.02
    transient_failure_probability: float = 0.05
    nan_probability: float = 0.02
    state_failure_probability: float = 0.01
    blackouts: tuple | None = None
    node_faults: tuple | None = None
    staleness_budget: int = 5
    failsafe: str = "hold"
    seed: int = 0
    antagonist: str | None = None  # noisy-neighbour kind, chaos run only
    antagonist_rate: float = 100.0  # requests/s once active


class ChaosAgent:
    """Telemetry wrapper that injects exceptions, delays and NaNs."""

    def __init__(self, agent, config: ChaosConfig):
        self.agent = agent
        self.config = config
        self.catalog = agent.catalog
        self.blackouts = tuple(
            config.blackouts if config.blackouts is not None else ()
        )

    # Pass-through batch surface (the clean comparisons use it).
    def instance_matrix(self, container, nodes, start=None, end=None):
        return self.agent.instance_matrix(container, nodes, start, end)

    def utilization_series(self, container, nodes):
        return self.agent.utilization_series(container, nodes)

    def host_state(self, node, start, end):
        return self.agent.host_state(node, start, end)

    def container_state(self, container, node, start, end):
        """The threshold fallback's point read; fails under state-scoped
        blackouts and with ``state_failure_probability`` otherwise."""
        t = end - 1
        for blackout in self.blackouts:
            if blackout.active(t) and blackout.hits_state:
                obs.inc("chaos.state_failures")
                raise InjectedTelemetryError(
                    f"chaos: state read blackout for {container.name} "
                    f"at tick {t}."
                )
        u = _chaos_uniform(self.config.seed, f"state:{container.name}", t)
        if u < self.config.state_failure_probability:
            obs.inc("chaos.state_failures")
            raise InjectedTelemetryError(
                f"chaos: state read failed for {container.name} at tick {t}."
            )
        return self.agent.container_state(container, node, start, end)

    def stream_mode(self, name: str, t: int) -> str:
        """The fate of stream ``name``'s read of tick ``t``: ``"hard"``,
        ``"transient"``, ``"nan"`` or ``"ok"``."""
        for blackout in self.blackouts:
            if blackout.active(t) and blackout.hits_stream:
                return "hard"
        config = self.config
        u = _chaos_uniform(config.seed, name, t)
        edge = config.hard_failure_probability
        if u < edge:
            return "hard"
        edge += config.transient_failure_probability
        if u < edge:
            return "transient"
        edge += config.nan_probability
        if u < edge:
            return "nan"
        return "ok"

    def nan_columns(self, name: str, t: int, size: int) -> np.ndarray:
        """Columns a ``"nan"`` read of tick ``t`` corrupts in a row of
        ``size`` values: 10% of them, at least one."""
        config = self.config
        rng = np.random.default_rng(_chaos_seed(config.seed, f"nan:{name}", t))
        count = max(1, int(round(size * 0.1)))
        return rng.choice(size, size=count, replace=False)


def chaos_stack(agent, config: ChaosConfig,
                dropout_seed: int) -> ResilientTelemetry:
    """The injection stack over ``agent``, innermost first: a
    ``MetricDropout`` (``config.dropout_probability``, seeded with
    ``dropout_seed``), a :class:`ChaosAgent` and a
    ``ResilientTelemetry`` (``config.staleness_budget``).  The chaos
    layer, which a threshold fallback reads, is the returned stack's
    ``agent``."""
    from repro.cluster.faults import MetricDropout

    lossy = MetricDropout(
        agent, probability=config.dropout_probability, seed=dropout_seed
    )
    return ResilientTelemetry(
        ChaosAgent(lossy, config), staleness_budget=config.staleness_budget
    )


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Clean-vs-chaos outcome of one seeded schedule."""

    duration: int
    seed: int
    clean_violations: int
    chaos_violations: int
    violation_delta: int
    bound_fraction: float
    violation_bound: float
    within_bound: bool
    clean_scale_outs: int
    chaos_scale_outs: int
    demotions: int
    recoveries: int
    failsafe_entries: int
    failsafe_ticks: int
    imputed_ticks: int
    ticks_lost: int
    retries: int
    nan_masked_values: int
    readings_dropped: int
    health_final: dict = field(default_factory=dict)
    obs_counters: dict = field(default_factory=dict)
    telemetry_summary: dict = field(default_factory=dict)
    antagonist: str | None = None
    antagonist_ticks: int = 0

    def rows(self) -> list[dict]:
        """Table rows for CLI / benchmark printing."""
        return [
            {"quantity": "SLO violations (clean)", "value": self.clean_violations},
            {"quantity": "SLO violations (chaos)", "value": self.chaos_violations},
            {
                "quantity": "violation delta / bound",
                "value": f"{self.violation_delta} / {self.violation_bound:.0f}",
            },
            {"quantity": "scale-outs clean/chaos",
             "value": f"{self.clean_scale_outs}/{self.chaos_scale_outs}"},
            {"quantity": "demotions", "value": self.demotions},
            {"quantity": "recoveries", "value": self.recoveries},
            {"quantity": "failsafe entries", "value": self.failsafe_entries},
            {"quantity": "imputed ticks", "value": self.imputed_ticks},
            {"quantity": "ticks lost", "value": self.ticks_lost},
            {"quantity": "retries", "value": self.retries},
            {"quantity": "NaN values masked", "value": self.nan_masked_values},
            {"quantity": "within bound", "value": self.within_bound},
        ] + (
            [
                {
                    "quantity": "antagonist (ticks active)",
                    "value": f"{self.antagonist} ({self.antagonist_ticks})",
                }
            ]
            if self.antagonist
            else []
        )

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def _default_blackouts(duration: int, budget: int) -> tuple:
    """One demotion-driving and one failsafe-driving window."""
    stream_start = max(1, int(duration * 0.30))
    stream_len = budget + 5
    both_start = max(stream_start + stream_len + 5, int(duration * 0.62))
    both_len = budget + 4
    windows = []
    if stream_start + stream_len < duration:
        windows.append(
            TelemetryBlackout(stream_start, stream_start + stream_len, "stream")
        )
    if both_start + both_len < duration:
        windows.append(
            TelemetryBlackout(both_start, both_start + both_len, "both")
        )
    return tuple(windows)


def _default_node_faults(duration: int) -> tuple:
    from repro.cluster.faults import NodeSlowdown

    start = int(duration * 0.45)
    end = int(duration * 0.55)
    if end <= start:
        return ()
    return (NodeSlowdown(node="M2", factor=0.85, start=start, end=end),)


def _build_orchestrator(model, policy_factory, seed: int):
    from repro.datasets.experiments import (
        teastore_scaling_rules,
        teastore_simulation,
    )
    from repro.orchestrator.loop import Orchestrator

    simulation = teastore_simulation(seed)
    policy = policy_factory(simulation)
    return (
        Orchestrator(simulation, "teastore", policy, teastore_scaling_rules()),
        simulation,
    )


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get("counters", {}).get(name, 0.0))


def _telemetry_summary(telemetry, row: int) -> dict:
    """Safe-subset summary of one fleet row's last delivered reading:
    its container, completeness and the headline utilization metrics
    among the delivered columns; the rest, and unknown names, are
    skipped."""
    from repro.telemetry.store import MetricFrame

    names = telemetry.catalog.names()
    frame = MetricFrame(
        telemetry.raw[row : row + 1],
        [names[column] for column in telemetry.columns],
    ).select_available(
        ["kernel.all.cpu.util", "mem.util.used_pct", "not.a.metric"]
    )
    return {
        "container": telemetry.container_at(row).name,
        "completeness": float(telemetry.completeness[row]),
        **{name: float(frame.column(name)[0]) for name in frame.columns},
    }


def run_chaos(
    model,
    *,
    duration: int = 240,
    seed: int = 0,
    config: ChaosConfig | None = None,
) -> ChaosReport:
    """Run the TeaStore closed loop clean and under chaos; compare.

    The clean run uses a plain agent and a streaming
    ``MonitorlessPolicy``; the chaos run layers dropout, injected
    exceptions and blackouts under ``ResilientTelemetry`` and judges
    saturation through the full ``FallbackPolicy`` chain, while the
    schedule's node faults degrade the cluster itself.  Both runs see
    the same workload ramp and simulation seed.
    """
    from repro.cluster.faults import FaultSchedule
    from repro.datasets.experiments import deploy_antagonist
    from repro.orchestrator.policies import (
        MonitorlessPolicy,
        fallback_threshold_policy,
    )
    from repro.telemetry.agent import TelemetryAgent
    from repro.workloads.patterns import linear_ramp

    if config is None:
        config = ChaosConfig()
    blackouts = (
        config.blackouts
        if config.blackouts is not None
        else _default_blackouts(duration, config.staleness_budget)
    )
    node_faults = (
        config.node_faults
        if config.node_faults is not None
        else _default_node_faults(duration)
    )
    workload = linear_ramp(duration, 10, 240)

    # --- Clean reference run (no injection, no resilience layer). ----
    def clean_policy(simulation):
        return MonitorlessPolicy(model, TelemetryAgent(seed=seed))

    clean_orchestrator, _ = _build_orchestrator(model, clean_policy, seed)
    clean_result = clean_orchestrator.run({"teastore": workload})

    # --- Chaos run: full injection stack + fallback chain. -----------
    effective = ChaosConfig(**{**config.__dict__, "blackouts": blackouts})
    fallback_holder: dict = {}

    def chaotic_policy(simulation):
        resilient = chaos_stack(TelemetryAgent(seed=seed), effective, config.seed)
        policy = FallbackPolicy(
            MonitorlessPolicy(model, resilient),
            fallback_threshold_policy(resilient.agent),
            failsafe=config.failsafe,
        )
        fallback_holder["policy"] = policy
        return policy

    orchestrator, simulation = _build_orchestrator(model, chaotic_policy, seed)
    antagonist = None
    antagonist_onset = duration
    if config.antagonist is not None:
        # On M2, where the TeaStore scale-outs land; idle for the first
        # 40% of the run.
        antagonist = deploy_antagonist(simulation, config.antagonist, "M2")
        antagonist_onset = int(round(0.4 * duration))
    antagonist_ticks = 0
    schedule = FaultSchedule(list(node_faults)) if node_faults else None

    externally_enabled = obs.enabled()
    before = obs.snapshot() if externally_enabled else {}
    if not externally_enabled:
        obs.reset()
        obs.enable()
    try:
        orchestrator.start()
        pristine = (
            schedule.pristine_specs(simulation) if schedule is not None else None
        )
        try:
            for t in range(duration):
                if schedule is not None:
                    schedule.apply_tick(simulation, pristine, t)
                arrivals = {"teastore": float(workload[t])}
                if antagonist is not None and t >= antagonist_onset:
                    arrivals[antagonist] = config.antagonist_rate
                    antagonist_ticks += 1
                orchestrator.tick(arrivals)
        finally:
            if schedule is not None:
                schedule.restore(simulation, pristine)
        chaos_result = orchestrator.finish()
        after = obs.snapshot()
    finally:
        if not externally_enabled:
            obs.disable()
            obs.reset()

    def counter(name: str) -> int:
        return int(_counter(after, name) - _counter(before, name))

    policy = fallback_holder["policy"]
    live = policy.fleet.index.live_rows()
    telemetry_summary = (
        _telemetry_summary(policy.fleet.telemetry, live[0]) if live else {}
    )

    delta = chaos_result.slo_violation_count - clean_result.slo_violation_count
    bound = MAX_VIOLATION_DELTA_FRACTION * duration
    interesting = (
        "fallback.demotions",
        "fallback.recoveries",
        "fallback.failsafe_entries",
        "fallback.failsafe_ticks",
        "resilience.imputed_ticks",
        "resilience.ticks_lost",
        "resilience.retries",
        "resilience.nan_masked_values",
        "faults.readings_dropped",
        "chaos.hard_failures",
        "chaos.transient_failures",
        "chaos.state_failures",
        "chaos.nan_rows",
    )
    return ChaosReport(
        duration=duration,
        seed=seed,
        clean_violations=clean_result.slo_violation_count,
        chaos_violations=chaos_result.slo_violation_count,
        violation_delta=delta,
        bound_fraction=MAX_VIOLATION_DELTA_FRACTION,
        violation_bound=bound,
        within_bound=delta <= bound,
        clean_scale_outs=clean_result.total_scale_outs,
        chaos_scale_outs=chaos_result.total_scale_outs,
        demotions=counter("fallback.demotions"),
        recoveries=counter("fallback.recoveries"),
        failsafe_entries=counter("fallback.failsafe_entries"),
        failsafe_ticks=counter("fallback.failsafe_ticks"),
        imputed_ticks=counter("resilience.imputed_ticks"),
        ticks_lost=counter("resilience.ticks_lost"),
        retries=counter("resilience.retries"),
        nan_masked_values=counter("resilience.nan_masked_values"),
        readings_dropped=counter("faults.readings_dropped"),
        health_final=dict(policy.health),
        obs_counters={name: counter(name) for name in interesting},
        telemetry_summary=telemetry_summary,
        antagonist=config.antagonist,
        antagonist_ticks=antagonist_ticks,
    )
