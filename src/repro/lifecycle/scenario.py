"""The deterministic end-to-end drift scenario.

A TeaStore closed loop serves at a *stationary* arrival plateau with a
solo-trained champion, then two distribution shifts hit mid-run at the
onset tick:

- a **membw antagonist** (:mod:`repro.apps.antagonist`) co-located
  with the db/persistence tier starts hammering shared memory
  bandwidth in bursts (:data:`ANTAGONIST_DUTY` of every
  :data:`ANTAGONIST_PERIOD` ticks) -- the kind of neighbour-caused
  degradation the solo corpus never contained (PR 9's transfer eval
  measures exactly this gap).  The bursts matter: they interleave
  violated and healthy ticks, so a challenger that *recognizes* the
  squeeze can beat a champion that merely cries wolf;
- the **workload steps up**: the plateau is multiplied by 1.2 from
  the onset on.

The pre-onset plateau is what makes detection meaningful -- the
detector's frozen reference actually represents "before", so the
alarm tick lands after the onset, not wherever a ramp happened to
drift past the reference.

The attached :class:`~repro.lifecycle.manager.LifecycleManager` must
then detect the feature-distribution drift within its live window,
retrain a challenger on the recent stream (plus optional
interference corpora), shadow-evaluate it walk-forward, and promote it
-- producing a promotion history that is bitwise identical at every
``n_jobs`` and across a mid-run kill-and-resume
(:class:`DriftScenarioRunner.resume` over an orchestrator checkpoint,
which snapshots the manager, registry and detector state wholesale,
and the scenario config the run continues under).

The runner owns the scenario's arrivals and checkpoint cadence only:
the orchestrator's tick reports each second's SLO outcome to the
manager and steps it, as it does for any policy with a lifecycle.

Every quantity is keyed by tick; nothing reads the wall clock.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro import obs
from repro.lifecycle.manager import LifecycleManager
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.retrain import RetrainConfig

__all__ = [
    "ANTAGONIST_DUTY",
    "ANTAGONIST_PERIOD",
    "ANTAGONIST_RATE",
    "WORKLOAD_RATE",
    "DriftScenarioConfig",
    "DriftScenarioResult",
    "DriftScenarioRunner",
    "antagonist_active",
    "run_drift_scenario",
    "scenario_workload",
]

#: The antagonist bursts for ``ANTAGONIST_DUTY`` of every
#: ``ANTAGONIST_PERIOD`` ticks from the onset tick on, offering
#: ``ANTAGONIST_RATE`` requests/s while it is on.
ANTAGONIST_PERIOD = 40
ANTAGONIST_DUTY = 0.5
ANTAGONIST_RATE = 100.0
#: The stationary plateau (requests/s) before the onset step.
WORKLOAD_RATE = 140.0


@dataclass
class DriftScenarioConfig:
    """What varies between runs of the seeded drift scenario.

    Everything else -- the plateau, the onset at 45% of the run, the
    1.2x workload step, the antagonist's bursts, the detector, tracker,
    shadow and retrain settings -- is fixed where it is used
    (:func:`scenario_workload`, :func:`antagonist_active` and the
    :mod:`repro.lifecycle` modules), with the reason for each value.
    All durations are in ticks, never seconds.
    """

    duration: int = 360
    seed: int = 0
    #: Antagonist kind squeezing the db/persistence node in bursts
    #: from the onset tick on (``None`` for none).
    antagonist: str | None = "membw"
    #: Interference scenario ids (from
    #: :data:`repro.datasets.interference.INTERFERENCE_SCENARIOS`) mixed
    #: into the retrain corpus; empty keeps retraining stream-only.
    interference_scenario_ids: tuple = ()
    n_jobs: int | None = None
    #: ``False`` runs the identical loop with no manager attached --
    #: the baseline for the "shadow serving never perturbs the
    #: champion" contract and for costing the lifecycle overhead.
    lifecycle_enabled: bool = True

    @property
    def onset_tick(self) -> int:
        """The tick both shifts start at: 45% into the run."""
        return int(round(0.45 * self.duration))


@dataclass
class DriftScenarioResult:
    """Everything the scenario produced, promotion history first."""

    duration: int
    seed: int
    onset_tick: int
    detection_tick: int | None
    retrain_tick: int | None
    promotion_tick: int | None
    champion_version: int
    history: list = field(default_factory=list)
    registry_events: list = field(default_factory=list)
    lineage: list = field(default_factory=list)
    violations: int = 0
    scale_outs: int = 0
    resumed_from_tick: int | None = None

    @property
    def promoted(self) -> bool:
        return self.promotion_tick is not None

    def promotion_history(self) -> dict:
        """The reproducibility artifact: compared bitwise across
        ``n_jobs`` values and kill-and-resume replays."""
        return {
            "history": list(self.history),
            "events": list(self.registry_events),
            "lineage": [
                {k: record[k] for k in sorted(record)}
                for record in self.lineage
            ],
        }

    def to_dict(self) -> dict:
        return asdict(self)


def scenario_workload(config: DriftScenarioConfig) -> np.ndarray:
    """The stepped arrival plateau (requests/s per tick): 1.2x
    :data:`WORKLOAD_RATE` from the onset on."""
    shifted = np.full(config.duration, WORKLOAD_RATE, dtype=np.float64)
    shifted[config.onset_tick:] *= 1.2
    return shifted


def antagonist_active(config: DriftScenarioConfig, t: int) -> bool:
    """Whether the antagonist burst is on at tick ``t``."""
    if config.antagonist is None or t < config.onset_tick:
        return False
    phase = (t - config.onset_tick) % ANTAGONIST_PERIOD
    return phase < ANTAGONIST_DUTY * ANTAGONIST_PERIOD


def _interference_scenarios(ids: tuple):
    from repro.datasets.interference import INTERFERENCE_SCENARIOS

    catalog = {s.scenario_id: s for s in INTERFERENCE_SCENARIOS}
    missing = [i for i in ids if i not in catalog]
    if missing:
        raise ValueError(
            f"Unknown interference scenario ids {missing}; known: "
            f"{sorted(catalog)}."
        )
    return tuple(catalog[i] for i in ids)


class DriftScenarioRunner:
    """Drives the drift scenario tick by tick; checkpoint/resume-able.

    Construction builds the loop (TeaStore on the evaluation cluster,
    scale-outs landing on the antagonist's node, a streaming
    :class:`~repro.orchestrator.policies.MonitorlessPolicy` with the
    lifecycle manager attached) and calls ``start()``;
    :meth:`run_until` then feeds it the scenario's arrivals (the
    orchestrator's tick reports each SLO outcome to the manager and
    steps the lifecycle clock).
    :meth:`resume` rebuilds a runner from an orchestrator checkpoint --
    the pickled policy carries the manager and the orchestrator the
    scenario config, so the lifecycle replays from exactly the saved
    tick of the same scenario.
    """

    def __init__(self, model, registry_dir, config=None):
        from repro.datasets.experiments import (
            deploy_antagonist,
            teastore_scaling_rules,
            teastore_simulation,
        )
        from repro.orchestrator.loop import Orchestrator
        from repro.orchestrator.policies import MonitorlessPolicy
        from repro.telemetry.agent import TelemetryAgent

        self.config = config = config or DriftScenarioConfig()
        self.workload = scenario_workload(config)
        self.manager = None
        if config.lifecycle_enabled:
            self.manager = LifecycleManager(
                model,
                registry=ModelRegistry(registry_dir),
                retrain=RetrainConfig(
                    interference_scenarios=_interference_scenarios(
                        config.interference_scenario_ids
                    ),
                    seed=config.seed,
                    n_jobs=config.n_jobs,
                ),
            )
        simulation = teastore_simulation(config.seed)
        # The antagonist shares M2 with the db/persistence tier, where
        # the scale-outs land too.
        rules = teastore_scaling_rules()
        policy = MonitorlessPolicy(
            model, TelemetryAgent(seed=config.seed), lifecycle=self.manager
        )
        self.antagonist_name: str | None = None
        if config.antagonist is not None:
            self.antagonist_name = deploy_antagonist(
                simulation, config.antagonist, "M2"
            )
        self.orchestrator = Orchestrator(
            simulation, "teastore", policy, rules
        )
        # A checkpoint pickles the orchestrator, so the config rides on
        # it and :meth:`resume` continues under the config the run began
        # with.
        self.orchestrator.scenario_config = config
        self.orchestrator.start()
        self.resumed_from_tick: int | None = None

    @classmethod
    def resume(cls, checkpoint_path, *, model=None) -> "DriftScenarioRunner":
        """Continue a checkpointed scenario from its saved tick, under
        the :class:`DriftScenarioConfig` the checkpoint records.

        ``model``, when given, must be the model the checkpoint was
        serving: the lifecycle manager's registry owns the serving
        model, so any other model raises
        :class:`~repro.reliability.checkpoint.CheckpointError` (see
        :meth:`~repro.orchestrator.loop.Orchestrator.resume_from`).
        """
        from repro.orchestrator.loop import Orchestrator

        runner = cls.__new__(cls)
        runner.orchestrator = Orchestrator.resume_from(
            checkpoint_path, model=model
        )
        runner.manager = runner.orchestrator.policy.lifecycle
        config = getattr(runner.orchestrator, "scenario_config", None)
        if runner.manager is None or config is None:
            raise ValueError(
                f"{checkpoint_path} holds no lifecycle manager or no "
                "scenario config; it is not a drift-scenario checkpoint."
            )
        runner.config = config
        runner.workload = scenario_workload(config)
        runner.antagonist_name = None
        if config.antagonist is not None:
            from repro.apps.antagonist import antagonist_name

            runner.antagonist_name = antagonist_name(config.antagonist)
        runner.resumed_from_tick = runner.t
        return runner

    @property
    def t(self) -> int:
        return self.orchestrator._t

    def run_until(
        self,
        end: int | None = None,
        *,
        checkpoint_path=None,
        checkpoint_interval: int = 0,
    ) -> int:
        """Advance to tick ``end`` (exclusive; default: the full run).

        With ``checkpoint_path`` and a positive ``checkpoint_interval``
        the whole loop -- manager included -- is snapshotted every
        ``interval`` ticks *after* the lifecycle step, so a resume
        replays from a consistent cut.  Returns the reached tick.
        """
        config = self.config
        stop = config.duration if end is None else min(end, config.duration)
        while self.t < stop:
            t = self.t
            arrivals = {"teastore": float(self.workload[t])}
            if self.antagonist_name is not None and antagonist_active(
                config, t
            ):
                arrivals[self.antagonist_name] = ANTAGONIST_RATE
            self.orchestrator.tick(arrivals)
            if (
                checkpoint_path is not None
                and checkpoint_interval > 0
                and (t + 1) % checkpoint_interval == 0
            ):
                self.orchestrator.save_checkpoint(checkpoint_path)
        return self.t

    def finish(self) -> DriftScenarioResult:
        """Close the loop and assemble the promotion history."""
        result = self.orchestrator.finish()
        manager = self.manager
        config = self.config
        if manager is None:
            return DriftScenarioResult(
                duration=result.duration,
                seed=config.seed,
                onset_tick=config.onset_tick,
                detection_tick=None,
                retrain_tick=None,
                promotion_tick=None,
                champion_version=1,
                violations=result.slo_violation_count,
                scale_outs=result.total_scale_outs,
                resumed_from_tick=self.resumed_from_tick,
            )

        def first(event: str) -> int | None:
            for entry in manager.history:
                if entry["event"] == event:
                    return int(entry["tick"])
            return None

        if obs.enabled():
            obs.set_gauge(
                "lifecycle.champion_version", manager.champion_version
            )
        return DriftScenarioResult(
            duration=result.duration,
            seed=config.seed,
            onset_tick=config.onset_tick,
            detection_tick=first("drift"),
            retrain_tick=first("retrain"),
            promotion_tick=first("promote"),
            champion_version=manager.champion_version,
            history=list(manager.history),
            registry_events=manager.registry.events,
            lineage=manager.registry.lineage(),
            violations=result.slo_violation_count,
            scale_outs=result.total_scale_outs,
            resumed_from_tick=self.resumed_from_tick,
        )


def run_drift_scenario(
    model, registry_dir, config: DriftScenarioConfig | None = None
) -> DriftScenarioResult:
    """Build, run and finish the scenario in one call."""
    runner = DriftScenarioRunner(model, registry_dir, config)
    runner.run_until()
    return runner.finish()
