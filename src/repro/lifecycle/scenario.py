"""The deterministic end-to-end drift scenario.

A TeaStore closed loop serves at a *stationary* arrival plateau with a
solo-trained champion, then two distribution shifts hit mid-run at the
onset tick:

- a **membw antagonist** (:mod:`repro.apps.antagonist`) co-located
  with the db/persistence tier starts hammering shared memory
  bandwidth in bursts (``antagonist_duty`` of every
  ``antagonist_period`` ticks) -- the kind of neighbour-caused
  degradation the solo corpus never contained (PR 9's transfer eval
  measures exactly this gap).  The bursts matter: they interleave
  violated and healthy ticks, so a challenger that *recognizes* the
  squeeze can beat a champion that merely cries wolf;
- the **workload steps up**: the plateau is multiplied by
  ``shift_multiplier`` from the onset on.

The pre-onset plateau is what makes detection meaningful -- the
detector's frozen reference actually represents "before", so the
alarm tick lands after the onset, not wherever a ramp happened to
drift past the reference.

The attached :class:`~repro.lifecycle.manager.LifecycleManager` must
then detect the feature-distribution drift within its configured
window, retrain a challenger on the recent stream (plus optional
interference corpora), shadow-evaluate it walk-forward, and promote it
-- producing a promotion history that is bitwise identical at every
``n_jobs`` and across a mid-run kill-and-resume
(:class:`DriftScenarioRunner.resume` over an orchestrator checkpoint,
which snapshots the manager, registry and detector state wholesale).

The runner owns the scenario's arrivals and checkpoint cadence only:
the orchestrator's tick reports each second's SLO outcome to the
manager and steps it, as it does for any policy with a lifecycle.

Every quantity is keyed by tick; nothing reads the wall clock.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro import obs
from repro.lifecycle.drift import DriftDetector
from repro.lifecycle.manager import LifecycleManager
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.retrain import RetrainConfig, Retrainer
from repro.lifecycle.shadow import ShadowEvaluator
from repro.lifecycle.tracker import ModelPerformanceTracker

__all__ = [
    "DriftScenarioConfig",
    "DriftScenarioResult",
    "DriftScenarioRunner",
    "antagonist_active",
    "run_drift_scenario",
    "scenario_workload",
]


@dataclass
class DriftScenarioConfig:
    """Knobs of the seeded drift scenario (all ticks, never seconds)."""

    duration: int = 360
    seed: int = 0
    #: Antagonist squeezing the db/persistence node in bursts
    #: (``duty`` of every ``period`` ticks) from the onset tick on.
    antagonist: str | None = "membw"
    antagonist_rate: float = 100.0
    antagonist_node: str = "M2"
    antagonist_intensity: float = 1.0
    antagonist_period: int = 40
    antagonist_duty: float = 0.5
    onset_fraction: float = 0.45
    #: The stationary plateau (requests/s) and its post-onset step.
    workload_rate: float = 140.0
    shift_multiplier: float = 1.2
    # --- drift detector ------------------------------------------------
    # Window sizes are in *rows*, and the policy observes one row per
    # container per tick (~7-13 for TeaStore with scale-out replicas).
    # Null-hypothesis PSI decays like (bins-1)(1/n_live + 1/n_ref);
    # these sizes keep it far below the 0.25 alarm threshold, and the
    # live window spans about two antagonist periods so the on/off
    # mixture does not wobble the post-promotion reference.
    n_bins: int = 10
    drift_window: int = 800
    reference_rows: int = 800
    drift_min_rows: int = 400
    psi_threshold: float = 0.25
    ks_threshold: float = 0.35
    min_features: int = 8
    patience: int = 3
    # --- tracker / shadow ----------------------------------------------
    # The solo champion chronically over-flags this plateau (its corpus
    # never contained TeaStore at steady state), so rolling agreement
    # is pinned low from the start and is not a usable *trigger* here:
    # the scenario keeps the tracker observational (min_agreement 0)
    # and exercises the drift-alarm trigger; the agreement trigger is
    # covered by unit tests.
    tracker_window: int = 120
    min_agreement: float = 0.0
    shadow_window: int = 24
    wins_required: int = 2
    #: Near-ties go to the champion: a late-run challenger retrained
    #: off the oscillating post-onset mixture scores within a point of
    #: the promoted champion, and without a margin it could flap the
    #: deployment on luck.
    min_margin: float = 0.05
    # --- retraining ----------------------------------------------------
    label_delay: int = 3
    retrain_cooldown: int = 40
    shadow_patience: int = 6
    stream_capacity: int = 240
    retrain_min_rows: int = 60
    #: Interference scenario ids (from
    #: :data:`repro.datasets.interference.INTERFERENCE_SCENARIOS`) mixed
    #: into the retrain corpus; empty keeps retraining stream-only.
    interference_scenario_ids: tuple = ()
    interference_duration: int = 120
    calibration_duration: int = 100
    n_jobs: int | None = None
    #: ``False`` runs the identical loop with no manager attached --
    #: the baseline for the "shadow serving never perturbs the
    #: champion" contract and for costing the lifecycle overhead.
    lifecycle_enabled: bool = True

    @property
    def onset_tick(self) -> int:
        return int(round(self.onset_fraction * self.duration))


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
    """The stepped arrival plateau (requests/s per tick)."""
    shifted = np.full(config.duration, config.workload_rate, dtype=np.float64)
    shifted[config.onset_tick:] *= config.shift_multiplier
    return shifted


def antagonist_active(config: DriftScenarioConfig, t: int) -> bool:
    """Whether the antagonist burst is on at tick ``t``."""
    if config.antagonist is None or t < config.onset_tick:
        return False
    phase = (t - config.onset_tick) % config.antagonist_period
    return phase < config.antagonist_duty * config.antagonist_period


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


def build_manager(
    model, registry, config: DriftScenarioConfig
) -> LifecycleManager:
    """A fully-wired manager from the scenario's knobs."""
    return LifecycleManager(
        model,
        registry=registry,
        detector=DriftDetector(
            n_bins=config.n_bins,
            window=config.drift_window,
            reference_rows=config.reference_rows,
            min_rows=config.drift_min_rows,
            psi_threshold=config.psi_threshold,
            ks_threshold=config.ks_threshold,
            min_features=config.min_features,
            patience=config.patience,
        ),
        tracker=ModelPerformanceTracker(
            window=config.tracker_window,
            min_agreement=config.min_agreement,
        ),
        evaluator=ShadowEvaluator(
            window=config.shadow_window,
            wins_required=config.wins_required,
            min_margin=config.min_margin,
        ),
        retrainer=Retrainer(
            RetrainConfig(
                min_rows=config.retrain_min_rows,
                interference_scenarios=_interference_scenarios(
                    config.interference_scenario_ids
                ),
                interference_duration=config.interference_duration,
                calibration_duration=config.calibration_duration,
                seed=config.seed,
                n_jobs=config.n_jobs,
            )
        ),
        stream_capacity=config.stream_capacity,
        label_delay=config.label_delay,
        retrain_cooldown=config.retrain_cooldown,
        shadow_patience=config.shadow_patience,
    )


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
    the pickled policy carries the manager, so the lifecycle replays
    from exactly the saved tick.
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
        self.manager = (
            build_manager(model, ModelRegistry(registry_dir), config)
            if config.lifecycle_enabled
            else None
        )
        simulation = teastore_simulation(config.seed)
        node = config.antagonist_node
        rules = teastore_scaling_rules(node=node)
        policy = MonitorlessPolicy(
            model, TelemetryAgent(seed=config.seed), lifecycle=self.manager
        )
        self.antagonist_name: str | None = None
        if config.antagonist is not None:
            self.antagonist_name = deploy_antagonist(
                simulation, config.antagonist, config.antagonist_intensity,
                node,
            )
        self.orchestrator = Orchestrator(
            simulation, "teastore", policy, rules
        )
        self.orchestrator.start()
        self.resumed_from_tick: int | None = None

    @classmethod
    def resume(
        cls, checkpoint_path, config=None, *, model=None
    ) -> "DriftScenarioRunner":
        """Continue a checkpointed scenario from its saved tick.

        ``model``, when given, must be the model the checkpoint was
        serving: the lifecycle manager's registry owns the serving
        model, so any other model raises
        :class:`~repro.reliability.checkpoint.CheckpointError` (see
        :meth:`~repro.orchestrator.loop.Orchestrator.resume_from`).
        """
        from repro.orchestrator.loop import Orchestrator

        runner = cls.__new__(cls)
        runner.config = config = config or DriftScenarioConfig()
        runner.workload = scenario_workload(config)
        runner.orchestrator = Orchestrator.resume_from(
            checkpoint_path, model=model
        )
        runner.manager = runner.orchestrator.policy.lifecycle
        if runner.manager is None:
            raise ValueError(
                f"{checkpoint_path} holds no lifecycle manager; it is not "
                "a drift-scenario checkpoint."
            )
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
                arrivals[self.antagonist_name] = config.antagonist_rate
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
    model,
    registry_dir,
    config: DriftScenarioConfig | None = None,
    *,
    checkpoint_path=None,
    checkpoint_interval: int = 0,
) -> DriftScenarioResult:
    """Build, run and finish the scenario in one call."""
    runner = DriftScenarioRunner(model, registry_dir, config)
    runner.run_until(
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
    )
    return runner.finish()
