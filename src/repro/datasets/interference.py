"""Neighbour-caused degradation corpora and the solo->interference
transfer evaluation.

The Table-1 training corpus saturates each application with *its own*
load.  In production the same symptoms -- throttling, queueing, missed
throughput -- often come from a noisy neighbour on the shared node
instead.  This module builds corpora where a victim runs at a constant
sub-knee rate while a co-located antagonist (:mod:`repro.apps.antagonist`)
switches on mid-run and squeezes one shared resource, so every degraded
second is attributable to the *neighbour* rather than to self-load.

Labels carry the distinction explicitly: ``y`` is the binary degraded
flag (the victim failed to deliver its constant offered rate) and
``cause`` records *why* -- :data:`CAUSE_SELF` when the victim alone is
past its knee, :data:`CAUSE_NEIGHBOR` when an antagonist is active,
:data:`CAUSE_NONE` for clean seconds.

:func:`transfer_eval` then answers the paper-style question: does a
model trained purely on solo-tenant saturation recognise degradation it
has never seen -- the kind caused by somebody else's load?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.antagonist import ANTAGONIST_RATE
from repro.cluster.node import MACHINES
from repro.cluster.simulation import ClusterSimulation
from repro.core.features.meta import FeatureMeta
from repro.datasets.configs import run_by_id
from repro.datasets.experiments import deploy_antagonist
from repro.datasets.generate import calibrate_threshold, observe_kpi
from repro.parallel import parallel_map
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.catalog import default_catalog
from repro.workloads.patterns import constant

__all__ = [
    "CAUSE_NONE",
    "CAUSE_SELF",
    "CAUSE_NEIGHBOR",
    "InterferenceScenario",
    "InterferenceRun",
    "InterferenceCorpus",
    "INTERFERENCE_SCENARIOS",
    "generate_interference_run",
    "build_interference_corpus",
    "transfer_eval",
]

#: Per-second cause labels.
CAUSE_NONE = 0  # the victim delivered its offered load
CAUSE_SELF = 1  # degraded with no antagonist active (own overload)
CAUSE_NEIGHBOR = 2  # degraded while a co-located antagonist is active

_DEGRADED_MARGIN = 0.9  # observed < 90% of offered => degraded second
#: Every victim and its antagonist share one M3-class node (8 cores,
#: 400 MB/s disk), the node the antagonists are sized for.
_NODE = "M3"
#: The antagonist switches on 40% into the run, so every run opens
#: with a solo baseline on the same node.
_ONSET = 0.4


@dataclass(frozen=True)
class InterferenceScenario:
    """One victim/antagonist colocation experiment.

    ``victim_load`` is a fraction of the victim's calibrated saturation
    threshold (its solo knee): below 1.0 the victim is healthy on its
    own, so any degradation after the antagonist's onset is the
    neighbour's doing; above 1.0 the victim overloads *itself* (a
    self-saturation control with ``antagonist=None``).  Scenarios
    without an antagonist and ``victim_load < 1`` are clean solo
    controls for the false-alarm baseline.
    """

    scenario_id: int
    victim_run: int  # Table-1 run id providing the victim config
    antagonist: str | None  # "cpu" | "membw" | "disk" | None
    victim_load: float = 0.6  # fraction of the calibrated knee

    @property
    def label(self) -> str:
        suffix = self.antagonist or "solo"
        return (
            f"#{self.scenario_id} run{self.victim_run}"
            f"@{self.victim_load:g} vs {suffix} on {_NODE}"
        )


#: The default scenario set: one antagonist per contention channel
#: against a matched victim, plus solo controls (false-alarm baseline)
#: and one self-saturation control (cause disambiguation).
INTERFERENCE_SCENARIOS: list[InterferenceScenario] = [
    InterferenceScenario(101, 2, "cpu"),  # Solr vs CPU hog -> steal
    InterferenceScenario(102, 7, "membw"),  # Memcache vs DRAM burner
    InterferenceScenario(103, 14, "disk"),  # Cassandra IO vs disk hammer
    InterferenceScenario(104, 12, "cpu"),  # Cassandra vs CPU hog
    InterferenceScenario(111, 2, None),  # solo controls
    InterferenceScenario(112, 7, None),
    InterferenceScenario(121, 2, None, victim_load=1.4),  # self-overload
]


@dataclass
class InterferenceRun:
    """One scenario's labeled victim samples."""

    scenario: InterferenceScenario
    X: np.ndarray  # (T * replicas, n_metrics) victim samples
    y: np.ndarray  # (T * replicas,) degraded flags
    cause: np.ndarray  # (T * replicas,) CAUSE_* per sample
    offered: float  # the constant offered rate (requests/s)
    threshold: float  # the victim's calibrated solo knee
    throughput: np.ndarray  # observed victim KPI (one per tick)
    onset_tick: int  # first tick with the antagonist active

    @property
    def degraded_fraction(self) -> float:
        return float(self.y.mean())


@dataclass
class InterferenceCorpus:
    """The assembled corpus: samples, labels, causes, groups, meta."""

    X: np.ndarray
    y: np.ndarray
    cause: np.ndarray
    groups: np.ndarray  # scenario id per row
    meta: list[FeatureMeta]
    runs: list[InterferenceRun]

    def summary(self) -> list[dict]:
        """Per-scenario digest."""
        return [
            {
                "scenario": run.scenario.scenario_id,
                "victim_run": run.scenario.victim_run,
                "antagonist": run.scenario.antagonist,
                "node": _NODE,
                "victim_load": run.scenario.victim_load,
                "samples": int(run.y.size),
                "degraded": round(run.degraded_fraction, 3),
                "neighbor_caused": round(
                    float((run.cause == CAUSE_NEIGHBOR).mean()), 3
                ),
            }
            for run in self.runs
        ]


def generate_interference_run(
    scenario: InterferenceScenario,
    *,
    duration: int = 600,
    calibration_duration: int = 300,
    seed: int = 0,
) -> InterferenceRun:
    """Simulate one colocation scenario and label the victim's seconds.

    The victim's knee is calibrated solo on the M3 node (same cache and
    noise discipline as the training corpus), then the victim runs at
    ``victim_load`` times that knee while the antagonist -- if any --
    switches from idle to ``ANTAGONIST_RATE`` at the onset tick.  A
    second is degraded iff the observed victim throughput falls below
    ``0.9x`` the constant offered rate.  The telemetry agent is built
    from the seed, as :func:`~repro.datasets.generate.generate_session`
    builds its own.
    """
    agent = TelemetryAgent(seed=seed)
    victim = run_by_id(scenario.victim_run)
    threshold, _, _ = calibrate_threshold(
        victim, duration=calibration_duration, node=_NODE, seed=seed
    )
    offered = scenario.victim_load * threshold
    onset_tick = int(round(_ONSET * duration))

    simulation = ClusterSimulation({_NODE: MACHINES[_NODE]}, seed=seed)
    application = victim.application()
    application.name = f"{application.name}-{victim.run_id}"
    simulation.deploy(
        application,
        {
            name: [victim.placement(_NODE)]
            for name in application.services
        },
    )
    workloads = {application.name: constant(duration, offered)}
    if scenario.antagonist is not None:
        antagonist = deploy_antagonist(simulation, scenario.antagonist, _NODE)
        # Idle until onset, then a constant hammering rate.  Zero-rate
        # ticks generate no antagonist work, so the pre-onset window is
        # a true solo baseline on the very same node.
        schedule = np.zeros(duration)
        schedule[onset_tick:] = ANTAGONIST_RATE
        workloads[antagonist] = schedule
    result = simulation.run(workloads)

    rng = np.random.default_rng(seed + 7000 + scenario.scenario_id)
    observed = observe_kpi(result.kpi(application.name, "throughput"), rng)
    degraded = observed < _DEGRADED_MARGIN * offered
    active = np.zeros(duration, dtype=bool)
    if scenario.antagonist is not None:
        active[onset_tick:] = True
    cause = np.where(
        degraded,
        np.where(active, CAUSE_NEIGHBOR, CAUSE_SELF),
        CAUSE_NONE,
    ).astype(np.int64)

    containers = [
        c for c in result.containers if c.application == application.name
    ]
    X = np.vstack(
        [agent.instance_matrix(c, result.nodes) for c in containers]
    )
    replicas = len(containers)
    return InterferenceRun(
        scenario=scenario,
        X=X,
        y=np.tile(degraded.astype(np.int64), replicas),
        cause=np.tile(cause, replicas),
        offered=float(offered),
        threshold=float(threshold),
        throughput=observed,
        onset_tick=onset_tick,
    )


def _generate_run_task(task, arrays) -> InterferenceRun:
    """One scenario; runs in-process or in a pool worker.

    All randomness is keyed by the corpus seed and scenario id, never
    by call order -- so the corpus is bitwise identical at every
    ``n_jobs``.
    """
    scenario, duration, calibration_duration, seed = task
    return generate_interference_run(
        scenario,
        duration=duration,
        calibration_duration=calibration_duration,
        seed=seed,
    )


def build_interference_corpus(
    *,
    duration: int = 600,
    calibration_duration: int = 300,
    seed: int = 0,
    scenarios: list[InterferenceScenario] | None = None,
    n_jobs: int | None = None,
) -> InterferenceCorpus:
    """Generate the interference corpus (all scenarios)."""
    if scenarios is None:
        scenarios = INTERFERENCE_SCENARIOS
    tasks = [
        (scenario, duration, calibration_duration, seed)
        for scenario in scenarios
    ]
    runs = list(
        parallel_map(_generate_run_task, tasks, n_jobs=n_jobs, chunk_size=1)
    )
    X = np.vstack([run.X for run in runs])
    y = np.concatenate([run.y for run in runs])
    cause = np.concatenate([run.cause for run in runs])
    groups = np.concatenate(
        [np.full(run.y.size, run.scenario.scenario_id) for run in runs]
    )
    return InterferenceCorpus(
        X=X,
        y=y,
        cause=cause,
        groups=groups,
        meta=default_catalog().feature_meta(),
        runs=runs,
    )


def _mean(predictions: np.ndarray, mask: np.ndarray) -> float | None:
    if not mask.any():
        return None
    return float(predictions[mask].mean())


def transfer_eval(model, corpus: InterferenceCorpus) -> dict:
    """Score a solo-trained model on the interference corpus.

    - ``interference_recall``: fraction of neighbour-caused degraded
      seconds the model flags -- the transfer question proper.
    - ``self_recall``: recall on self-overload seconds (the training
      distribution; a sanity ceiling for the transfer number).
    - ``false_alarm_interference`` vs ``false_alarm_solo``: positive
      rate on *clean* seconds of antagonist scenarios vs solo-control
      scenarios; their difference is the false-alarm delta an operator
      would pay for colocation.
    """
    predictions = np.asarray(
        model.predict(corpus.X, corpus.meta, corpus.groups)
    )
    has_antagonist = np.isin(
        corpus.groups,
        [
            run.scenario.scenario_id
            for run in corpus.runs
            if run.scenario.antagonist is not None
        ],
    )
    clean = corpus.y == 0
    fa_interference = _mean(predictions, clean & has_antagonist)
    fa_solo = _mean(predictions, clean & ~has_antagonist)
    delta = (
        fa_interference - fa_solo
        if fa_interference is not None and fa_solo is not None
        else None
    )
    per_scenario = []
    for run in corpus.runs:
        mask = corpus.groups == run.scenario.scenario_id
        per_scenario.append(
            {
                "scenario": run.scenario.scenario_id,
                "label": run.scenario.label,
                "recall_neighbor": _mean(
                    predictions, mask & (corpus.cause == CAUSE_NEIGHBOR)
                ),
                "recall_self": _mean(
                    predictions, mask & (corpus.cause == CAUSE_SELF)
                ),
                "false_alarms": _mean(predictions, mask & clean),
            }
        )
    return {
        "samples": int(predictions.size),
        "interference_recall": _mean(
            predictions, corpus.cause == CAUSE_NEIGHBOR
        ),
        "self_recall": _mean(predictions, corpus.cause == CAUSE_SELF),
        "false_alarm_interference": fa_interference,
        "false_alarm_solo": fa_solo,
        "false_alarm_delta": delta,
        "per_scenario": per_scenario,
    }
