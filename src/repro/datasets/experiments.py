"""The paper's evaluation scenarios (section 4).

Three applications never seen in training:

- **Elgg three-tier** (section 4.1, Table 5): Elgg front-end + InnoDB +
  Memcache on one training-class host; the front-end has 1 core / 4 GB
  and receives ``sinnoise1000`` scaled to one tenth.
- **Multi-tenant TeaStore + Sockshop** (section 4.2, Tables 6-8,
  Figure 3): both storefronts distributed over the M1/M2/M3 trio,
  TeaStore driven by the bursty multi-daily-pattern trace, Sockshop by
  three staggered Locust ramps.

Each scenario provides ground-truth labels (application KPI against a
Kneedle-calibrated threshold), per-instance utilization series for the
threshold baselines, and per-instance metric matrices for monitorless.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.apps.antagonist import antagonist_application
from repro.apps.base import ApplicationModel
from repro.apps.elgg import elgg_application
from repro.apps.sockshop import sockshop_application
from repro.apps.teastore import teastore_application
from repro.cluster.node import MACHINES, NodeSpec
from repro.cluster.resources import GIB
from repro.cluster.simulation import ClusterSimulation, Placement, SimulationResult
from repro.core.aggregation import aggregate_or
from repro.core.evaluation import LaggedConfusion, lagged_confusion
from repro.core.labeling import KneedleLabeler
from repro.core.model import MonitorlessModel
from repro.core.thresholds import BASELINE_KINDS, tune_threshold_baseline
from repro.telemetry.agent import TelemetryAgent
from repro.workloads.locust import staggered_locust_runs
from repro.workloads.patterns import linear_ramp, sinnoise
from repro.workloads.traces import teastore_trace

__all__ = [
    "Scenario",
    "deploy_antagonist",
    "elgg_scenario",
    "multitenant_scenario",
    "sockshop_windows",
    "calibrate_application",
    "evaluate_detectors",
    "DetectorComparison",
]

_KPI_NOISE = 0.01


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
def elgg_placements() -> dict[str, list[Placement]]:
    """Elgg deployment: all three tiers on one host, front-end limited."""
    return {
        "elgg-web": [Placement(node="host", cpu_limit=1.0, memory_limit=4 * GIB)],
        "innodb": [Placement(node="host", memory_limit=8 * GIB)],
        "memcache": [Placement(node="host", memory_limit=4 * GIB)],
    }


def teastore_placements() -> dict[str, list[Placement]]:
    """TeaStore over M1/M2/M3 (section 4.2.1); Auth gets 2 cores."""
    gib4 = 4 * GIB

    def place(node, cores=1.0):
        return [Placement(node=node, cpu_limit=cores, memory_limit=gib4)]

    return {
        "recommender": place("M1"),
        "auth": place("M1", 2.0),
        "registry": place("M1"),
        "db": place("M2"),
        "persistence": place("M2"),
        "webui": place("M3"),
        "imageprovider": place("M3"),
    }


def teastore_scaling_rules(node: str = "M2"):
    """The TeaStore autoscaling recipe (section 4.2.2).

    Auth, Recommender and WebUI scale out onto ``node`` (2, 1 and 1
    cores, 4 GB each); a replica lives 120 s, and Auth and Recommender
    always scale together.
    """
    from repro.orchestrator.autoscaler import ScalingRules

    def place(cores):
        return Placement(node=node, cpu_limit=cores, memory_limit=4 * GIB)

    return ScalingRules(
        placements={
            "auth": place(2.0),
            "recommender": place(1.0),
            "webui": place(1.0),
        },
        replica_lifespan=120,
        scale_groups=(("auth", "recommender"),),
    )


def sockshop_placements() -> dict[str, list[Placement]]:
    """Sockshop over M1/M2/M3; the *-DB services get 2 cores."""
    gib4 = 4 * GIB

    def place(node, cores=1.0):
        return [Placement(node=node, cpu_limit=cores, memory_limit=gib4)]

    return {
        "catalogue": place("M1"),
        "catalogue-db": place("M1", 2.0),
        "front-end": place("M1"),
        "queue": place("M1"),
        "edge-router": place("M2"),
        "carts": place("M2"),
        "carts-db": place("M2", 2.0),
        "orders": place("M2"),
        "orders-db": place("M2", 2.0),
        "payment": place("M2"),
        "queue-master": place("M2"),
        "user": place("M3"),
        "user-db": place("M3", 2.0),
        "shipping": place("M3"),
    }


def evaluation_nodes() -> dict[str, NodeSpec]:
    """The M1/M2/M3 trio."""
    return {name: MACHINES[name] for name in ("M1", "M2", "M3")}


def teastore_simulation(seed: int) -> ClusterSimulation:
    """A TeaStore cell: the evaluation cluster with TeaStore deployed."""
    simulation = ClusterSimulation(evaluation_nodes(), seed=seed)
    simulation.deploy(teastore_application(), teastore_placements())
    return simulation


def deploy_antagonist(simulation: ClusterSimulation, kind: str,
                      intensity: float, node: str) -> str:
    """Deploy the ``kind`` noisy neighbour with every service on
    ``node``; return its application name."""
    antagonist = antagonist_application(kind, intensity)
    simulation.deploy(
        antagonist,
        {name: [Placement(node=node)] for name in antagonist.services},
    )
    return antagonist.name


# ----------------------------------------------------------------------
# Threshold calibration for whole applications
# ----------------------------------------------------------------------
def calibrate_application(
    application_factory,
    placements: dict[str, list[Placement]],
    nodes: dict[str, NodeSpec],
    *,
    duration: int = 400,
    start_rate: float = 1.0,
    max_rate: float = 2000.0,
    seed: int = 0,
) -> float:
    """Kneedle threshold from a linear-ramp run of the app in isolation.

    Extends the ramp (doubling, up to five times) until the throughput
    KPI flattens, as an operator would.
    """
    high = max_rate

    def ramp_run(high_rate):
        simulation = ClusterSimulation(dict(nodes), seed=seed)
        application = application_factory()
        simulation.deploy(application, placements)
        ramp = linear_ramp(duration, start_rate, high_rate)
        result = simulation.run({application.name: ramp})
        return ramp, result.kpi(application.name, "throughput")

    for _ in range(6):
        ramp, throughput = ramp_run(high)
        if throughput[-1] < 0.9 * ramp[-1]:
            break
        high *= 2.0
    capacity = float(np.max(throughput))
    ramp, throughput = ramp_run(capacity * 1.6)
    rng = np.random.default_rng(seed)
    observed = throughput * (1.0 + rng.normal(0.0, _KPI_NOISE, throughput.size))
    labeler = KneedleLabeler(window_length=21).fit(ramp, observed)
    return float(labeler.threshold_)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """A finished evaluation run for one application."""

    application: ApplicationModel
    result: SimulationResult
    workload: np.ndarray
    y_true: np.ndarray  # app-level ground truth (thr KPI vs Upsilon)
    threshold: float
    agent: TelemetryAgent

    def containers(self):
        return [
            c
            for c in self.result.containers
            if c.application == self.application.name
        ]

    def utilizations(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(cpu%, mem%) per container, for the threshold baselines."""
        return [
            self.agent.utilization_series(c, self.result.nodes)
            for c in self.containers()
        ]

    def instance_predictions(
        self, model: MonitorlessModel
    ) -> dict[str, np.ndarray]:
        """Per-container monitorless prediction series.

        Cached per model instance: several benches (Tables 6/8,
        Figure 3) score the same scenario with the same model.  An entry
        holds a weak reference to its model and serves only that model,
        so a model that reuses a freed model's ``id`` never gets its
        predictions, and the cache keeps no model alive.
        """
        cache = getattr(self, "_prediction_cache", None)
        if cache is None:
            cache = {}
            self._prediction_cache = cache
        owner, predictions = cache.get(id(model), (None, None))
        if owner is None or owner() is not model:
            meta = self.agent.catalog.feature_meta()
            predictions = {}
            for container in self.containers():
                matrix = self.agent.instance_matrix(container, self.result.nodes)
                predictions[container.name] = model.predict(matrix, meta)
            cache[id(model)] = (weakref.ref(model), predictions)
        return {name: series.copy() for name, series in predictions.items()}


def _ground_truth(
    result: SimulationResult, app_name: str, threshold: float, seed: int
) -> np.ndarray:
    throughput = result.kpi(app_name, "throughput")
    rng = np.random.default_rng(seed + 99)
    observed = throughput * (1.0 + rng.normal(0.0, _KPI_NOISE, throughput.size))
    return (observed > threshold).astype(np.int64)


def elgg_scenario(
    *, duration: int = 2450, seed: int = 0, agent: TelemetryAgent | None = None
) -> Scenario:
    """The Table-5 experiment: Elgg under sinnoise1000 / 10."""
    nodes = {"host": MACHINES["training"]}
    placements = elgg_placements()
    threshold = calibrate_application(
        elgg_application, placements, nodes, max_rate=150.0, seed=seed
    )
    simulation = ClusterSimulation(nodes, seed=seed)
    application = elgg_application()
    simulation.deploy(application, placements)
    workload = sinnoise(duration, 1.0, 100.0, seed=seed + 5)
    result = simulation.run({application.name: workload})
    agent = agent or TelemetryAgent(seed=seed)
    y_true = _ground_truth(result, application.name, threshold, seed)
    return Scenario(
        application=application,
        result=result,
        workload=workload,
        y_true=y_true,
        threshold=threshold,
        agent=agent,
    )


def multitenant_scenario(
    *,
    duration: int = 7000,
    seed: int = 0,
    agent: TelemetryAgent | None = None,
) -> tuple[Scenario, Scenario]:
    """The section-4.2 deployment: TeaStore + Sockshop on M1/M2/M3.

    Returns ``(teastore_scenario, sockshop_scenario)`` sharing one
    simulation run (each sees the other as interference).
    """
    nodes = evaluation_nodes()
    tea_threshold = calibrate_application(
        teastore_application, teastore_placements(), nodes,
        max_rate=1000.0, seed=seed,
    )
    sock_threshold = calibrate_application(
        sockshop_application, sockshop_placements(), nodes,
        max_rate=1200.0, seed=seed,
    )

    simulation = ClusterSimulation(nodes, seed=seed)
    teastore = teastore_application()
    sockshop = sockshop_application()
    simulation.deploy(teastore, teastore_placements())
    simulation.deploy(sockshop, sockshop_placements())

    tea_load = teastore_trace(duration=duration, seed=seed + 7)
    sock_load = staggered_locust_runs(
        total_duration=duration,
        starts=tuple(int(duration * f) for f in (1 / 7, 3 / 7, 5 / 7)),
        run_duration=duration // 7,
        hatch_seconds=int(duration // 7 * 0.7),
    )
    result = simulation.run({"teastore": tea_load, "sockshop": sock_load})
    agent = agent or TelemetryAgent(seed=seed)

    tea = Scenario(
        application=teastore,
        result=result,
        workload=tea_load,
        y_true=_ground_truth(result, "teastore", tea_threshold, seed),
        threshold=tea_threshold,
        agent=agent,
    )
    sock = Scenario(
        application=sockshop,
        result=result,
        workload=sock_load,
        y_true=_ground_truth(result, "sockshop", sock_threshold, seed + 1),
        threshold=sock_threshold,
        agent=agent,
    )
    return tea, sock


def sockshop_windows(duration: int) -> np.ndarray:
    """Sample indices of the three active Locust windows (Table 8).

    The paper scores Sockshop only over the three 999-sample runs
    (2997 samples total); everything between runs is idle.
    """
    run = duration // 7
    starts = [int(duration * f) for f in (1 / 7, 3 / 7, 5 / 7)]
    indices = np.concatenate(
        [np.arange(start + 1, start + run) for start in starts]
    )
    return indices[indices < duration]


# ----------------------------------------------------------------------
# Detector comparison (Tables 5 / 6 / 8)
# ----------------------------------------------------------------------
@dataclass
class DetectorComparison:
    """All detectors' lagged confusions on one scenario."""

    rows: dict[str, LaggedConfusion]
    labels: dict[str, str]  # detector -> printable label (with thresholds)
    predictions: dict[str, np.ndarray]  # detector -> app-level series

    def table(self) -> list[dict]:
        """Rows in the shape of the paper's Tables 5/6/8."""
        out = []
        for detector, confusion in self.rows.items():
            row = {"algorithm": self.labels[detector]}
            row.update(confusion.as_row())
            out.append(row)
        return out


def evaluate_detectors(
    scenario: Scenario,
    model: MonitorlessModel,
    *,
    k: int = 2,
    window: np.ndarray | None = None,
) -> DetectorComparison:
    """Score monitorless and the four tuned baselines on a scenario.

    ``window`` restricts scoring to a subset of sample indices (the
    Sockshop evaluation windows); baselines are tuned on the same
    restricted samples, preserving their a-posteriori advantage.
    """
    y_true = scenario.y_true
    utilizations = scenario.utilizations()
    per_instance = scenario.instance_predictions(model)
    monitorless_series = aggregate_or(per_instance)

    if window is not None:
        y_true = y_true[window]
        utilizations = [(cpu[window], mem[window]) for cpu, mem in utilizations]
        monitorless_series = monitorless_series[window]

    rows: dict[str, LaggedConfusion] = {}
    labels: dict[str, str] = {}
    predictions: dict[str, np.ndarray] = {}
    for kind in BASELINE_KINDS:
        baseline, confusion = tune_threshold_baseline(
            kind, utilizations, y_true, k=k
        )
        rows[kind] = confusion
        labels[kind] = baseline.label()
        predictions[kind] = baseline.predict_application(utilizations)
    rows["monitorless"] = lagged_confusion(y_true, monitorless_series, k)
    labels["monitorless"] = "monitorless"
    predictions["monitorless"] = monitorless_series
    return DetectorComparison(rows=rows, labels=labels, predictions=predictions)
