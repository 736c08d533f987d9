"""The fleet closed loop: many application cells, sharded over workers.

A *fleet* is a set of independent application cells -- each one a full
:class:`~repro.cluster.simulation.ClusterSimulation` with its deployed
application, telemetry agent, scaling rules and workload column.  A
*shard* is a contiguous block of cells driven by one
:class:`FleetShardRunner`: per tick it advances all of its cells'
simulations in one vectorized pass
(:class:`~repro.cluster.simulation.Lockstep`, bitwise equal to stepping
each cell), asks its shard-wide :class:`~repro.fleet.policy.FleetPolicy` for
saturated ``(namespace, deployment)`` keys (one matrix walk, one
``predict_proba``), and lets each cell's autoscaler act.  The rest is
the per-application :class:`~repro.orchestrator.loop.Orchestrator`'s:
an attached lifecycle manager gets the tick's SLO outcome (violated if
any cell violated) and a step, and the tick's phase timing is its
``repro.obs`` spans (``orchestrator.tick`` over ``simulation.step``,
``policy.fleet`` and ``autoscaler.act``).

:class:`FleetOrchestrator` fans the shards out over
:func:`~repro.parallel.pool.parallel_map` workers.  Cells are
data-independent and seeded by stable cell keys, so results are
deterministic at every ``n_jobs``; the workload matrix travels once
through shared memory.  Each shard checkpoints its whole runner
(``REPRO-CKPT`` format) every ``checkpoint_interval`` ticks; with
``on_crash="serial"`` a shard whose worker dies mid-run is resumed
*from its checkpoint* in the parent and the fleet result is still
complete and bitwise deterministic.  A checkpoint resumes only the run
that wrote it -- the same shard, cells, workload rows and tick count,
served by the same model -- and any other raises
:class:`~repro.reliability.checkpoint.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster.simulation import Lockstep
from repro.datasets.experiments import teastore_scaling_rules, teastore_simulation
from repro.fleet.policy import FleetPolicy
from repro.orchestrator.autoscaler import Autoscaler
from repro.orchestrator.loop import OrchestratorResult
from repro.orchestrator.slo import SloPolicy, violated_last_tick
from repro.parallel.jobs import in_worker, resolve_n_jobs
from repro.parallel.pool import parallel_map
from repro.reliability.checkpoint import (
    CheckpointError,
    check_model_swap,
    load_checkpoint,
    save_checkpoint,
)
from repro.telemetry.agent import TelemetryAgent, _stream_seed

__all__ = [
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


@dataclass(frozen=True)
class FleetCellSpec:
    """Deterministic recipe for one cell; picklable and tiny."""

    namespace: str
    seed: int = 0
    kind: str = "teastore"


@dataclass
class FleetCell:
    """One built cell: simulation, telemetry, scaling mechanics."""

    namespace: str
    simulation: object
    application: str
    agent: object
    autoscaler: object
    secondary: object = None


def _plain_agent(spec: FleetCellSpec):
    """Plain cell: exact-type agent, grouped fast-path telemetry."""
    return TelemetryAgent(seed=spec.seed), None


def _dropout_agent(spec: FleetCellSpec):
    """Lossy-scrape cell: ``MetricDropout`` over the plain agent."""
    from repro.cluster.faults import MetricDropout

    agent = MetricDropout(
        TelemetryAgent(seed=spec.seed), probability=0.1, seed=spec.seed + 1
    )
    return agent, None


def _chaos_agent(spec: FleetCellSpec):
    """Full chaos stack with a threshold secondary, mirroring the
    reliability tests' fallback configuration."""
    from repro.orchestrator.policies import fallback_threshold_policy
    from repro.reliability.chaos import ChaosConfig, TelemetryBlackout, chaos_stack

    config = ChaosConfig(
        dropout_probability=0.1,
        hard_failure_probability=0.02,
        transient_failure_probability=0.03,
        nan_probability=0.02,
        state_failure_probability=0.0,
        blackouts=(TelemetryBlackout(20, 28, scope="stream"),),
        staleness_budget=3,
    )
    agent = chaos_stack(TelemetryAgent(seed=spec.seed), config, spec.seed + 1)
    return agent, fallback_threshold_policy(agent.agent)


#: Cell kind -> ``spec -> (agent, secondary)``: the kind's telemetry
#: stack and its fallback secondary (``None`` for none).
CELL_BUILDERS = {
    "teastore": _plain_agent,
    "teastore-dropout": _dropout_agent,
    "teastore-chaos": _chaos_agent,
}


def build_cell(spec: FleetCellSpec) -> FleetCell:
    """A TeaStore cell with the telemetry stack of ``spec.kind``."""
    try:
        builder = CELL_BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"Unknown cell kind {spec.kind!r}; "
            f"known: {sorted(CELL_BUILDERS)}."
        ) from None
    simulation = teastore_simulation(spec.seed)
    agent, secondary = builder(spec)
    return FleetCell(
        namespace=spec.namespace,
        simulation=simulation,
        application="teastore",
        agent=agent,
        autoscaler=Autoscaler(
            simulation=simulation, application="teastore",
            rules=teastore_scaling_rules(),
        ),
        secondary=secondary,
    )


def make_fleet_specs(
    n_cells: int, base_seed: int = 0, kind: str = "teastore",
) -> list[FleetCellSpec]:
    """Specs ``cell-0000``, ``cell-0001``, ... with stable per-cell
    seeds derived from the cell key."""
    return [
        FleetCellSpec(
            namespace=f"cell-{index:04d}",
            seed=_stream_seed(base_seed, f"fleet-cell:cell-{index:04d}")
            % 2**31,
            kind=kind,
        )
        for index in range(n_cells)
    ]


def default_fleet_workloads(
    n_cells: int, duration: int, seed: int = 0,
    low: float = 10.0, high: float = 260.0,
) -> np.ndarray:
    """A ``(n_cells, duration)`` arrival matrix: per-cell scaled ramps."""
    from repro.workloads.patterns import linear_ramp

    base = linear_ramp(duration, low, high)
    rng = np.random.default_rng(_stream_seed(seed, "fleet-workloads"))
    scales = rng.uniform(0.7, 1.3, n_cells)
    return np.ascontiguousarray(scales[:, None] * base[None, :])


# ---------------------------------------------------------------------------
# Shard runner
# ---------------------------------------------------------------------------
@dataclass
class FleetShardResult:
    shard_index: int
    decisions: list  # per tick: sorted tuple of (namespace, deployment)
    cells: dict[str, OrchestratorResult]
    health: dict
    counters: dict[str, int]
    #: Tick the shard was resumed from after a worker loss (None when
    #: the shard ran start-to-finish in one process).
    resumed_from_tick: int | None = None


class FleetShardRunner:
    """Closed loop over one shard's cells with a shared fleet policy.

    Exposes ``application`` / ``policy`` / ``_t`` so
    :func:`repro.reliability.checkpoint.save_checkpoint` can snapshot
    it exactly like a per-container :class:`Orchestrator`.  Settings
    of the shard's policy are set on ``policy`` itself (for example
    ``policy.configure_fallback(...)`` or ``policy.lifecycle = ...``)
    before the first tick.
    """

    def __init__(self, shard_index: int, specs, model):
        self.shard_index = shard_index
        self.application = f"fleet-shard-{shard_index}"
        self.specs = list(specs)
        self.cells = [build_cell(spec) for spec in self.specs]
        self.policy = FleetPolicy(model)
        for cell in self.cells:
            self.policy.add_cell(
                cell.namespace, cell.simulation, cell.application,
                cell.agent, secondary=cell.secondary,
            )
        self.lockstep = Lockstep([cell.simulation for cell in self.cells])
        self.slo = SloPolicy()
        self.checkpoints_saved = 0
        self.resumed_from_tick: int | None = None
        #: The fleet run this shard belongs to, as :func:`_run_shard`
        #: records it; a checkpoint of the runner resumes only that run.
        self.run_key: tuple | None = None

    def start(self) -> None:
        self._baselines = [
            sum(cell.simulation.replica_counts(cell.application).values())
            for cell in self.cells
        ]
        self._extra: list[list[int]] = [[] for _ in self.cells]
        self._t = 0
        self.decisions: list[tuple] = []

    def tick(self, rates) -> None:
        """One fleet second: step all cells, decide once, scale each."""
        if not hasattr(self, "_t"):
            raise RuntimeError("Call start() before tick().")
        if len(rates) != len(self.cells):
            raise ValueError(
                f"Expected one rate per cell ({len(self.cells)}), "
                f"got {len(rates)}."
            )
        with obs.trace("orchestrator.tick"):
            with obs.trace("simulation.step"):
                self.lockstep.step(
                    [
                        {cell.application: float(rate)}
                        for cell, rate in zip(self.cells, rates)
                    ]
                )
            saturated = self.policy.saturated_services(
                self._t, self.lockstep.frame
            )
            with obs.trace("autoscaler.act"):
                by_namespace: dict[str, set] = {}
                for namespace, service in saturated:
                    by_namespace.setdefault(namespace, set()).add(service)
                empty: set = set()
                for index, cell in enumerate(self.cells):
                    cell_saturated = by_namespace.get(cell.namespace, empty)
                    cell.autoscaler.act(cell_saturated, self._t)
                    self._extra[index].append(cell.autoscaler.extra_replicas)
            self.decisions.append(tuple(sorted(saturated)))
            lifecycle = self.policy.lifecycle
            if lifecycle is not None:
                lifecycle.outcome(
                    self._t,
                    any(
                        violated_last_tick(
                            cell.simulation._kpis[cell.application], self.slo
                        )
                        for cell in self.cells
                    ),
                )
                lifecycle.step(self._t)
            self._t += 1

    def finish(self) -> FleetShardResult:
        if not hasattr(self, "_t"):
            raise RuntimeError("Call start() before finish().")
        cells = {
            cell.namespace: OrchestratorResult.from_kpis(
                self.policy.name,
                cell.simulation._kpis[cell.application],
                self._t,
                baseline,
                extra,
                cell.autoscaler.total_scale_outs,
                self.slo,
            )
            for cell, baseline, extra in zip(
                self.cells, self._baselines, self._extra
            )
        }
        return FleetShardResult(
            shard_index=self.shard_index,
            decisions=list(self.decisions),
            cells=cells,
            health=self.policy.health(),
            counters={
                "demotions": self.policy.demotions,
                "recoveries": self.policy.recoveries,
                "failsafe_entries": self.policy.failsafe_entries,
                "failsafe_ticks": self.policy.failsafe_ticks,
                "classifier_errors": self.policy.classifier_errors,
            },
            resumed_from_tick=self.resumed_from_tick,
        )


def _run_shard(item: dict, arrays: dict) -> FleetShardResult:
    """Worker entry point: run (or resume) one shard to the end.

    Picklable by name for :func:`parallel_map`.  A corrupt checkpoint
    starts the shard over; a sound one of another run (shard, cells,
    workload rows or tick count), or of another serving model, raises
    :class:`CheckpointError` naming the file.  ``die_at_tick`` is a
    test/bench knob: once at least one checkpoint exists, a *worker*
    process exits hard at that tick to exercise the crash-rescue path;
    the parent-side rescue (not ``in_worker``) resumes from the
    checkpoint and completes the shard.
    """
    workloads = arrays["fleet_workloads"]
    lo, hi = item["cell_rows"]
    ticks = int(item["ticks"])
    path = item.get("checkpoint_path")
    interval = int(item.get("checkpoint_interval") or 0)
    die_at = item.get("die_at_tick")
    run_key = (
        item["shard"],
        tuple(item["specs"]),
        hashlib.sha256(workloads[lo:hi].tobytes()).hexdigest(),
        ticks,
    )

    runner = None
    if path and os.path.exists(path):
        try:
            runner = load_checkpoint(path)
        except CheckpointError:
            pass  # a corrupt file: start the shard over
        else:
            if runner.run_key != run_key:
                raise CheckpointError(
                    f"{path} holds a checkpoint of another fleet run (its "
                    "shard, cells, workload rows or tick count differ); "
                    "remove it or use another checkpoint directory."
                )
            check_model_swap(path, item["model"])
            runner.resumed_from_tick = runner._t
    if runner is None:
        runner = FleetShardRunner(item["shard"], item["specs"], item["model"])
        runner.run_key = run_key
        runner.start()

    while runner._t < ticks:
        if (
            die_at is not None
            and runner._t >= int(die_at)
            and runner.checkpoints_saved > 0
            and in_worker()
        ):
            os._exit(23)
        runner.tick(workloads[lo:hi, runner._t])
        if path and interval and runner._t % interval == 0:
            runner.checkpoints_saved += 1
            save_checkpoint(runner, path)
    return runner.finish()


# ---------------------------------------------------------------------------
# Fleet orchestrator
# ---------------------------------------------------------------------------
@dataclass
class FleetResult:
    """Merged outcome of all shards, in shard order."""

    decisions: list  # per tick: sorted tuple of (namespace, deployment)
    cells: dict[str, OrchestratorResult]
    health: dict
    counters: dict[str, int]
    n_shards: int
    shard_results: list = field(repr=False, default_factory=list)

    @property
    def total_scale_outs(self) -> int:
        return sum(result.total_scale_outs for result in self.cells.values())


class FleetOrchestrator:
    """Shards the container axis of a fleet across pool workers."""

    def __init__(
        self,
        specs,
        model,
        *,
        n_shards: int | None = None,
        n_jobs: int | None = None,
        checkpoint_dir=None,
        checkpoint_interval: int = 25,
        die_at_tick: dict | None = None,
    ):
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("A fleet needs at least one cell spec.")
        namespaces = [spec.namespace for spec in self.specs]
        if len(set(namespaces)) != len(namespaces):
            raise ValueError("Cell namespaces must be unique.")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1.")
        self.model = model
        self.n_jobs = n_jobs
        jobs = resolve_n_jobs(n_jobs)
        self.n_shards = (
            n_shards if n_shards is not None
            else max(1, min(len(self.specs), jobs))
        )
        if not 1 <= self.n_shards <= len(self.specs):
            raise ValueError("n_shards must be in [1, n_cells].")
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        # Test/bench knob: {shard_index: tick} hard-exits that shard's
        # worker mid-run to exercise checkpointed crash rescue.
        self.die_at_tick = dict(die_at_tick or {})

    def run(self, workloads: np.ndarray) -> FleetResult:
        """Drive every cell through its workload row; merge shard order."""
        workloads = np.ascontiguousarray(workloads, dtype=np.float64)
        if workloads.ndim != 2 or workloads.shape[0] != len(self.specs):
            raise ValueError(
                "workloads must be a (n_cells, duration) matrix aligned "
                "with the cell specs."
            )
        if not (np.isfinite(workloads).all() and (workloads >= 0).all()):
            raise ValueError("workloads must be finite and non-negative.")
        ticks = workloads.shape[1]
        if self.checkpoint_dir is not None:
            os.makedirs(str(self.checkpoint_dir), exist_ok=True)
        bounds = np.linspace(0, len(self.specs), self.n_shards + 1).astype(int)
        items = []
        for shard in range(self.n_shards):
            lo, hi = int(bounds[shard]), int(bounds[shard + 1])
            path = None
            if self.checkpoint_dir is not None:
                path = str(
                    os.path.join(
                        str(self.checkpoint_dir), f"shard-{shard:03d}.ckpt"
                    )
                )
            items.append(
                {
                    "shard": shard,
                    "specs": self.specs[lo:hi],
                    "cell_rows": (lo, hi),
                    "ticks": ticks,
                    "model": self.model,
                    "checkpoint_path": path,
                    "checkpoint_interval": self.checkpoint_interval,
                    "die_at_tick": self.die_at_tick.get(shard),
                }
            )
        shard_results = parallel_map(
            _run_shard,
            items,
            n_jobs=self.n_jobs,
            shared={"fleet_workloads": workloads},
            chunk_size=1,
            on_crash="serial",
        )

        decisions = [
            tuple(
                sorted(
                    key
                    for result in shard_results
                    for key in result.decisions[t]
                )
            )
            for t in range(ticks)
        ]
        cells: dict[str, OrchestratorResult] = {}
        health: dict = {}
        counters = {
            "demotions": 0, "recoveries": 0, "failsafe_entries": 0,
            "failsafe_ticks": 0, "classifier_errors": 0,
        }
        for result in shard_results:
            cells.update(result.cells)
            health.update(result.health)
            for key in counters:
                counters[key] += result.counters[key]
        return FleetResult(
            decisions=decisions,
            cells=cells,
            health=health,
            counters=counters,
            n_shards=self.n_shards,
            shard_results=shard_results,
        )
