"""Fleet-wide saturation policy: one ``predict_proba`` per tick.

:class:`FleetPolicy` is the serving path for Monitorless.
Every registered cell's containers occupy rows of one telemetry matrix
and one feature matrix; each tick the policy

1. syncs membership (scale-out/scale-in -> row insertion/retirement),
2. advances telemetry in rounds (see
   :class:`~repro.fleet.telemetry.FleetTelemetryStream`) and pushes
   each round through the batched pipeline,
3. classifies the *whole fleet* with a single ``predict_proba`` call
   on the feature matrix -- per-row results are independent of batch
   composition,
4. runs the healthy/degraded/failsafe/recovering fallback state
   machine as vectorized int8 state + streak arrays.

The return value is the set of saturated ``(namespace, deployment)``
rollup keys; a deployment is saturated when any replica row flags.

The per-container policies are one-cell views over this class:
``MonitorlessPolicy`` registers its one cell on the first tick, and
``FallbackPolicy`` attaches a threshold secondary to it.  The
per-container streaming chain they used to run is kept as the slow
reference in ``tests/serving_reference.py``.

Rows are judged in *membership order* -- cells in registration order,
each cell's pods in ``deployment.instances`` order -- which is the
order a lifecycle manager observes them in.  Row indices alone would
not do: a new replica takes the smallest free row, so after a scale-out
the matrix order differs from the deployment's, and both the drift
window and the retrain stream depend on the order rows arrive in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.fleet.features import FleetPipelineStream
from repro.fleet.membership import FleetIndex, FleetMember
from repro.fleet.telemetry import FleetTelemetryStream
from repro.reliability.checkpoint import model_fingerprint
from repro.reliability.fallback import DEGRADED, FAILSAFE, HEALTHY, RECOVERING

__all__ = ["FleetPolicy"]

# int8 encoding of the FallbackPolicy health states.
_HEALTHY, _DEGRADED, _FAILSAFE, _RECOVERING = 0, 1, 2, 3
_STATE_NAMES = {
    _HEALTHY: HEALTHY,
    _DEGRADED: DEGRADED,
    _FAILSAFE: FAILSAFE,
    _RECOVERING: RECOVERING,
}


@dataclass
class _Cell:
    """One application cell (namespace) registered with the policy."""

    namespace: str
    simulation: object
    application: str
    agent: object
    secondary: object | None = None
    pods: set[str] = field(default_factory=set)
    #: The cell's rows in ``deployment.instances`` order.
    order: list[int] = field(default_factory=list)
    #: ``simulation.membership_version`` at the last reconciliation;
    #: lets :meth:`FleetPolicy._sync_cell` skip untouched cells.
    synced_version: int = -1


class FleetPolicy:
    """Saturation verdicts for many cells from one matrix walk."""

    name = "fleet"

    def __init__(
        self,
        model,
        *,
        catalog=None,
        capacity: int = 64,
        staleness_budget: int | None = None,
        failsafe: str = "hold",
        recovery_ticks: int = 3,
        lifecycle=None,
    ):
        self.configure_fallback(
            staleness_budget=staleness_budget,
            failsafe=failsafe,
            recovery_ticks=recovery_ticks,
        )
        self._model = model
        #: Optional :class:`~repro.lifecycle.manager.LifecycleManager`;
        #: when attached the fleet follows its champion and reports
        #: every classified batch (the challenger shadow-scores the
        #: identical feature rows but never flips a verdict).
        self.lifecycle = lifecycle
        self.index = FleetIndex()
        self._cells: dict[str, _Cell] = {}
        # Live rows in membership order; None until sync() rebuilds it
        # after a cell's membership changed.
        self._order: np.ndarray | None = None
        if catalog is None:
            from repro.telemetry.catalog import default_catalog

            catalog = default_catalog()
        self.features = FleetPipelineStream(
            model.pipeline_, catalog.feature_meta(), capacity=capacity
        )
        # The model setter keeps the pipeline, so the columns its plan
        # reads are the only ones telemetry ever has to deliver.
        self.telemetry = FleetTelemetryStream(
            catalog, self.features.raw_columns, capacity=capacity
        )
        self._capacity = self.features.capacity
        self._state = np.full(self._capacity, _HEALTHY, dtype=np.int8)
        self._streak = np.zeros(self._capacity, dtype=np.int32)
        # Rows with at least one recorded outcome: health() lists only
        # containers that were ever judged.
        self._judged = np.zeros(self._capacity, dtype=bool)
        self.demotions = 0
        self.recoveries = 0
        self.failsafe_entries = 0
        self.failsafe_ticks = 0
        self.classifier_errors = 0
        self.last_classifier_error: str | None = None

    def configure_fallback(self, *, staleness_budget: int | None,
                           failsafe: str, recovery_ticks: int) -> None:
        """Validate and set the fallback state machine's settings (see
        :class:`~repro.reliability.fallback.FallbackPolicy`)."""
        if failsafe not in ("hold", "scale-up"):
            raise ValueError('failsafe must be "hold" or "scale-up".')
        if recovery_ticks < 1:
            raise ValueError("recovery_ticks must be >= 1.")
        if staleness_budget is not None and staleness_budget < 0:
            raise ValueError("staleness_budget must be >= 0.")
        self.staleness_budget = staleness_budget
        self.failsafe = failsafe
        self.recovery_ticks = recovery_ticks

    @property
    def model(self):
        """The serving model.

        A new model may replace it between ticks only if it keeps the
        fleet's feature pipeline -- the same object (a lifecycle
        promotion, see ``refit_classifier``) or a value-equal copy (the
        serving model reloaded from disk) -- because the per-row feature
        state was built by that pipeline.  Anything else raises
        :class:`ValueError` before a tick is served.
        """
        return self._model

    @model.setter
    def model(self, model) -> None:
        pipeline = self.features.pipeline
        if model.pipeline_ is not pipeline and model_fingerprint(
            model.pipeline_
        ) != model_fingerprint(pipeline):
            raise ValueError(
                "The new serving model's feature pipeline differs from "
                "the one the fleet's feature rows were built with; serve "
                "it from a new policy."
            )
        self._model = model

    # ------------------------------------------------------------------
    # Cells and membership
    # ------------------------------------------------------------------
    def add_cell(self, namespace: str, simulation, application: str,
                 agent, secondary=None) -> None:
        """Register one application cell under ``namespace``."""
        if namespace in self._cells:
            raise ValueError(f"Cell {namespace!r} is already registered.")
        self._cells[namespace] = _Cell(
            namespace, simulation, application, agent, secondary
        )
        self._sync_cell(self._cells[namespace])

    def sync(self) -> None:
        """Reconcile matrix rows with every cell's live replica set."""
        for cell in self._cells.values():
            self._sync_cell(cell)
        if self._order is None:
            self._order = np.asarray(
                [row for cell in self._cells.values() for row in cell.order],
                dtype=np.intp,
            )

    def _sync_cell(self, cell: _Cell) -> None:
        version = getattr(cell.simulation, "membership_version", None)
        if version is not None and version == cell.synced_version:
            return
        deployment = cell.simulation.deployments[cell.application]
        live = {
            instance.container.name
            for replicas in deployment.instances.values()
            for instance in replicas
        }
        if live == cell.pods:
            return  # membership unchanged: skip the sweep entirely
        for service, replicas in deployment.instances.items():
            for instance in replicas:
                container = instance.container
                if container.name in cell.pods:
                    continue
                row = self.index.add(
                    FleetMember(
                        namespace=cell.namespace,
                        pod=container.name,
                        container=service,
                        deployment=service,
                    )
                )
                if row >= self._capacity:
                    self._grow(max(2 * self._capacity, row + 1))
                self.telemetry.add_row(
                    row, cell.namespace, cell.agent, container,
                    cell.simulation.nodes,
                )
                self.features.reset_rows([row])
                self._state[row] = _HEALTHY
                self._streak[row] = 0
                self._judged[row] = False
        for pod in cell.pods - live:
            row = self.index.retire(cell.namespace, pod)
            self.telemetry.retire_row(row)
            self.features.reset_rows([row])
            self._state[row] = _HEALTHY
            self._streak[row] = 0
            self._judged[row] = False
        cell.pods = live
        row_of = self.index.row_of
        cell.order = [
            row_of(cell.namespace, instance.container.name)
            for replicas in deployment.instances.values()
            for instance in replicas
        ]
        self._order = None
        if version is not None:
            cell.synced_version = version

    def _grow(self, capacity: int) -> None:
        self.telemetry.grow(capacity)
        self.features.grow(capacity)
        for name, fill in (("_state", _HEALTHY), ("_streak", 0),
                           ("_judged", False)):
            old = getattr(self, name)
            fresh = np.full(capacity, fill, dtype=old.dtype)
            fresh[: self._capacity] = old
            setattr(self, name, fresh)
        self._capacity = capacity

    # ------------------------------------------------------------------
    # The fallback health state machine, vectorized over rows
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int) -> None:
        """Add to one transition counter and its ``fallback.*`` twin."""
        if amount:
            setattr(self, name, getattr(self, name) + amount)
            obs.inc(f"fallback.{name}", float(amount))

    def _record_primary(self, rows: np.ndarray) -> None:
        if rows.size == 0:
            return
        state = self._state[rows]
        unhealthy = state != _HEALTHY
        if unhealthy.any():
            sub = rows[unhealthy]
            streak = np.where(
                self._state[sub] == _RECOVERING, self._streak[sub] + 1, 1
            )
            recovered = streak >= self.recovery_ticks
            self._count("recoveries", int(recovered.sum()))
            self._state[sub] = np.where(recovered, _HEALTHY, _RECOVERING)
            self._streak[sub] = np.where(recovered, 0, streak)
        self._judged[rows] = True

    def _record_secondary(self, rows: np.ndarray) -> None:
        if rows.size == 0:
            return
        state = self._state[rows]
        self._count(
            "demotions", int(((state == _HEALTHY) | (state == _RECOVERING)).sum())
        )
        self._state[rows] = _DEGRADED
        self._streak[rows] = 0
        self._judged[rows] = True

    def _record_failsafe(self, rows: np.ndarray) -> None:
        if rows.size == 0:
            return
        self._count("failsafe_entries", int((self._state[rows] != _FAILSAFE).sum()))
        self._count("failsafe_ticks", int(rows.size))
        self._state[rows] = _FAILSAFE
        self._streak[rows] = 0
        self._judged[rows] = True

    # ------------------------------------------------------------------
    # The per-tick verdict
    # ------------------------------------------------------------------
    def saturated_services(self, t: int) -> set[tuple[str, str]]:
        """Saturated ``(namespace, deployment)`` keys at tick ``t``."""
        with obs.trace("policy.fleet"):
            if (
                self.lifecycle is not None
                and self.lifecycle.champion is not self.model
            ):
                # A promotion happened since the last tick; the pipeline
                # is frozen within a lineage, so the fleet feature
                # matrix stays valid.
                self.model = self.lifecycle.champion
            self.sync()
            telemetry = self.telemetry
            telemetry.begin_tick()
            while True:
                emitted = telemetry.advance_round()
                if emitted.size == 0:
                    break
                # ``emitted`` is sorted; when it is also dense (the
                # steady state: every live row emits each round) a slice
                # view of the fleet matrix replaces the fancy-index copy.
                lo, hi = int(emitted[0]), int(emitted[-1]) + 1
                if hi - lo == emitted.size:
                    raw_block = telemetry.raw[lo:hi]
                else:
                    raw_block = telemetry.raw[emitted]
                self.features.push_rows(emitted, raw_block)

            # The fallback checks as row masks, in membership order:
            # rows without samples are skipped, faulted rows demoted,
            # rows with features go to the primary unless they are stale.
            live = self._order
            sampled = telemetry.sampled_mask[live]
            faulted = telemetry.faulted_mask[live]
            usable = self.features.has_features[live] & ~faulted
            stale = np.zeros_like(usable)
            if self.staleness_budget is not None:
                stale = usable & (
                    telemetry.staleness[live] > self.staleness_budget
                )
            demoted = live[sampled & (faulted | stale)].tolist()
            primary_rows = live[sampled & usable & ~stale]
            saturated: set[tuple[str, str]] = set()
            flags = None
            if primary_rows.size:
                try:
                    flags = self._classify(primary_rows)
                except Exception as error:
                    # The classifier itself failed: every primary
                    # candidate falls through to the secondary.
                    self.classifier_errors += 1
                    self.last_classifier_error = type(error).__name__
                    obs.inc("fallback.classifier_errors")
                    obs.inc(
                        "fallback.classifier_error"
                        f"{{type={type(error).__name__}}}"
                    )
                    demoted.extend(int(row) for row in primary_rows)
                else:
                    self._record_primary(primary_rows)
                if flags is not None and self.lifecycle is not None:
                    self.lifecycle.observe(
                        t,
                        self.features.features[primary_rows],
                        flags,
                        telemetry.completeness[primary_rows],
                    )
            if flags is not None:
                member_at = self.index.member_at
                for row, flag in zip(primary_rows, flags):
                    if flag:
                        saturated.add(member_at(int(row)).rollup_key)

            secondary_rows: list[int] = []
            failsafe_rows: list[int] = []
            for row in demoted:
                member = self.index.member_at(row)
                cell = self._cells[member.namespace]
                container = telemetry.container_at(row)
                if cell.secondary is None:
                    failsafe_rows.append(row)
                    if self.failsafe == "scale-up":
                        saturated.add(member.rollup_key)
                    continue
                try:
                    verdict = cell.secondary.instance_saturated(
                        container, cell.simulation
                    )
                except Exception:
                    failsafe_rows.append(row)
                    if self.failsafe == "scale-up":
                        saturated.add(member.rollup_key)
                else:
                    secondary_rows.append(row)
                    if verdict:
                        saturated.add(member.rollup_key)
            self._record_secondary(np.asarray(secondary_rows, dtype=np.intp))
            self._record_failsafe(np.asarray(failsafe_rows, dtype=np.intp))
            self._export_gauges()
        return saturated

    def _classify(self, rows: np.ndarray) -> np.ndarray:
        """Per-row saturation flags from one fleet-matrix prediction."""
        with obs.trace("policy.classify"):
            flags = self.model.flags(self.features.features[rows])
        if obs.enabled():
            obs.inc("policy.classified_instances", float(rows.size))
            obs.inc("policy.saturation_verdicts", float(flags.sum()))
        return flags

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``(namespace, pod)`` -> health-state name of every live pod
        with at least one recorded outcome."""
        result: dict = {}
        for row in self.index.live_rows():
            if self._judged[row]:
                member = self.index.member_at(row)
                result[(member.namespace, member.pod)] = _STATE_NAMES[
                    int(self._state[row])
                ]
        return result

    def _export_gauges(self) -> None:
        if not obs.enabled():
            return
        counts = dict.fromkeys(_STATE_NAMES.values(), 0)
        for row in self.index.live_rows():
            if self._judged[row]:
                counts[_STATE_NAMES[int(self._state[row])]] += 1
        for state, count in counts.items():
            obs.set_gauge(f"fallback.containers_{state}", float(count))
