"""Fault injection for robustness experiments.

The paper argues monitorless must survive messy production conditions
(noisy workloads, hardware changes, interference).  This module
injects controlled faults into a running simulation:

- :class:`NodeSlowdown` -- a node temporarily loses part of its CPU
  capacity (thermal throttling, co-tenant VM, degraded host);
- :class:`DiskDegradation` -- disk bandwidth drops (RAID rebuild,
  failing device);
- :class:`FaultSchedule` -- applies a set of faults tick by tick while
  driving a workload through the simulation.

Telemetry-level faults live in :class:`MetricDropout`, which wraps a
:class:`~repro.telemetry.agent.TelemetryAgent` and makes a random
subset of metric readings go missing (held at the previous value, the
way real collectors behave on a missed scrape).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.cluster.simulation import ClusterSimulation, SimulationResult

__all__ = ["NodeSlowdown", "DiskDegradation", "FaultSchedule", "MetricDropout"]


@dataclass(frozen=True)
class NodeSlowdown:
    """Reduce a node's usable cores to ``factor`` during [start, end)."""

    node: str
    factor: float
    start: int
    end: int

    def __post_init__(self):
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1].")
        if self.end <= self.start:
            raise ValueError("end must exceed start.")

    def active(self, t: int) -> bool:
        return self.start <= t < self.end

    def apply(self, spec):
        degraded_cores = max(1, int(round(spec.cores * self.factor)))
        return replace(spec, cores=degraded_cores)


@dataclass(frozen=True)
class DiskDegradation:
    """Reduce a node's disk bandwidth to ``factor`` during [start, end)."""

    node: str
    factor: float
    start: int
    end: int

    def __post_init__(self):
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1].")
        if self.end <= self.start:
            raise ValueError("end must exceed start.")

    def active(self, t: int) -> bool:
        return self.start <= t < self.end

    def apply(self, spec):
        return replace(spec, disk_bandwidth=spec.disk_bandwidth * self.factor)


class FaultSchedule:
    """Drive a simulation while applying scheduled faults.

    Node specs are swapped in and out around each tick, so the engine's
    fair-sharing sees the degraded capacities exactly during the fault
    windows.

    Overlapping faults targeting the same node compose in a defined
    order -- sorted by ``(fault.start, type name)``, ties broken by the
    original list position -- not in whatever order the caller happened
    to list them.  ``NodeSlowdown`` rounds cores to an integer, so for
    overlapping windows the composition order is observable; sorting
    makes ``FaultSchedule([a, b])`` and ``FaultSchedule([b, a])``
    bitwise-identical runs.

    Besides the one-shot :meth:`run`, the schedule exposes the
    per-tick primitives (:meth:`pristine_specs`, :meth:`apply_tick`,
    :meth:`restore`) so external drivers -- the chaos harness, an
    :class:`~repro.orchestrator.loop.Orchestrator` loop -- can
    interleave fault application with their own stepping.
    """

    def __init__(self, faults: list):
        self.faults = list(faults)
        known_nodes = {fault.node for fault in self.faults}
        indexed = list(enumerate(self.faults))
        self._by_node = {
            node: [
                fault
                for _, fault in sorted(
                    (
                        (position, fault)
                        for position, fault in indexed
                        if fault.node == node
                    ),
                    key=lambda pair: (
                        pair[1].start,
                        type(pair[1]).__name__,
                        pair[0],
                    ),
                )
            ]
            for node in known_nodes
        }

    def pristine_specs(self, simulation: ClusterSimulation) -> dict:
        """Snapshot the undegraded node specs; validates fault targets."""
        pristine = {
            name: node.spec for name, node in simulation.nodes.items()
        }
        missing = set(self._by_node) - set(pristine)
        if missing:
            raise ValueError(f"Faults target unknown nodes: {sorted(missing)}.")
        return pristine

    def apply_tick(
        self, simulation: ClusterSimulation, pristine: dict, t: int
    ) -> None:
        """Install the composed degraded specs for tick ``t``."""
        for node_name, faults in self._by_node.items():
            spec = pristine[node_name]
            for fault in faults:
                if fault.active(t):
                    spec = fault.apply(spec)
                    obs.inc("faults.active_fault_ticks")
            simulation.nodes[node_name].spec = spec

    @staticmethod
    def restore(simulation: ClusterSimulation, pristine: dict) -> None:
        """Reinstall the pristine specs captured by :meth:`pristine_specs`."""
        for node_name, spec in pristine.items():
            simulation.nodes[node_name].spec = spec

    def run(
        self, simulation: ClusterSimulation, workloads: dict[str, np.ndarray]
    ) -> SimulationResult:
        """Run all ticks of ``workloads`` under the fault schedule."""
        lengths = {len(series) for series in workloads.values()}
        if len(lengths) != 1:
            raise ValueError("All workload series must have equal length.")
        duration = lengths.pop()
        pristine = self.pristine_specs(simulation)

        # The tick loop swaps degraded specs in before every step, so a
        # step that raises mid-run (bad arrival value, engine assertion)
        # would otherwise leave the simulation permanently degraded;
        # restore pristine capacity whichever way the loop exits.
        obs.inc("faults.runs")
        try:
            with obs.trace("faults.run"):
                for t in range(duration):
                    self.apply_tick(simulation, pristine, t)
                    simulation.step(
                        {app: float(series[t]) for app, series in workloads.items()}
                    )
        finally:
            self.restore(simulation, pristine)
        return simulation.result()


def _dropout_seed(seed: int, stream: str) -> int:
    """Stable 64-bit RNG seed for one (dropout seed, stream) pair.

    Python's builtin ``hash()`` is salted by ``PYTHONHASHSEED`` and so
    differs between processes -- which silently made dropout masks
    differ across runs and across ``n_jobs`` workers.  A keyed blake2b
    digest is identical everywhere.
    """
    digest = hashlib.blake2b(
        f"{seed}:{stream}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class MetricDropout:
    """Telemetry agent wrapper: a fraction of readings go missing.

    Missing readings repeat the previous observed value (sample-and-
    hold), matching how scrape-based collectors surface gaps.  The
    dropout pattern is deterministic given the seed: masks are derived
    via a stable content hash (never Python's salted ``hash()``), so
    two processes with different ``PYTHONHASHSEED`` values -- including
    ``parallel_map`` workers -- produce bitwise-identical matrices.
    """

    def __init__(self, agent, probability: float, seed: int = 0):
        """``agent`` is a :class:`repro.telemetry.agent.TelemetryAgent`
        (kept duck-typed to avoid a cluster->telemetry import cycle).

        ``probability=1.0`` is permitted and means every reading after
        the first is lost -- the degenerate total-blackout case the
        resilience layer must survive.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1].")
        self.agent = agent
        self.probability = probability
        self.seed = seed
        self.catalog = agent.catalog  # quacks like a TelemetryAgent

    def _apply_dropout(self, matrix: np.ndarray, stream: str) -> np.ndarray:
        if self.probability == 0.0:
            return matrix
        rng = np.random.default_rng(_dropout_seed(self.seed, stream))
        dropped = rng.random(matrix.shape) < self.probability
        dropped[0] = False  # the first sample always exists
        if obs.enabled():
            obs.inc("faults.dropout_matrices")
            obs.inc("faults.readings_dropped", float(dropped.sum()))
        result = matrix.copy()
        for t in range(1, result.shape[0]):
            row_dropped = dropped[t]
            result[t, row_dropped] = result[t - 1, row_dropped]
        return result

    def instance_matrix(self, container, nodes, start=None, end=None):
        matrix = self.agent.instance_matrix(container, nodes, start, end)
        return self._apply_dropout(matrix, container.name)

    def utilization_series(self, container, nodes):
        cpu, mem = self.agent.utilization_series(container, nodes)
        stacked = self._apply_dropout(
            np.column_stack([cpu, mem]), f"util:{container.name}"
        )
        return stacked[:, 0], stacked[:, 1]

    def host_state(self, node, start, end):
        return self.agent.host_state(node, start, end)

    def container_state(self, container, node, start, end):
        return self.agent.container_state(container, node, start, end)
