"""Containers: the unit of deployment, limitation and monitoring.

A container pairs a service instance with its cgroups and keeps its
recorded ticks in one growable float64 log, a row of ``N_COLUMNS``
values per simulated second in the ``F_*`` order below.  The first
``N_FIELDS`` columns are what the telemetry agent turns into the 88
container-level metrics (and into the container's share of its host's);
the rest are the simulator's ground truth, never exposed as platform
metrics.  The CPU quota, the memory limit and the CFS period count do
not change from tick to tick, so they stay on the cgroups.

Both stepping paths of :mod:`repro.cluster.simulation` write these
rows: :meth:`~repro.cluster.simulation.ClusterSimulation.step` one per
instance, and :class:`~repro.cluster.simulation.Lockstep` a whole
tick's as one matrix, its :class:`~repro.cluster.simulation.TickFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cgroup import CpuCgroup, MemoryCgroup
from repro.cluster.resources import Resource

__all__ = ["BOTTLENECKS", "Container", "N_COLUMNS", "N_FIELDS"]

# ----------------------------------------------------------------------
# Per-tick row layout (one row per container-tick)
# ----------------------------------------------------------------------
F_USED_CORES = 0
F_USAGE_BYTES = 1
F_PAGE_IN_BYTES = 2
F_LIMIT_UTIL = 3
F_NR_THROTTLED = 4
F_DISK_READ = 5
F_DISK_WRITE = 6
F_NET_RX = 7
F_NET_TX = 8
F_TCP = 9
F_PROCESSES = 10
F_THROUGHPUT = 11  # completed requests/s
# Shared-node contention accounting (interference channels):
F_CPU_STEAL = 12  # runnable cores lost to neighbours
F_MEMBW = 13  # DRAM traffic actually moved (bytes/s)
F_DISK_SHORTFALL = 14  # disk work queued behind the device
#: The columns telemetry reads.
N_FIELDS = 15
# Simulator ground truth:
F_DEMAND_CORES = 15
F_RESIDENT_BYTES = 16  # resident working set
F_RESPONSE_TIME = 17  # seconds
F_DROPPED = 18  # requests/s
F_MAX_UTILIZATION = 19
F_BOTTLENECK = 20  # index into BOTTLENECKS
N_COLUMNS = 21

#: The rate resources a tick's bottleneck can be, in the order the
#: ``F_BOTTLENECK`` column counts them (ties go to the earliest).
BOTTLENECKS = (
    Resource.CPU,
    Resource.DISK_BANDWIDTH,
    Resource.DISK_QUEUE,
    Resource.NETWORK,
    Resource.MEMORY_BANDWIDTH,
)

#: Rows a log grows by at least.
_GROWTH = 16


@dataclass
class Container:
    """A running service instance inside its cgroups.

    ``service`` and ``application`` are plain labels; the actual
    performance model lives in :mod:`repro.apps`, and the simulation
    appends one row per simulated second via :meth:`record`.
    """

    name: str
    service: str
    application: str
    cpu_cgroup: CpuCgroup = field(default_factory=CpuCgroup)
    memory_cgroup: MemoryCgroup = field(default_factory=MemoryCgroup)
    node: str | None = None
    created_at: int = 0  # simulation tick at which the container started
    _log: np.ndarray = field(
        default_factory=lambda: np.empty((_GROWTH, N_COLUMNS)),
        init=False, repr=False, compare=False,
    )
    _ticks: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def history(self) -> np.ndarray:
        """The recorded ticks, ``(ticks, N_COLUMNS)``: a view of the log."""
        return self._log[: self._ticks]

    def tick_at(self, t: int) -> np.ndarray | None:
        """The row of absolute simulation tick ``t`` (a view), or ``None``."""
        index = t - self.created_at
        if 0 <= index < self._ticks:
            return self._log[index]
        return None

    def record(self, row) -> None:
        """Append one tick's row of ``N_COLUMNS`` values."""
        ticks = self._ticks
        if ticks == len(self._log):
            self._log = np.concatenate(
                (self._log, np.empty((max(ticks, _GROWTH), N_COLUMNS)))
            )
        self._log[ticks] = row
        self._ticks = ticks + 1

    def __getstate__(self) -> dict:
        # Only the recorded rows: pickling the view copies just them.
        return {**self.__dict__, "_log": self.history}

    def __str__(self) -> str:
        return f"{self.application}/{self.service}/{self.name}"
