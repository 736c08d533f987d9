"""Containers: the unit of deployment, limitation and monitoring.

A container pairs a service instance with its cgroups and carries the
per-tick accounting snapshots the telemetry agent turns into the 88
container-level metrics.

Telemetry reads a recorded tick as one row of ``N_FIELDS`` floats in
the ``F_*`` order below: :meth:`ContainerTick.fields` gives a record's
row, and :class:`~repro.cluster.simulation.Lockstep` writes the same
rows for a whole tick into its
:class:`~repro.cluster.simulation.TickFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cgroup import CpuAccounting, CpuCgroup, MemoryAccounting, MemoryCgroup

__all__ = ["Container", "ContainerTick", "N_FIELDS", "ZERO_FIELDS"]

# ----------------------------------------------------------------------
# Raw per-tick field layout (one row per container-tick)
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
F_THROUGHPUT = 11
F_CPU_STEAL = 12
F_MEMBW = 13
F_DISK_SHORTFALL = 14
N_FIELDS = 15

#: The fields of a tick a container did not record.
ZERO_FIELDS: tuple = (0.0,) * N_FIELDS


@dataclass(slots=True)
class ContainerTick:
    """Everything observable about one container in one 1-second tick."""

    cpu: CpuAccounting
    memory: MemoryAccounting
    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    network_rx_bytes: float = 0.0
    network_tx_bytes: float = 0.0
    tcp_connections: float = 0.0
    processes: float = 1.0
    throughput: float = 0.0  # completed requests/s
    response_time: float = 0.0  # seconds
    dropped: float = 0.0  # requests/s
    # Shared-node contention accounting (interference channels):
    cpu_steal_cores: float = 0.0  # runnable cores lost to neighbours
    membw_bytes: float = 0.0  # DRAM traffic actually moved (bytes/s)
    disk_shortfall_bytes: float = 0.0  # disk work queued behind the device
    # Simulator ground truth (never exposed as platform metrics):
    bottleneck: str = ""  # resource with the highest utilization
    max_utilization: float = 0.0

    def fields(self) -> tuple:
        """This tick's raw fields, in the ``F_*`` order."""
        cpu = self.cpu
        memory = self.memory
        return (
            cpu.used_cores,
            memory.usage_bytes,
            memory.page_in_bytes,
            memory.limit_utilization,
            cpu.nr_throttled,
            self.disk_read_bytes,
            self.disk_write_bytes,
            self.network_rx_bytes,
            self.network_tx_bytes,
            self.tcp_connections,
            self.processes,
            self.throughput,
            self.cpu_steal_cores,
            self.membw_bytes,
            self.disk_shortfall_bytes,
        )


@dataclass
class Container:
    """A running service instance inside its cgroups.

    ``service`` and ``application`` are plain labels; the actual
    performance model lives in :mod:`repro.apps` and writes one
    :class:`ContainerTick` per simulated second via :meth:`record`.
    """

    name: str
    service: str
    application: str
    cpu_cgroup: CpuCgroup = field(default_factory=CpuCgroup)
    memory_cgroup: MemoryCgroup = field(default_factory=MemoryCgroup)
    node: str | None = None
    created_at: int = 0  # simulation tick at which the container started
    history: list[ContainerTick] = field(default_factory=list)

    def tick_at(self, t: int) -> ContainerTick | None:
        """The accounting snapshot for absolute simulation tick ``t``."""
        index = t - self.created_at
        if 0 <= index < len(self.history):
            return self.history[index]
        return None

    def record(self, tick: ContainerTick) -> None:
        """Append one tick of accounting."""
        self.history.append(tick)

    def last(self) -> ContainerTick:
        if not self.history:
            raise RuntimeError(f"Container {self.name} has no recorded ticks.")
        return self.history[-1]

    def __str__(self) -> str:
        return f"{self.application}/{self.service}/{self.name}"
