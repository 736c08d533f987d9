"""Simulated physical nodes and the testbed machine specifications.

``MACHINES`` reproduces the paper's hardware inventory:

- ``training``: HP ProLiant DL380 Gen9, 48-core Xeon E5-2680 v3,
  125 GiB RAM, 10 Gb network (section 3.2.2);
- ``M1``/``M2``/``M3``: the DL360 Gen9 evaluation trio (10/12/8 cores,
  32 GiB, 1 Gb LAN, mixed Debian/Ubuntu -- section 4.2.1).

A node's shared resources are split among its containers with
proportional fair sharing: when the sum of demands exceeds capacity,
every container receives capacity scaled by its demand share (CFS-like
behaviour without per-task detail).  The simulation engine does the
arbitration, one node at a time, in
:func:`repro.cluster.simulation._arbitrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.container import Container
from repro.cluster.resources import GBIT, GIB

__all__ = [
    "NodeSpec",
    "Node",
    "MACHINES",
    "NEGATIVE_DEMAND_TOLERANCE",
]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one physical machine."""

    name: str
    cores: int
    memory_bytes: float
    disk_bandwidth: float  # bytes/s, sequential
    network_bandwidth: float  # bytes/s
    memory_bandwidth: float = 10e9  # bytes/s, DRAM traffic budget
    os: str = "centos-7.3"
    cpu_model: str = "Xeon E5-2680 v3"

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("A node needs at least one core.")
        if min(self.memory_bytes, self.disk_bandwidth, self.network_bandwidth) <= 0:
            raise ValueError("Node capacities must be positive.")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive.")

    @property
    def disk_random_bandwidth(self) -> float:
        """Random-access disk throughput (page-in / seek-bound traffic)."""
        return 0.3 * self.disk_bandwidth


MACHINES: dict[str, NodeSpec] = {
    # Training testbed (section 3.2.2).
    "training": NodeSpec(
        name="training",
        cores=48,
        memory_bytes=125 * GIB,
        disk_bandwidth=500e6,  # SATA SSD class
        network_bandwidth=10 * GBIT,
        os="centos-7.3",
        cpu_model="Xeon E5-2680 v3 @2.50GHz",
    ),
    # Evaluation trio (section 4.2.1), 1 Gb LAN.
    "M1": NodeSpec(
        name="M1",
        cores=10,
        memory_bytes=32 * GIB,
        disk_bandwidth=400e6,
        network_bandwidth=1 * GBIT,
        os="debian-9",
        cpu_model="Xeon E5-2650 v3 @2.30GHz",
    ),
    "M2": NodeSpec(
        name="M2",
        cores=12,
        memory_bytes=32 * GIB,
        disk_bandwidth=400e6,
        network_bandwidth=1 * GBIT,
        os="debian-9",
        cpu_model="Xeon E5-2650 v4 @2.20GHz",
    ),
    "M3": NodeSpec(
        name="M3",
        cores=8,
        memory_bytes=32 * GIB,
        disk_bandwidth=400e6,
        network_bandwidth=1 * GBIT,
        os="ubuntu-16.04",
        cpu_model="Xeon E5-2640 v3 @2.60GHz",
    ),
}


#: Demands above this magnitude below zero are treated as genuine
#: modelling errors; anything in ``(-NEGATIVE_DEMAND_TOLERANCE, 0)``
#: is float-rounding debris from the work-conserving arithmetic
#: (demand sums and ratio rescaling accumulate ~1 ulp per member) and
#: is clamped to exactly 0.0 instead of aborting the run.
NEGATIVE_DEMAND_TOLERANCE = 1e-6


@dataclass
class Node:
    """A physical machine hosting containers."""

    spec: NodeSpec
    containers: list[Container] = field(default_factory=list)

    def add_container(self, container: Container) -> None:
        if container.node is not None:
            raise ValueError(
                f"Container {container.name} is already placed on {container.node}."
            )
        container.node = self.spec.name
        self.containers.append(container)

    def remove_container(self, container: Container) -> None:
        self.containers.remove(container)
        container.node = None

    @property
    def name(self) -> str:
        return self.spec.name
