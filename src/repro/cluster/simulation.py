"""Discrete-time cluster simulation engine.

Ties together nodes, containers/cgroups, application models and
workload series.  One tick is one second (the PCP sampling interval).
Per tick the engine:

1. splits each application's arrival rate over its service replicas;
2. computes raw per-instance resource demands (including queued work);
3. accounts container memory (page-in traffic from evicted working
   sets);
4. arbitrates shared node resources with proportional fair sharing,
   respecting cgroup CPU quotas;
5. resolves throughput / response time / drops per instance and
   appends a row to its container's log (the ``F_*`` layout of
   :mod:`repro.cluster.container`);
6. composes application KPIs.

The engine is deliberately *stepwise*: :meth:`ClusterSimulation.step`
advances one tick, so a closed-loop orchestrator can scale deployments
between ticks (section 4.2's autoscaling experiment).

Two paths advance a tick.  :meth:`ClusterSimulation.step` walks one
simulation's instances in Python; it steps the corpus build, the
calibration runs and the per-container orchestrator, and it is the
reference.  It arbitrates every node through one routine,
:func:`_arbitrate`, whose sums follow one rule: a node of fewer than
``_PAIRWISE_MEMBERS`` members adds left to right from 0.0, a larger
one goes through numpy's pairwise ``np.add.reduce``.
:class:`Lockstep` advances a fixed list of simulations (a fleet
shard's cells) by one tick each in one vectorized pass over all their
instances, sums its node groups by the same rule, and leaves every
simulation bitwise in the state ``step`` would leave.  Its fixed cost
per call is several times that of one scalar step, so it pays only
across many cells.  Each :meth:`Lockstep.step` writes the tick as one
row matrix, a :class:`TickFrame`, appends its rows to the containers'
logs and publishes it, and fleet telemetry reads the frame instead of
the logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import count
from operator import is_not

import numpy as np

from repro.apps.base import ApplicationModel, InstanceRuntime
from repro.cluster.cgroup import CFS_PERIODS_PER_SECOND, CpuCgroup, MemoryCgroup
from repro.cluster.container import (
    BOTTLENECKS,
    F_BOTTLENECK,
    F_CPU_STEAL,
    F_DEMAND_CORES,
    F_DISK_READ,
    F_DISK_SHORTFALL,
    F_DISK_WRITE,
    F_DROPPED,
    F_LIMIT_UTIL,
    F_MAX_UTILIZATION,
    F_MEMBW,
    F_NET_RX,
    F_NET_TX,
    F_NR_THROTTLED,
    F_PAGE_IN_BYTES,
    F_PROCESSES,
    F_RESIDENT_BYTES,
    F_RESPONSE_TIME,
    F_TCP,
    F_THROUGHPUT,
    F_USAGE_BYTES,
    F_USED_CORES,
    N_COLUMNS,
    Container,
)
from repro.cluster.node import NEGATIVE_DEMAND_TOLERANCE, Node, NodeSpec

__all__ = [
    "Placement",
    "Deployment",
    "ClusterSimulation",
    "SimulationResult",
    "Lockstep",
    "TickFrame",
]


@dataclass(frozen=True)
class Placement:
    """Where one replica of a service runs and with which limits."""

    node: str
    cpu_limit: float | None = None
    memory_limit: float | None = None


@dataclass
class _Instance:
    """Engine-internal pairing of a container with its runtime."""

    container: Container
    runtime: InstanceRuntime
    application: str
    service: str


@dataclass
class Deployment:
    """One application's replicas, grouped by service."""

    application: ApplicationModel
    instances: dict[str, list[_Instance]] = field(default_factory=dict)

    def replicas(self, service: str) -> int:
        return len(self.instances.get(service, []))


@dataclass
class SimulationResult:
    """Everything a run produced, ready for telemetry and labeling."""

    duration: int
    applications: dict[str, dict[str, np.ndarray]]
    # app -> {"offered", "throughput", "response_time", "dropped"}
    containers: list[Container]
    nodes: dict[str, Node]

    def kpi(self, application: str, name: str) -> np.ndarray:
        return self.applications[application][name]


class ClusterSimulation:
    """A set of nodes plus deployed applications, advanced tick by tick."""

    def __init__(self, nodes: dict[str, NodeSpec] | list[NodeSpec], seed: int = 0):
        if isinstance(nodes, list):
            nodes = {spec.name: spec for spec in nodes}
        if not nodes:
            raise ValueError("At least one node is required.")
        # The mapping key is the authoritative node name (a machine spec
        # like MACHINES["training"] can back a node of any name).
        self.nodes: dict[str, Node] = {
            name: Node(
                spec=spec if spec.name == name else replace(spec, name=name)
            )
            for name, spec in nodes.items()
        }
        self.deployments: dict[str, Deployment] = {}
        self.rng = np.random.default_rng(seed)
        self.clock = 0
        self._kpis: dict[str, dict[str, list[float]]] = {}
        self._container_seq = 0
        #: Bumped on every replica add/remove; lets observers skip
        #: membership reconciliation when nothing changed.
        self.membership_version = 0

    # ------------------------------------------------------------------
    # Deployment management
    # ------------------------------------------------------------------
    def deploy(
        self,
        application: ApplicationModel,
        placements: dict[str, list[Placement]],
    ) -> Deployment:
        """Place one replica per :class:`Placement` for each service."""
        if application.name in self.deployments:
            raise ValueError(f"Application {application.name} already deployed.")
        missing = set(application.services) - set(placements)
        if missing:
            raise ValueError(f"No placement for services: {sorted(missing)}.")
        deployment = Deployment(application=application)
        self.deployments[application.name] = deployment
        self._kpis[application.name] = {
            "offered": [],
            "throughput": [],
            "response_time": [],
            "dropped": [],
        }
        for service, service_placements in placements.items():
            if not service_placements:
                raise ValueError(f"Service {service} needs at least one replica.")
            for placement in service_placements:
                self.add_replica(application.name, service, placement)
        return deployment

    def add_replica(
        self, application: str, service: str, placement: Placement
    ) -> Container:
        """Start one more replica of ``service`` (usable mid-run)."""
        deployment = self.deployments[application]
        spec = deployment.application.services[service]
        node = self.nodes[placement.node]
        self._container_seq += 1
        container = Container(
            name=f"{application}.{service}.{self._container_seq}",
            service=service,
            application=application,
            cpu_cgroup=CpuCgroup(placement.cpu_limit),
            memory_cgroup=MemoryCgroup(placement.memory_limit),
            created_at=self.clock,
        )
        node.add_container(container)
        instance = _Instance(
            container=container,
            runtime=InstanceRuntime(spec),
            application=application,
            service=service,
        )
        deployment.instances.setdefault(service, []).append(instance)
        self.membership_version += 1
        return container

    def remove_replica(self, application: str, service: str) -> None:
        """Stop the most recently added replica (keeps at least one)."""
        deployment = self.deployments[application]
        replicas = deployment.instances.get(service, [])
        if len(replicas) <= 1:
            raise ValueError(f"Service {service} must keep at least one replica.")
        instance = replicas.pop()
        self.nodes[instance.container.node].remove_container(instance.container)
        self.membership_version += 1

    def replica_counts(self, application: str) -> dict[str, int]:
        deployment = self.deployments[application]
        return {service: len(replicas) for service, replicas in deployment.instances.items()}

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, arrivals: dict[str, float]) -> None:
        """Advance one second with the given per-application arrival rates."""
        _check_arrivals(self, arrivals)

        # Pass 1: per-instance arrivals, demands and memory accounting.
        all_records: list[tuple] = []
        by_node: dict[str, list[_Instance]] = {}
        demands = {}
        for app_name, deployment in self.deployments.items():
            app_arrival = float(arrivals.get(app_name, 0.0))
            for service, replicas in deployment.instances.items():
                spec = deployment.application.services[service]
                per_replica = app_arrival * spec.visits / len(replicas)
                for instance in replicas:
                    demand = instance.runtime.demand(per_replica)
                    # Connection-dependent memory follows the previous
                    # tick's actual concurrency (Little's law), so a
                    # saturated service's footprint grows with its queue.
                    concurrency = max(
                        instance.runtime.last_concurrency,
                        per_replica * max(spec.base_latency, 1e-3),
                    )
                    mem_account = instance.container.memory_cgroup.account(
                        base_bytes=spec.mem_base_bytes
                        + concurrency * spec.mem_per_connection_bytes,
                        working_set_bytes=spec.working_set_bytes,
                        access_bytes_per_second=demand.ws_access_bytes,
                    )
                    thrash_bytes = (
                        mem_account.page_in_bytes * spec.thrash_amplification
                    )
                    demand.disk_bytes += thrash_bytes
                    demand.random_disk_bytes = (
                        thrash_bytes * spec.paged_io_random_fraction
                    )
                    demands[instance.container.name] = demand
                    all_records.append((instance, demand, mem_account))
                    by_node.setdefault(instance.container.node, []).append(
                        instance
                    )

        # Pass 2: arbitrate shared resources per node (:func:`_arbitrate`),
        # CPU demands and grants clamped to each container's quota.
        shares: dict[str, tuple] = {}
        for node in self.nodes.values():
            members = by_node.get(node.name)
            if not members:
                continue
            spec = node.spec
            member_demands = [demands[inst.container.name] for inst in members]
            quotas = [
                inst.container.cpu_cgroup.quota_cores
                if inst.container.cpu_cgroup.quota_cores is not None
                else float(spec.cores)
                for inst in members
            ]
            cpu_capacity = _arbitrate(
                [
                    d.cpu_cores if d.cpu_cores < q else q
                    for d, q in zip(member_demands, quotas)
                ],
                float(spec.cores),
            )
            for inst, q, cpu, disk, random_disk, net, membw in zip(
                members,
                quotas,
                cpu_capacity,
                _arbitrate(
                    [d.disk_bytes for d in member_demands], spec.disk_bandwidth
                ),
                _arbitrate(
                    [d.random_disk_bytes for d in member_demands],
                    spec.disk_random_bandwidth,
                ),
                _arbitrate(
                    [d.network_bytes for d in member_demands],
                    spec.network_bandwidth,
                ),
                _arbitrate(
                    [d.memory_bandwidth_bytes for d in member_demands],
                    spec.memory_bandwidth,
                ),
            ):
                shares[inst.container.name] = (
                    cpu if cpu < q else q, disk, random_disk, net, membw
                )

        # Pass 3: resolve performance and record each container's row.
        per_app_service: dict[str, dict[str, list]] = {
            app: {service: [] for service in dep.instances}
            for app, dep in self.deployments.items()
        }
        for instance, demand, mem_account in all_records:
            cpu, disk, random_disk, net, membw = shares[
                instance.container.name
            ]
            # Interference accounting: what this container *lost* to (or
            # pushed onto) its neighbours on the shared node.  All three
            # are pure observability -- they never feed back into
            # performance resolution.
            node_cores = float(
                self.nodes[instance.container.node].spec.cores
            )
            quota = instance.container.cpu_cgroup.quota_cores
            if quota is None:
                quota = node_cores
            runnable = min(demand.cpu_cores, quota)
            # Steal: CPU the container could have used were it alone on
            # the node (its quota-clamped demand, capped by the machine)
            # minus what arbitration actually granted.  Solo tenants see
            # exactly 0; co-located tenants see the fair-share squeeze.
            cpu_steal = max(0.0, min(runnable, node_cores) - cpu)
            # Memory-bandwidth actually moved (LLC / DRAM pressure other
            # tenants observe): demand capped by the granted share.
            membw_bytes = min(demand.memory_bandwidth_bytes, membw)
            # Disk work that had to queue behind the shared device this
            # tick (sequential + seek-bound shortfall).
            disk_shortfall = max(0.0, demand.disk_bytes - disk) + max(
                0.0, demand.random_disk_bytes - random_disk
            )
            performance = instance.runtime.resolve(
                demand,
                cpu_capacity=cpu,
                disk_capacity=disk,
                random_disk_capacity=random_disk,
                network_capacity=net,
                memory_bandwidth_capacity=membw,
                memory_utilization=mem_account.limit_utilization,
            )
            cpu_account = instance.container.cpu_cgroup.account(
                demand.cpu_cores, cpu
            )
            spec = instance.runtime.spec
            instance.container.record(  # in the F_* order
                (
                    cpu_account.used_cores,
                    mem_account.usage_bytes,
                    mem_account.page_in_bytes,
                    mem_account.limit_utilization,
                    cpu_account.nr_throttled,
                    performance.throughput * spec.disk_read_bytes
                    + mem_account.page_in_bytes * spec.thrash_amplification,
                    performance.throughput * spec.disk_write_bytes,
                    performance.throughput * spec.net_in_bytes,
                    performance.throughput * spec.net_out_bytes,
                    max(performance.concurrency, 0.0) + 2.0,
                    4.0 + 0.05 * performance.concurrency,
                    performance.throughput,
                    cpu_steal,
                    membw_bytes,
                    disk_shortfall,
                    cpu_account.demand_cores,
                    mem_account.resident_working_set,
                    performance.response_time,
                    performance.dropped,
                    performance.max_utilization,
                    _BOTTLENECK_INDEX[performance.bottleneck],
                )
            )
            per_app_service[instance.application][instance.service].append(
                performance
            )

        # Pass 4: application KPIs.
        for app_name, deployment in self.deployments.items():
            throughput, response, dropped = deployment.application.end_to_end(
                per_app_service[app_name]
            )
            offered = float(arrivals.get(app_name, 0.0))
            kpis = self._kpis[app_name]
            kpis["offered"].append(offered)
            kpis["throughput"].append(min(throughput, offered))
            kpis["response_time"].append(response)
            kpis["dropped"].append(dropped)

        self.clock += 1

    def run(self, workloads: dict[str, np.ndarray]) -> SimulationResult:
        """Run every tick of the given per-application workload series."""
        lengths = {len(series) for series in workloads.values()}
        if len(lengths) != 1:
            raise ValueError("All workload series must have equal length.")
        duration = lengths.pop()
        for t in range(duration):
            self.step({app: float(series[t]) for app, series in workloads.items()})
        return self.result()

    def result(self) -> SimulationResult:
        """Snapshot of everything recorded so far."""
        applications = {
            app: {key: np.asarray(values) for key, values in kpis.items()}
            for app, kpis in self._kpis.items()
        }
        containers = [
            instance.container
            for deployment in self.deployments.values()
            for replicas in deployment.instances.values()
            for instance in replicas
        ]
        return SimulationResult(
            duration=self.clock,
            applications=applications,
            containers=containers,
            nodes=self.nodes,
        )


def _check_arrivals(simulation: ClusterSimulation, arrivals: dict) -> None:
    """Reject arrivals a tick cannot apply, before any state changes.

    A rate must be finite and at least 0: a NaN would poison every
    queue backlog for the rest of the run.
    """
    unknown = set(arrivals) - set(simulation.deployments)
    if unknown:
        raise ValueError(f"Arrivals for undeployed applications: {sorted(unknown)}.")
    for application, rate in arrivals.items():
        rate = float(rate)
        if not (math.isfinite(rate) and rate >= 0.0):
            raise ValueError(
                f"Arrival rate for {application!r} must be finite and "
                f"non-negative, got {rate!r}."
            )


#: A bottleneck's value in the ``F_BOTTLENECK`` column.
_BOTTLENECK_INDEX = {resource: index for index, resource in enumerate(BOTTLENECKS)}


#: Node groups with this many members or more are summed by numpy's
#: pairwise ``np.add.reduce``; smaller groups are summed left to right
#: from 0.0.  :func:`_node_total` and :meth:`Lockstep._node_sums` both
#: follow this rule, which is what keeps the two stepping paths bitwise
#: equal on crowded nodes.
_PAIRWISE_MEMBERS = 8


def _node_total(values: list) -> float:
    """Sum of one node's member values in the order the rule above sets."""
    if len(values) < _PAIRWISE_MEMBERS:
        total = 0.0
        for value in values:
            total += value
        return total
    return float(np.add.reduce(np.array(values, dtype=np.float64)))


def _arbitrate(demands: list, capacity: float) -> list:
    """Usable capacity per member of one node: fair-share grant + idle headroom.

    Proportional fair sharing grants every demand in full while their
    sum fits ``capacity`` and ``demand * (capacity / sum)`` once it does
    not.  The scheduling is work-conserving: the idle remainder
    ``capacity - sum(grants)`` is added to every grant, so on an idle
    node a container can burst to the whole resource, and under
    contention the idle term vanishes and each container sees its
    proportional squeeze.  Demands in ``(-NEGATIVE_DEMAND_TOLERANCE,
    0)`` are float-rounding debris and count as 0.0; a more negative
    demand raises ``ValueError``.
    """
    if any(demand < 0.0 for demand in demands):
        if any(demand < -NEGATIVE_DEMAND_TOLERANCE for demand in demands):
            raise ValueError("Demands must be non-negative.")
        demands = [0.0 if demand < 0.0 else demand for demand in demands]
    subscribed = _node_total(demands)
    if subscribed <= capacity or subscribed == 0.0:
        granted, granted_total = demands, subscribed
    else:
        ratio = capacity / subscribed
        granted = [demand * ratio for demand in demands]
        granted_total = _node_total(granted)
    idle = max(0.0, capacity - granted_total)
    return [grant + idle for grant in granted]


# ----------------------------------------------------------------------
# Lockstep: one vectorized tick for many simulations
# ----------------------------------------------------------------------
#: Per-instance constants a :class:`_SimulationLayout` row holds.
_CONSTANTS = 23

#: ``mm1_response_time``'s default saturation cap, which ``resolve`` uses.
_MM1_MAX_FACTOR = 60.0
_MM1_SATURATED = 1.0 - 1.0 / _MM1_MAX_FACTOR


def _min(a, b):
    """Python's ``min(a, b)`` elementwise: ``b`` only where it is smaller."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Python's ``max(a, b)`` elementwise: ``b`` only where it is larger."""
    return np.where(b > a, b, a)


def _divide(numerator, denominator, where):
    """``numerator / denominator`` where ``where`` holds, else 0.0."""
    return np.divide(
        numerator, denominator, out=np.zeros(np.shape(where)), where=where
    )


def _ratios(load, capacity):
    """Elementwise :func:`repro.apps.base._ratio`."""
    starved = capacity <= 0.0
    return np.where(
        starved,
        np.where(load <= 0.0, 0.0, 100.0),
        _divide(load, capacity, ~starved),
    )


def _members(group_of: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Each group's members in ascending index order.

    Returns ``(pad, counts)``: row ``g`` of ``pad`` lists group ``g``'s
    members and is padded with ``len(group_of)``, the index of a pad
    entry the callers append to the values they gather.
    """
    order = np.argsort(group_of, kind="stable")
    counts = np.bincount(group_of, minlength=n_groups)
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(group_of)) - np.repeat(starts, counts)
    pad = np.full((n_groups, counts.max(initial=0)), len(group_of))
    pad[group_of[order], rank] = order
    return pad, counts


def _running_sums(values: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Left-to-right sums from 0.0 of ``values`` over the rows of ``pad``.

    ``values`` has the instances on its last axis; pad entries read 0.0,
    which leaves a running sum unchanged.
    """
    gathered = np.concatenate(
        (values, np.zeros(values.shape[:-1] + (1,))), axis=-1
    )[..., pad]
    sums = np.zeros(gathered.shape[:-1])
    for column in range(pad.shape[1]):
        sums += gathered[..., column]
    return sums


class _SimulationLayout:
    """One simulation's share of a :class:`Lockstep` pass.

    Lists the instances in the scalar traversal order (application,
    ``deployment.instances`` service order, replica order) with their
    spec, cgroup and queue constants.  It stays valid while the
    simulation's ``membership_version`` does.
    """

    def __init__(self, simulation: ClusterSimulation):
        self.version = simulation.membership_version
        self.instances: list[_Instance] = []
        self.applications: list[str] = []
        self.nodes: list[Node] = []  # one per node group
        self.service_visits: list[float] = []
        app_of, node_of, service_of, service_app = [], [], [], []
        rows, has_quota, has_limit = [], [], []
        node_groups: dict[str, int] = {}
        for app, (name, deployment) in enumerate(simulation.deployments.items()):
            self.applications.append(name)
            services = deployment.application.services
            # KPIs compose over services in the application's order.
            service_group = {}
            for service, spec in services.items():
                if not deployment.instances.get(service):
                    raise ValueError(f"No instances reported for service {service}.")
                service_group[service] = len(service_app)
                service_app.append(app)
                self.service_visits.append(spec.visits)
            for service, replicas in deployment.instances.items():
                spec = services[service]
                for instance in replicas:
                    node = instance.container.node
                    if node not in node_groups:
                        node_groups[node] = len(self.nodes)
                        self.nodes.append(simulation.nodes[node])
                    quota = instance.container.cpu_cgroup.quota_cores
                    limit = instance.container.memory_cgroup.limit_bytes
                    own = instance.runtime.spec
                    rows.append(
                        (
                            # Pass 1 reads the application's spec ...
                            spec.visits,
                            len(replicas),
                            max(spec.base_latency, 1e-3),
                            spec.mem_base_bytes,
                            spec.mem_per_connection_bytes,
                            spec.working_set_bytes,
                            spec.thrash_amplification,
                            spec.paged_io_random_fraction,
                            # ... demands and resolution the runtime's.
                            own.cpu_seconds,
                            own.disk_read_bytes + own.disk_write_bytes,
                            own.net_in_bytes + own.net_out_bytes,
                            own.mem_bandwidth_bytes,
                            own.serial_io_seconds,
                            own.ws_access_bytes,
                            own.base_latency,
                            instance.runtime.queue.timeout,
                            own.thrash_amplification,
                            own.disk_read_bytes,
                            own.disk_write_bytes,
                            own.net_in_bytes,
                            own.net_out_bytes,
                            1.0 if quota is None else quota,
                            # Without a limit the limited arithmetic gives
                            # the unlimited results: all of the working set
                            # stays resident.
                            math.inf if limit is None else limit,
                        )
                    )
                    has_quota.append(quota is not None)
                    has_limit.append(limit is not None)
                    app_of.append(app)
                    node_of.append(node_groups[node])
                    service_of.append(service_group[service])
                    self.instances.append(instance)
        self.constants = np.array(rows, dtype=np.float64).reshape(-1, _CONSTANTS).T
        self.has_quota = np.array(has_quota, dtype=bool)
        self.has_limit = np.array(has_limit, dtype=bool)
        self.app_of = np.array(app_of, dtype=np.intp)
        self.node_of = np.array(node_of, dtype=np.intp)
        self.service_of = np.array(service_of, dtype=np.intp)
        self.service_app = np.array(service_app, dtype=np.intp)


def _joined(locals_: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Concatenate per-simulation group indices into shard-wide ones."""
    offsets = np.cumsum(sizes, dtype=np.intp) - sizes
    return np.concatenate(locals_) + np.repeat(
        offsets, [len(local) for local in locals_]
    )


#: Numbers every :class:`Lockstep` layout of this process uniquely.
_LAYOUTS = count()


@dataclass(frozen=True, eq=False)
class TickFrame:
    """The rows every instance of a :class:`Lockstep` recorded at ``tick``.

    ``fields`` is ``(n_instances + 1, N_COLUMNS)`` float64 in the ``F_*``
    order of :mod:`repro.cluster.container`: row ``row(container)`` is
    the row the step appended to the container's log
    (``container.tick_at(tick)``), and the last row is all zeros, the
    row of an unrecorded tick.
    ``rows`` maps ``id(container)`` to its row; it and ``layout``, a
    number no other layout of the process shares, are rebuilt only
    when a stepped simulation's membership changes, so a reader can
    cache what it derived from one layout until ``layout`` changes.  A
    frame describes the membership at the step that wrote it.
    """

    tick: int
    fields: np.ndarray
    rows: dict
    layout: int

    def row(self, container) -> int | None:
        """``container``'s row of :attr:`fields`, or ``None``."""
        return self.rows.get(id(container))


class Lockstep:
    """Advance a fixed list of simulations one tick at a time, together.

    :meth:`step` is :meth:`ClusterSimulation.step` for every simulation
    at once: the per-instance passes are array operations over all the
    simulations' instances, per-node arbitration and per-service KPI
    composition are segment sums in the scalar path's order, and each
    simulation ends the tick bitwise in the state ``step`` would leave
    (its logs hold the same rows; queue, cgroup and KPI state are Python
    floats and ints).

    The per-instance constants -- specs, cgroup limits, queue timeouts
    and the node and service groups -- are cached per simulation and
    rebuilt when its ``membership_version`` changes.  Node capacities
    are re-read whenever a node's ``spec`` object is swapped (as
    :class:`~repro.cluster.faults.FaultSchedule` does).  The cache is
    not pickled.

    After each step :attr:`frame` is the :class:`TickFrame` of the tick
    just recorded, the matrix whose rows the logs appended; it is
    ``None`` before the first step, after unpickling, and when the
    simulations' clocks differ (they then recorded different ticks).
    """

    def __init__(self, simulations):
        self.simulations = list(simulations)
        if not self.simulations:
            raise ValueError("Lockstep needs at least one simulation.")
        if len({id(simulation) for simulation in self.simulations}) != len(
            self.simulations
        ):
            raise ValueError("Each simulation may appear only once.")
        self._parts: list[_SimulationLayout | None] = [None] * len(self.simulations)
        self._specs: list[NodeSpec] = []
        self._capacity = np.zeros((5, 0))
        self.frame: TickFrame | None = None

    def __getstate__(self) -> dict:
        return {"simulations": self.simulations}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["simulations"])

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        stale = False
        for index, simulation in enumerate(self.simulations):
            part = self._parts[index]
            if part is None or part.version != simulation.membership_version:
                self._parts[index] = _SimulationLayout(simulation)
                stale = True
        if stale:
            self._assemble()

    def _assemble(self) -> None:
        parts = self._parts
        instances = [i for part in parts for i in part.instances]
        self._rows = {id(i.container): row for row, i in enumerate(instances)}
        self._layout = next(_LAYOUTS)
        self._records = [i.container.record for i in instances]
        self._runtimes = [i.runtime for i in instances]
        self._queues = [runtime.queue for runtime in self._runtimes]
        self._cgroups = [i.container.cpu_cgroup for i in instances]
        self._constants = np.concatenate([part.constants for part in parts], axis=1)
        self._has_quota = np.concatenate([part.has_quota for part in parts])
        self._has_limit = np.concatenate([part.has_limit for part in parts])
        self._applications = [
            (index, name)
            for index, part in enumerate(parts)
            for name in part.applications
        ]
        self._kpis = [
            self.simulations[index]._kpis[name] for index, name in self._applications
        ]
        apps = [len(part.applications) for part in parts]
        self._app_of = _joined([part.app_of for part in parts], apps)
        self._nodes = [node for part in parts for node in part.nodes]
        self._node_of = _joined(
            [part.node_of for part in parts], [len(part.nodes) for part in parts]
        )
        pad, counts = _members(self._node_of, len(self._nodes))
        self._node_pad = pad[:, : _PAIRWISE_MEMBERS - 1]
        self._pairwise_nodes = [
            (group, pad[group, : counts[group]])
            for group in np.flatnonzero(counts >= _PAIRWISE_MEMBERS)
        ]
        services = [len(part.service_visits) for part in parts]
        service_of = _joined([part.service_of for part in parts], services)
        self._service_pad, _ = _members(service_of, sum(services))
        self._service_visits = np.array(
            [visits for part in parts for visits in part.service_visits],
            dtype=np.float64,
        )
        service_app = _joined([part.service_app for part in parts], apps)
        self._app_pad, _ = _members(service_app, len(self._applications))

    def _capacities(self) -> np.ndarray:
        """``(5, node groups)``: cores, disk, random disk, network, membw."""
        specs = [node.spec for node in self._nodes]
        if len(specs) != len(self._specs) or any(map(is_not, specs, self._specs)):
            self._specs = specs
            self._capacity = (
                np.array(
                    [
                        (
                            float(spec.cores),
                            spec.disk_bandwidth,
                            spec.disk_random_bandwidth,
                            spec.network_bandwidth,
                            spec.memory_bandwidth,
                        )
                        for spec in specs
                    ],
                    dtype=np.float64,
                )
                .reshape(-1, 5)
                .T
            )
        return self._capacity

    def _node_sums(self, values: np.ndarray) -> np.ndarray:
        sums = _running_sums(values, self._node_pad)
        for group, members in self._pairwise_nodes:
            # One contiguous 1-D vector per resource: a 2-D gather is
            # column-major, and numpy would not sum its rows pairwise.
            for row, resource in enumerate(values):
                sums[row, group] = resource[members].sum()
        return sums

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, arrivals: list[dict[str, float]]) -> None:
        """Advance every simulation one second; ``arrivals[i]`` is the
        per-application rate dict ``simulations[i].step`` would take.

        Every error is raised before any simulation changes.
        """
        if len(arrivals) != len(self.simulations):
            raise ValueError(
                f"Expected one arrivals dict per simulation "
                f"({len(self.simulations)}), got {len(arrivals)}."
            )
        for simulation, rates in zip(self.simulations, arrivals):
            _check_arrivals(simulation, rates)
        self._refresh()
        rate = np.array(
            [
                float(arrivals[index].get(name, 0.0))
                for index, name in self._applications
            ],
            dtype=np.float64,
        )
        backlog = np.array([queue.backlog for queue in self._queues], dtype=np.float64)
        last_concurrency = np.array(
            [runtime.last_concurrency for runtime in self._runtimes], dtype=np.float64
        )
        capacity = self._capacities()
        (
            visits, replicas, latency_floor, mem_base, mem_per_connection,
            working_set, app_thrash, random_fraction,
            cpu_seconds, disk_per_request, network_per_request, membw_per_request,
            serial_io, ws_access, base_latency, timeout, thrash,
            disk_read, disk_write, net_in, net_out, quota, limit,
        ) = self._constants
        has_quota = self._has_quota
        node_of = self._node_of

        # Pass 1: per-instance arrivals, demands and memory accounting.
        per_replica = rate[self._app_of] * visits / replicas
        served = per_replica + backlog
        cpu = served * cpu_seconds
        disk = served * disk_per_request
        network = served * network_per_request
        membw = served * membw_per_request
        serial = served * serial_io
        access = served * ws_access
        concurrency = _max(last_concurrency, per_replica * latency_floor)
        base = mem_base + concurrency * mem_per_connection
        if (base < 0).any() or (access < 0).any():
            raise ValueError("Memory quantities must be non-negative.")
        resident = _min(working_set, _max(0.0, limit - base))
        usage = _min(base + resident, limit)
        missed = np.where(
            working_set > 0, 1.0 - _divide(resident, working_set, working_set > 0), 0.0
        )
        page_in = np.where(self._has_limit, access * missed, 0.0)
        memory_utilization = np.where(
            self._has_limit, _min(100.0, 100.0 * usage / limit), 0.0
        )
        thrash_bytes = page_in * app_thrash
        disk = disk + thrash_bytes
        random_disk = thrash_bytes * random_fraction

        # Pass 2: work-conserving fair share per node.
        cores = capacity[0][node_of]
        quota = np.where(has_quota, quota, cores)
        demands = np.stack(
            (np.where(cpu < quota, cpu, quota), disk, random_disk, network, membw)
        )
        if (demands < 0).any():
            if (demands < -NEGATIVE_DEMAND_TOLERANCE).any():
                raise ValueError("Demands must be non-negative.")
            demands = np.where(demands < 0, 0.0, demands)
        subscribed = self._node_sums(demands)
        keep = (subscribed <= capacity) | (subscribed == 0.0)
        granted = np.where(
            keep[:, node_of],
            demands,
            demands * _divide(capacity, subscribed, ~keep)[:, node_of],
        )
        granted_sums = np.where(keep, subscribed, self._node_sums(granted))
        usable = granted + _max(0.0, capacity - granted_sums)[:, node_of]
        cpu_share = np.where(usable[0] < quota, usable[0], quota)
        disk_share, random_share, network_share, membw_share = usable[1:]

        # Pass 3: resolve performance (InstanceRuntime.resolve, the queue
        # and the CPU cgroup) and the interference accounting.
        steal = _max(0.0, _min(_min(cpu, quota), cores) - cpu_share)
        membw_moved = _min(membw, membw_share)
        shortfall = _max(0.0, disk - disk_share) + _max(0.0, random_disk - random_share)
        rho = _ratios(cpu, cpu_share)
        bottleneck = np.zeros(len(rho), dtype=np.intp)
        for index, utilization in enumerate(
            (
                _ratios(disk, disk_share),
                serial + _ratios(random_disk, random_share),
                _ratios(network, network_share),
                _ratios(membw, membw_share),
            ),
            start=1,
        ):
            higher = utilization > rho
            bottleneck[higher] = index
            rho = np.where(higher, utilization, rho)
        max_utilization = _max(rho, memory_utilization / 100.0)
        flowing = (rho > 0.0) & (served > 0.0)
        capacity_rps = np.where(flowing, _divide(served, rho, flowing), math.inf)
        total = backlog + per_replica
        completed = _min(total, capacity_rps)
        remaining = total - completed
        dropped = _max(0.0, remaining - capacity_rps * timeout)
        backlog = remaining - dropped
        load = _min(rho, 1.0)
        saturated = load >= _MM1_SATURATED
        response = np.where(
            saturated,
            base_latency * _MM1_MAX_FACTOR,
            _divide(base_latency, 1.0 - load, ~saturated),
        )
        queued = (capacity_rps > 0) & (backlog > 0)
        response = np.where(
            queued, response + _divide(backlog, capacity_rps, queued), response
        )
        response = _min(response, timeout)
        concurrency = completed * response
        if (per_replica < 0).any() or (capacity_rps < 0).any():
            raise ValueError("arrivals and capacity must be non-negative.")
        if (load < 0).any():
            raise ValueError("rho must be non-negative.")
        if (cpu < 0).any():
            raise ValueError("demand_cores must be non-negative.")
        used = _min(cpu, np.where(has_quota, _min(quota, cpu_share), cpu_share))
        throttling = has_quota & (cpu > quota)
        overshoot = _min(1.0, _divide(cpu - quota, quota, throttling))
        throttled = np.where(
            throttling, np.ceil(overshoot * CFS_PERIODS_PER_SECOND), 0.0
        ).astype(np.int64)

        # Pass 4: application KPIs, services composed in the
        # application's order; pad entries (inf, 0.0, 0.0) change nothing.
        served_sums = _running_sums(
            np.stack((completed, dropped, response * _max(completed, 1e-9))),
            self._service_pad,
        )
        service_throughput, service_dropped, weighted_response = served_sums
        service_visits = self._service_visits
        per_visit_throughput = np.append(
            service_throughput / service_visits, math.inf
        )
        per_visit_response = np.append(
            service_visits * (weighted_response / _max(service_throughput, 1e-9)),
            0.0,
        )
        per_visit_dropped = np.append(service_dropped / service_visits, 0.0)
        app_throughput = np.full(len(rate), math.inf)
        app_response = np.zeros(len(rate))
        app_dropped = np.zeros(len(rate))
        for column in self._app_pad.T:
            app_throughput = _min(app_throughput, per_visit_throughput[column])
            app_response = app_response + per_visit_response[column]
            app_dropped = _max(app_dropped, per_visit_dropped[column])

        # Write back: the tick's rows, each appended to its container's
        # log, then the queue and cgroup state.
        fields = np.empty((len(used) + 1, N_COLUMNS))
        fields[-1] = 0.0
        for column, values in (
            (F_USED_CORES, used),
            (F_USAGE_BYTES, usage),
            (F_PAGE_IN_BYTES, page_in),
            (F_LIMIT_UTIL, memory_utilization),
            (F_NR_THROTTLED, throttled),
            (F_DISK_READ, completed * disk_read + page_in * thrash),
            (F_DISK_WRITE, completed * disk_write),
            (F_NET_RX, completed * net_in),
            (F_NET_TX, completed * net_out),
            (F_TCP, _max(concurrency, 0.0) + 2.0),
            (F_PROCESSES, 4.0 + 0.05 * concurrency),
            (F_THROUGHPUT, completed),
            (F_CPU_STEAL, steal),
            (F_MEMBW, membw_moved),
            (F_DISK_SHORTFALL, shortfall),
            (F_DEMAND_CORES, cpu),
            (F_RESIDENT_BYTES, resident),
            (F_RESPONSE_TIME, response),
            (F_DROPPED, dropped),
            (F_MAX_UTILIZATION, max_utilization),
            (F_BOTTLENECK, bottleneck),
        ):
            fields[:-1, column] = values
        for record, row, runtime, queue, cgroup, pending, active, periods in zip(
            self._records,
            fields,
            self._runtimes,
            self._queues,
            self._cgroups,
            backlog.tolist(),
            concurrency.tolist(),
            throttled.tolist(),
        ):
            record(row)
            queue.backlog = pending
            runtime.last_concurrency = active
            cgroup.total_periods += CFS_PERIODS_PER_SECOND
            cgroup.total_throttled += periods
        for kpis, offered, throughput, response_time, lost in zip(
            self._kpis,
            rate.tolist(),
            _min(app_throughput, rate).tolist(),
            app_response.tolist(),
            app_dropped.tolist(),
        ):
            kpis["offered"].append(offered)
            kpis["throughput"].append(throughput)
            kpis["response_time"].append(response_time)
            kpis["dropped"].append(lost)
        clocks = {simulation.clock for simulation in self.simulations}
        self.frame = (
            TickFrame(clocks.pop(), fields, self._rows, self._layout)
            if len(clocks) == 1 else None
        )
        for simulation in self.simulations:
            simulation.clock += 1
