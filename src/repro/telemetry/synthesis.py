"""Batched state extraction: simulation ticks -> state matrices.

This is the struct-of-arrays core shared by
:meth:`repro.telemetry.agent.TelemetryAgent.host_state` /
``container_state`` (one container, many ticks -- the corpus path) and
:class:`repro.fleet.telemetry.FleetTelemetryStream` (many containers,
one tick -- the serving path).  Both callers used to run a Python loop
per (container, tick) doing ~20 scalar float operations; here the tick
rows are one float64 matrix in the ``F_*`` layout of
:mod:`repro.cluster.container` (telemetry reads its first ``N_FIELDS``
columns), and every state channel is computed as a vector op over the
whole batch.

The rows are the containers' own log rows, from one of two places.
:func:`gather_container_fields` slices them off a container's log
(``Container.history``) for the corpus path, and fleet rounds without
a frame take them one by one with ``Container.tick_at``.  A fleet
shard's rounds read the :class:`~repro.cluster.simulation.TickFrame`
that :class:`~repro.cluster.simulation.Lockstep` writes, the matrix
whose rows it appended to the logs.

The contract is bitwise equality with the original per-offset scalar
loops.  Every vectorized expression below replicates the scalar
arithmetic operation for operation: numpy elementwise ``*``, ``/``,
``+``, ``log1p``, ``minimum`` and ``maximum`` on float64 produce the
same IEEE-754 results as the equivalent Python-float expressions, and
the host accumulation preserves the reference's per-cell addition
order (baseline first, then one addition per container in
``node.containers`` order).  Ticks outside the container's recorded
history contribute all-zero rows; adding the resulting zero
contributions is bitwise-neutral because every partial sum here is
non-negative (``x + 0.0 == x`` except at ``-0.0``, which cannot occur).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.container import (
    F_CPU_STEAL,
    F_DISK_READ,
    F_DISK_SHORTFALL,
    F_DISK_WRITE,
    F_LIMIT_UTIL,
    F_MEMBW,
    F_NET_RX,
    F_NET_TX,
    F_NR_THROTTLED,
    F_PAGE_IN_BYTES,
    F_PROCESSES,
    F_TCP,
    F_THROUGHPUT,
    F_USAGE_BYTES,
    F_USED_CORES,
    N_FIELDS,
)
from repro.telemetry.catalog import (
    CONTAINER_CHANNELS,
    HOST_CHANNELS,
    N_CONTAINER_CHANNELS,
    N_HOST_CHANNELS,
)

__all__ = [
    "gather_container_fields",
    "host_baseline",
    "host_additive_contributions",
    "host_derived",
    "container_state_from_fields",
]

_H = HOST_CHANNELS
_C = CONTAINER_CHANNELS


def gather_container_fields(container, start: int, end: int) -> np.ndarray:
    """The telemetry columns of ticks ``start..end-1`` of a container's
    log, ``(end - start, N_FIELDS)``.

    Ticks the container has not recorded become all-zero rows, which
    downstream vector math treats exactly like the reference loops
    treat a missing tick (zero contribution / zero state).
    """
    created = container.created_at
    history = container.history
    lo = min(max(start, created), end)
    hi = max(min(end, created + len(history)), lo)
    fields = np.zeros((end - start, N_FIELDS))
    fields[lo - start:hi - start] = history[lo - created:hi - created, :N_FIELDS]
    return fields


# ----------------------------------------------------------------------
# Host state
# ----------------------------------------------------------------------
def host_baseline(n: int, memory_bytes) -> np.ndarray:
    """OS baseline activity rows for ``n`` host-state rows.

    ``memory_bytes`` may be a scalar (one node over time) or an
    ``(n,)`` array (one row per node entry).
    """
    state = np.zeros((n, N_HOST_CHANNELS))
    state[:, _H["cpu_util"]] = 1.5
    state[:, _H["pswitch"]] = 900.0
    state[:, _H["tcp_established"]] = 40.0
    state[:, _H["nprocs"]] = 180.0
    state[:, _H["interrupts"]] = 1200.0
    state[:, _H["net_packets"]] = 300.0
    state[:, _H["mem_used_log"]] = np.log1p(
        0.05 * np.asarray(memory_bytes, dtype=np.float64)
    )
    state[:, _H["membw_util"]] = 2.0  # OS DRAM background traffic
    return state


def host_additive_contributions(
    fields: np.ndarray,
    cores,
    memory_bytes,
    disk_bandwidth,
    network_bandwidth,
    memory_bandwidth,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row host-channel contributions of one container-tick each.

    The node-spec arguments broadcast: scalars for a single node,
    ``(n,)`` arrays when the rows belong to different nodes.
    """
    n = fields.shape[0]
    if out is None or out.shape != (n, N_HOST_CHANNELS):
        out = np.zeros((n, N_HOST_CHANNELS))
    else:
        out[:] = 0.0
    used = fields[:, F_USED_CORES]
    disk_bytes = fields[:, F_DISK_READ] + fields[:, F_DISK_WRITE]
    net_bytes = fields[:, F_NET_RX] + fields[:, F_NET_TX]
    out[:, _H["cpu_util"]] = 100.0 * used / cores
    out[:, _H["mem_util"]] = 100.0 * fields[:, F_USAGE_BYTES] / memory_bytes
    out[:, _H["disk_util"]] = 100.0 * disk_bytes / disk_bandwidth
    out[:, _H["net_util"]] = 100.0 * net_bytes / network_bandwidth
    out[:, _H["pswitch"]] = 4.0 * fields[:, F_THROUGHPUT]
    out[:, _H["tcp_established"]] = fields[:, F_TCP]
    out[:, _H["nprocs"]] = fields[:, F_PROCESSES]
    out[:, _H["page_in"]] = fields[:, F_PAGE_IN_BYTES] / 1024.0
    out[:, _H["net_packets"]] = net_bytes / 1500.0
    out[:, _H["interrupts"]] = net_bytes / 1500.0 + disk_bytes / 65536.0
    # Interference channels (accumulated in simulation Pass 2/3):
    # steal is each member's fair-share shortfall, membw the DRAM
    # traffic it actually moved, disk_aveq the queue its unserved IO
    # left on the shared device (~8 requests per queued MiB-ish unit).
    out[:, _H["cpu_steal"]] = 100.0 * fields[:, F_CPU_STEAL] / cores
    out[:, _H["membw_util"]] = (
        100.0 * fields[:, F_MEMBW] / memory_bandwidth
    )
    out[:, _H["disk_aveq"]] = (
        8.0 * fields[:, F_DISK_SHORTFALL] / disk_bandwidth
    )
    return out


def host_derived(
    state: np.ndarray, cores, memory_bytes, disk_random_bandwidth
) -> np.ndarray:
    """Fill the derived host channels in place (post-accumulation).

    ``disk_aveq`` arrives carrying the accumulated *interference* queue
    (unserved neighbour IO from the contribution pass) and gains the
    node's own utilization/page-in terms here; ``membw_util`` and
    ``cpu_steal`` are real accumulated node state (DRAM traffic moved,
    fair-share shortfall) and are only range-clamped.
    """
    disk_aveq = np.maximum(
        0.05,
        state[:, _H["disk_util"]] / 100.0 * 4.0
        + state[:, _H["page_in"]]
        / (np.asarray(disk_random_bandwidth, dtype=np.float64) / 1024.0)
        * 8.0
        + state[:, _H["disk_aveq"]],
    )
    state[:, _H["disk_aveq"]] = disk_aveq
    state[:, _H["io_wait"]] = np.minimum(95.0, disk_aveq * 2.0)
    state[:, _H["load_avg"]] = (
        state[:, _H["cpu_util"]] / 100.0 * cores + disk_aveq * 0.5
    )
    state[:, _H["mem_used_log"]] = np.log1p(
        state[:, _H["mem_util"]] / 100.0 * memory_bytes + 0.05 * memory_bytes
    )
    state[:, _H["membw_util"]] = np.minimum(state[:, _H["membw_util"]], 100.0)
    state[:, _H["cpu_steal"]] = np.minimum(state[:, _H["cpu_steal"]], 100.0)
    state[:, _H["cpu_util"]] = np.minimum(state[:, _H["cpu_util"]], 100.0)
    state[:, _H["mem_util"]] = np.minimum(state[:, _H["mem_util"]], 100.0)
    return state


# ----------------------------------------------------------------------
# Container state
# ----------------------------------------------------------------------
def container_state_from_fields(
    fields: np.ndarray, allocation, cores
) -> np.ndarray:
    """Container state rows from raw tick fields.

    ``allocation`` / ``cores`` broadcast like the host spec arguments.
    All-zero field rows (unrecorded ticks) produce the reference's
    untouched zero state: every expression below maps 0 to 0, and the
    constant ``periods`` channel is set unconditionally, exactly like
    the scalar path.
    """
    n = fields.shape[0]
    state = np.zeros((n, N_CONTAINER_CHANNELS))
    state[:, _C["periods"]] = 10.0
    used = fields[:, F_USED_CORES]
    state[:, _C["cpu_rel_util"]] = np.minimum(100.0, 100.0 * used / allocation)
    state[:, _C["cpu_host_util"]] = 100.0 * used / cores
    state[:, _C["throttled"]] = fields[:, F_NR_THROTTLED]
    state[:, _C["mem_limit_util"]] = fields[:, F_LIMIT_UTIL]
    state[:, _C["mem_usage_log"]] = np.log1p(fields[:, F_USAGE_BYTES])
    state[:, _C["rx_log"]] = np.log1p(fields[:, F_NET_RX])
    state[:, _C["tx_log"]] = np.log1p(fields[:, F_NET_TX])
    state[:, _C["connections"]] = fields[:, F_TCP]
    state[:, _C["processes"]] = fields[:, F_PROCESSES]
    state[:, _C["page_in_log"]] = np.log1p(fields[:, F_PAGE_IN_BYTES])
    state[:, _C["disk_read_log"]] = np.log1p(fields[:, F_DISK_READ])
    state[:, _C["disk_write_log"]] = np.log1p(fields[:, F_DISK_WRITE])
    return state
