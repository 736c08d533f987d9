"""The PCP-like metric catalog: 952 host + 88 container metrics.

Each :class:`MetricSpec` couples a named metric to the simulation
state through a linear *driver*::

    value(t) = base + gain * f(state[channel, t]) + noise(t)

where ``state`` is the per-tick host or container state vector defined
below, ``f`` is an optional transform (identity or ``100 - x`` for
idle-style metrics), and ``noise`` is white Gaussian measurement
noise.  Counter-semantics metrics are emitted as cumulative sums and
converted back to rates by the preprocessing step, exercising the
paper's section-3.1 pipeline.

The catalog contains every metric the paper's Table 4 names
(``network.tcp.currestab``, ``kernel.all.pswitch``,
``mem.vmstat.nr_inactive_anon``, ``cgroup.cpusched.throttled``,
``vfs.inodes.free``, ``disk.all.aveq``, ``hinv.ninterface``, the
``C-CPU``/``C-MEM``/``S-MEM-U-*`` derived utilizations, ...) plus
realistic filler families (per-CPU splits, slab caches, protocol
counters) to reach exactly the paper's 952/88 split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features.meta import Domain, FeatureMeta, Scope, infer_domain

__all__ = [
    "MetricSpec",
    "SpecArrays",
    "MetricCatalog",
    "default_catalog",
    "HOST_CHANNELS",
    "CONTAINER_CHANNELS",
    "N_HOST_METRICS",
    "N_CONTAINER_METRICS",
]

N_HOST_METRICS = 952
N_CONTAINER_METRICS = 88

# ----------------------------------------------------------------------
# State-vector channel layout
# ----------------------------------------------------------------------
HOST_CHANNELS: dict[str, int] = {
    "cpu_util": 0,  # % of node cores busy
    "mem_util": 1,  # % of node memory used
    "disk_util": 2,  # % of sequential disk bandwidth used
    "net_util": 3,  # % of NIC bandwidth used
    "pswitch": 4,  # context switches / s
    "tcp_established": 5,  # established TCP connections
    "nprocs": 6,  # processes
    "page_in": 7,  # page-in KB/s
    "disk_aveq": 8,  # average disk queue length
    "interrupts": 9,  # interrupts / s
    "load_avg": 10,  # 1-minute load average
    "mem_used_log": 11,  # log1p(bytes of memory used)
    "io_wait": 12,  # % of CPU time in iowait
    "net_packets": 13,  # packets / s
    "membw_util": 14,  # % of DRAM bandwidth used
    "one": 15,  # always 0: constant metrics are pure base + noise
    "cpu_steal": 16,  # % of node cores lost to co-located tenants
}
N_HOST_CHANNELS = len(HOST_CHANNELS)

CONTAINER_CHANNELS: dict[str, int] = {
    "cpu_rel_util": 0,  # % of the container's allocation used (C-CPU)
    "cpu_host_util": 1,  # % of node cores used by this container
    "throttled": 2,  # CFS throttled periods this second (0-10)
    "periods": 3,  # CFS periods this second (10)
    "mem_limit_util": 4,  # % of memory limit used (C-MEM)
    "mem_usage_log": 5,  # log1p(bytes resident)
    "rx_log": 6,  # log1p(bytes received / s)
    "tx_log": 7,  # log1p(bytes sent / s)
    "connections": 8,  # open TCP connections
    "processes": 9,  # processes in the container
    "page_in_log": 10,  # log1p(page-in bytes / s)
    "disk_read_log": 11,  # log1p(disk read bytes / s)
    "disk_write_log": 12,  # log1p(disk write bytes / s)
    "one": 13,  # always 0: constant metrics are pure base + noise
}
N_CONTAINER_CHANNELS = len(CONTAINER_CHANNELS)


@dataclass(frozen=True)
class MetricSpec:
    """One metric's identity, semantics and state driver."""

    name: str
    scope: Scope
    channel: int
    gain: float = 1.0
    base: float = 0.0
    noise: float = 0.0
    transform: str = "identity"  # or "complement100"
    counter: bool = False  # emitted cumulatively, converted to a rate
    utilization: bool = False  # relative 0-100 scale (binary-level source)
    bytes_like: bool = False  # log-scale candidate
    domain: Domain | None = None  # inferred from the name when None
    #: Gauge whose physical domain is [0, inf): emitted values are
    #: clamped at 0 after noise (counters get this implicitly via their
    #: increment clamp; gauges must opt in).
    nonnegative: bool = False

    def feature_meta(self) -> FeatureMeta:
        """The pipeline-facing description of this metric."""
        domain = self.domain if self.domain is not None else infer_domain(self.name)
        return FeatureMeta(
            name=self.name,
            domain=domain,
            scope=self.scope,
            utilization=self.utilization,
            bytes_like=self.bytes_like,
        )


@dataclass(frozen=True)
class SpecArrays:
    """Vectorized view of a spec list, shared by batch and streaming
    synthesis so both paths run the exact same arithmetic."""

    channels: np.ndarray
    gains: np.ndarray
    bases: np.ndarray
    noises: np.ndarray
    complement: np.ndarray  # bool: transform == "complement100"
    noisy: np.ndarray  # bool: noise > 0
    counters: np.ndarray  # bool: cumulative counter semantics
    # Precomputed index/sigma views of the boolean masks, shared by the
    # batched row kernels so steady-state ticks do no mask arithmetic.
    complement_idx: np.ndarray
    noisy_idx: np.ndarray
    counter_idx: np.ndarray
    sigma: np.ndarray  # noises[noisy]
    nonneg: np.ndarray  # bool: gauge clamped at 0 after noise
    nonneg_idx: np.ndarray

    @staticmethod
    def from_specs(specs: list[MetricSpec]) -> "SpecArrays":
        noises = np.array([s.noise for s in specs])
        complement = np.array([s.transform == "complement100" for s in specs])
        noisy = noises > 0
        counters = np.array([s.counter for s in specs])
        nonneg = np.array([s.nonnegative for s in specs])
        return SpecArrays(
            channels=np.array([s.channel for s in specs]),
            gains=np.array([s.gain for s in specs]),
            bases=np.array([s.base for s in specs]),
            noises=noises,
            complement=complement,
            noisy=noisy,
            counters=counters,
            complement_idx=np.flatnonzero(complement),
            noisy_idx=np.flatnonzero(noisy),
            counter_idx=np.flatnonzero(counters),
            sigma=noises[noisy],
            nonneg=nonneg,
            nonneg_idx=np.flatnonzero(nonneg),
        )


class MetricCatalog:
    """An ordered collection of host and container metric specs."""

    def __init__(self, host: list[MetricSpec], container: list[MetricSpec]):
        for spec in host:
            if spec.scope != Scope.HOST:
                raise ValueError(f"{spec.name} is not host-scoped.")
        for spec in container:
            if spec.scope != Scope.CONTAINER:
                raise ValueError(f"{spec.name} is not container-scoped.")
        names = [s.name for s in host] + [s.name for s in container]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"Duplicate metric names: {sorted(duplicates)[:5]}.")
        self.host = list(host)
        self.container = list(container)
        self._host_arrays = SpecArrays.from_specs(self.host)
        self._container_arrays = SpecArrays.from_specs(self.container)

    def spec_arrays(self, specs: list[MetricSpec]) -> SpecArrays:
        """Precomputed driver arrays for ``specs`` (cached for the
        catalog's own host / container lists)."""
        if specs is self.host:
            return self._host_arrays
        if specs is self.container:
            return self._container_arrays
        return SpecArrays.from_specs(specs)

    @property
    def n_host(self) -> int:
        return len(self.host)

    @property
    def n_container(self) -> int:
        return len(self.container)

    @property
    def n_metrics(self) -> int:
        return self.n_host + self.n_container

    def feature_meta(self) -> list[FeatureMeta]:
        """Per-column metadata for instance matrices (host then container)."""
        return [spec.feature_meta() for spec in self.host + self.container]

    def names(self) -> list[str]:
        return [spec.name for spec in self.host + self.container]

    def synthesize(
        self,
        specs: list[MetricSpec],
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Batch metric synthesis from a state matrix.

        ``state`` has shape ``(T, n_channels)``; returns ``(T, len(specs))``.
        The rows are :meth:`synthesize_rows` with one generator drawing
        them in tick order (``[rng] * T``, the order of
        ``rng.normal(size=(T, k))``), and counters accumulate down the
        tick axis with ``np.cumsum``.
        """
        values = self.synthesize_rows(specs, state, [rng] * state.shape[0])
        counters = self.spec_arrays(specs).counter_idx
        if counters.size:
            # Counter metrics accumulate; preprocessing differentiates back.
            values[:, counters] = np.cumsum(
                np.maximum(values[:, counters], 0.0), axis=0
            )
        return values

    def synthesize_rows(
        self,
        specs: list[MetricSpec],
        states: np.ndarray,
        rngs,
        noise_scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Driver, complement, noise and non-negative clamp for N rows.

        The one synthesis kernel: :meth:`synthesize` and
        :class:`repro.fleet.telemetry.FleetTelemetryStream` both call it.  ``states`` has shape ``(N, n_channels)``; ``rngs[i]`` is
        row *i*'s generator, and rows may share one (``[rng] * N``
        draws the rows one after another).  The driver math is
        elementwise, and each row's Gaussian draw is one k-vector
        ``standard_normal`` into a scratch row scaled by the per-metric
        sigmas -- the same bit-generator consumption and the same
        floating-point product as ``rng.normal(0.0, sigma)``.

        Counter accumulation and rate conversion are left to the caller:
        they carry state along the tick axis.
        """
        arrays = self.spec_arrays(specs)
        n = states.shape[0]
        values = states[:, arrays.channels]
        np.multiply(values, arrays.gains, out=values)
        np.add(values, arrays.bases, out=values)
        if arrays.complement_idx.size:
            raw = (
                states[:, arrays.channels[arrays.complement]]
                * arrays.gains[arrays.complement]
            )
            values[:, arrays.complement_idx] = (
                100.0 - raw + arrays.bases[arrays.complement]
            )
        k = arrays.noisy_idx.size
        if k:
            if noise_scratch is None or noise_scratch.shape != (n, k):
                noise_scratch = np.empty((n, k))
            for rng, scratch_row in zip(rngs, noise_scratch):
                rng.standard_normal(out=scratch_row)
            np.multiply(noise_scratch, arrays.sigma, out=noise_scratch)
            values[:, arrays.noisy_idx] += noise_scratch
        if arrays.nonneg_idx.size:
            # Domain-non-negative gauges: measurement noise must not
            # drive e.g. cpu.steal below zero.
            values[:, arrays.nonneg_idx] = np.maximum(
                values[:, arrays.nonneg_idx], 0.0
            )
        return values


# ----------------------------------------------------------------------
# Catalog construction
# ----------------------------------------------------------------------
_VMSTAT_FIELDS = [
    "nr_free_pages", "nr_alloc_batch", "nr_inactive_anon", "nr_active_anon",
    "nr_inactive_file", "nr_active_file", "nr_unevictable", "nr_mlock",
    "nr_anon_pages", "nr_mapped", "nr_file_pages", "nr_dirty", "nr_writeback",
    "nr_slab_reclaimable", "nr_slab_unreclaimable", "nr_page_table_pages",
    "nr_kernel_stack", "nr_unstable", "nr_bounce", "nr_vmscan_write",
    "nr_vmscan_immediate_reclaim", "nr_writeback_temp", "nr_isolated_anon",
    "nr_isolated_file", "nr_shmem", "nr_dirtied", "nr_written",
    "pgpgin", "pgpgout", "pswpin", "pswpout",
    "pgalloc_dma", "pgalloc_dma32", "pgalloc_normal", "pgalloc_movable",
    "pgfree", "pgactivate", "pgdeactivate", "pgfault", "pgmajfault",
    "pgrefill_dma", "pgrefill_normal", "pgsteal_kswapd_normal",
    "pgsteal_direct_normal", "pgscan_kswapd_normal", "pgscan_direct_normal",
    "pginodesteal", "slabs_scanned", "kswapd_inodesteal",
    "kswapd_low_wmark_hit_quickly", "kswapd_high_wmark_hit_quickly",
    "pageoutrun", "allocstall", "pgrotated",
    "numa_hit", "numa_miss", "numa_foreign", "numa_interleave",
    "numa_local", "numa_other",
    "workingset_refault", "workingset_activate", "workingset_nodereclaim",
    "nr_anon_transparent_hugepages", "nr_free_cma",
    "thp_fault_alloc", "thp_fault_fallback", "thp_collapse_alloc",
    "thp_collapse_alloc_failed", "thp_split",
    "unevictable_pgs_culled", "unevictable_pgs_scanned",
    "unevictable_pgs_rescued", "unevictable_pgs_mlocked",
    "unevictable_pgs_munlocked", "unevictable_pgs_cleared",
    "unevictable_pgs_stranded", "htlb_buddy_alloc_success",
]

_SLAB_CACHES = [
    "kmalloc_8", "kmalloc_16", "kmalloc_32", "kmalloc_64", "kmalloc_96",
    "kmalloc_128", "kmalloc_192", "kmalloc_256", "kmalloc_512",
    "kmalloc_1k", "kmalloc_2k", "kmalloc_4k", "kmalloc_8k",
    "dentry", "inode_cache", "ext4_inode_cache", "buffer_head",
    "radix_tree_node", "task_struct", "mm_struct", "vm_area_struct",
    "anon_vma", "files_cache", "signal_cache", "sighand_cache",
    "sock_inode_cache", "tcp_sock", "udp_sock", "request_sock_tcp",
    "skbuff_head_cache", "skbuff_fclone_cache", "cred_jar", "pid",
    "shmem_inode_cache", "proc_inode_cache", "sigqueue", "bdev_cache",
    "kernfs_node_cache", "mnt_cache", "filp", "names_cache", "key_jar",
    "nsproxy", "posix_timers_cache", "uid_cache", "dmaengine_unmap_128",
    "dmaengine_unmap_256", "mqueue_inode_cache", "v9fs_inode_cache",
    "fuse_inode", "ecryptfs_inode_cache", "fat_inode_cache",
    "hugetlbfs_inode_cache", "squashfs_inode_cache", "jbd2_journal_head",
    "ext4_extent_status", "dquot", "rpc_inode_cache", "UNIX",
    "tw_sock_TCP", "request_queue", "blkdev_requests", "biovec_256",
    "bio_0", "btree_node", "uts_namespace", "dma_heap",
]


def _host_specs() -> list[MetricSpec]:
    H = HOST_CHANNELS
    specs: list[MetricSpec] = []

    def add(name, channel, **kw):
        specs.append(MetricSpec(name=name, scope=Scope.HOST, channel=H[channel], **kw))

    # --- kernel.all.cpu.* : the designated host CPU utilization --------
    add("kernel.all.cpu.util", "cpu_util", utilization=True, noise=0.8,
        domain=Domain.CPU)
    add("kernel.all.cpu.user", "cpu_util", gain=0.68, noise=1.0, domain=Domain.CPU)
    add("kernel.all.cpu.sys", "cpu_util", gain=0.22, noise=0.6, domain=Domain.CPU)
    add("kernel.all.cpu.idle", "cpu_util", transform="complement100", noise=1.0,
        domain=Domain.CPU)
    add("kernel.all.cpu.wait.total", "io_wait", noise=0.5, domain=Domain.CPU)
    add("kernel.all.cpu.irq.total", "interrupts", gain=0.0004, noise=0.1,
        domain=Domain.CPU)
    add("kernel.all.cpu.nice", "one", base=0.1, noise=0.05, domain=Domain.CPU,
        nonnegative=True)
    # Steal is driven by the *real* fair-share shortfall on the node:
    # % of cores co-located tenants took from runnable demand this tick.
    add("kernel.all.cpu.steal", "cpu_steal", noise=0.02, domain=Domain.CPU,
        nonnegative=True)
    add("kernel.all.cpu.guest", "one", base=0.0, noise=0.0, domain=Domain.CPU,
        nonnegative=True)
    add("kernel.all.load.1m", "load_avg", noise=0.15)
    add("kernel.all.load.5m", "load_avg", gain=0.9, noise=0.1)
    add("kernel.all.load.15m", "load_avg", gain=0.8, noise=0.08)

    # --- kernel.all.* ---------------------------------------------------
    add("kernel.all.pswitch", "pswitch", noise=180.0, counter=True)
    add("kernel.all.intr", "interrupts", noise=120.0, counter=True)
    add("kernel.all.nprocs", "nprocs", noise=1.0)
    add("kernel.all.nusers", "one", base=3.0, noise=0.0)
    add("kernel.all.runnable", "load_avg", gain=1.1, noise=0.4)
    add("kernel.all.blocked", "disk_aveq", gain=0.5, noise=0.3)
    add("kernel.all.sysfork", "pswitch", gain=0.002, noise=1.0, counter=True)
    add("kernel.all.syscall", "pswitch", gain=18.0, noise=4000.0, counter=True)
    add("kernel.all.uptime", "one", base=86400.0, counter=True)

    # --- per-CPU splits (48-core catalog; smaller hosts report zeros) ---
    for cpu in range(48):
        spread = 1.0 + 0.25 * np.sin(cpu)  # cores are not perfectly balanced
        for field, channel, gain, noise in [
            ("user", "cpu_util", 0.68 * spread, 2.0),
            ("sys", "cpu_util", 0.22 * spread, 1.2),
            ("idle", "cpu_util", spread, 2.0),
            ("wait", "io_wait", spread, 1.0),
            ("irq", "interrupts", 0.0002 * spread, 0.1),
            ("nice", "one", 0.0, 0.05),
        ]:
            transform = "complement100" if field == "idle" else "identity"
            add(
                f"kernel.percpu.cpu.{field}.cpu{cpu}",
                channel,
                gain=gain,
                noise=noise,
                transform=transform,
                domain=Domain.CPU,
                nonnegative=field == "nice",
            )

    # --- memory ----------------------------------------------------------
    add("mem.util.used_pct", "mem_util", utilization=True, noise=0.4,
        domain=Domain.MEMORY)
    for field, channel, gain, base, noise in [
        ("used", "mem_used_log", 1.0, 0.0, 0.05),
        ("free", "mem_util", -0.01, 1.2, 0.02),
        ("available", "mem_util", -0.009, 1.1, 0.02),
        ("bufmem", "one", 0.0, 18.0, 0.3),
        ("cached", "mem_used_log", 0.8, 2.0, 0.1),
        ("dirty", "disk_util", 0.05, 0.5, 0.2),
        ("writeback", "disk_util", 0.02, 0.1, 0.1),
        ("slab", "nprocs", 0.002, 1.0, 0.05),
        ("swapCached", "page_in", 0.0005, 0.1, 0.05),
        ("swapTotal", "one", 0.0, 8e6, 0.0),
        ("swapFree", "page_in", -0.01, 8e6, 50.0),
        ("active", "mem_used_log", 0.7, 1.0, 0.1),
        ("inactive", "mem_used_log", 0.3, 1.5, 0.1),
        ("committed_AS", "mem_used_log", 1.2, 3.0, 0.1),
        ("mapped", "nprocs", 0.01, 2.0, 0.1),
        ("shmem", "one", 0.0, 4.0, 0.1),
        ("kernelStack", "nprocs", 0.004, 0.5, 0.02),
        ("pageTables", "nprocs", 0.006, 0.8, 0.03),
        ("vmallocUsed", "one", 0.0, 6.0, 0.05),
    ]:
        add(f"mem.util.{field}", channel, gain=gain, base=base, noise=noise,
            bytes_like=field in ("used", "cached", "active", "inactive",
                                 "committed_AS"),
            domain=Domain.MEMORY)

    # --- mem.vmstat.* ------------------------------------------------------
    vmstat_drivers = {
        "nr_inactive_anon": ("mem_util", 40.0, 120.0, 25.0),
        "nr_active_anon": ("mem_util", 60.0, 300.0, 30.0),
        "nr_inactive_file": ("page_in", 0.8, 900.0, 40.0),
        "nr_active_file": ("mem_util", 25.0, 600.0, 30.0),
        "nr_kernel_stack": ("nprocs", 2.0, 50.0, 4.0),
        "nr_mapped": ("nprocs", 8.0, 400.0, 20.0),
        "nr_dirty": ("disk_util", 6.0, 40.0, 8.0),
        "nr_writeback": ("disk_util", 2.0, 5.0, 3.0),
        "pgpgin": ("page_in", 1.0, 10.0, 15.0),
        "pgpgout": ("disk_util", 120.0, 30.0, 25.0),
        "pswpin": ("page_in", 0.2, 0.0, 2.0),
        "pswpout": ("page_in", 0.1, 0.0, 1.0),
        "pgfault": ("pswitch", 0.8, 500.0, 200.0),
        "pgmajfault": ("page_in", 0.05, 0.5, 1.0),
        "pgfree": ("pswitch", 1.2, 800.0, 250.0),
        "pgactivate": ("mem_util", 30.0, 100.0, 40.0),
        "allocstall": ("page_in", 0.02, 0.0, 0.5),
        "workingset_refault": ("page_in", 0.3, 0.0, 5.0),
    }
    counter_vmstat = {
        "pgpgin", "pgpgout", "pswpin", "pswpout", "pgfault", "pgmajfault",
        "pgfree", "pgactivate", "allocstall", "workingset_refault",
    }
    for field in _VMSTAT_FIELDS:
        if field in vmstat_drivers:
            channel, gain, base, noise = vmstat_drivers[field]
            add(f"mem.vmstat.{field}", channel, gain=gain, base=base,
                noise=noise, counter=field in counter_vmstat,
                domain=Domain.MEMORY)
        else:
            add(f"mem.vmstat.{field}", "one", gain=0.0, base=50.0, noise=6.0,
                domain=Domain.MEMORY)

    # --- mem.numa.* --------------------------------------------------------
    for numa_node in range(2):
        for field in ("alloc_hit", "alloc_miss", "alloc_foreign",
                      "alloc_interleave_hit", "alloc_local_node",
                      "alloc_other_node"):
            add(f"mem.numa.{field}.node{numa_node}", "pswitch",
                gain=0.3 if "hit" in field or "local" in field else 0.001,
                base=10.0, noise=30.0, counter=True, domain=Domain.MEMORY)

    # --- TCP / network ------------------------------------------------------
    add("network.tcp.currestab", "tcp_established", noise=1.5)
    for field, gain, noise, counter in [
        ("activeopens", 0.4, 3.0, True), ("passiveopens", 0.5, 3.0, True),
        ("attemptfails", 0.002, 0.3, True), ("estabresets", 0.004, 0.3, True),
        ("insegs", 30.0, 60.0, True), ("outsegs", 32.0, 60.0, True),
        ("retranssegs", 0.02, 0.6, True), ("inerrs", 0.0005, 0.05, True),
        ("outrsts", 0.003, 0.2, True), ("timeouts", 0.005, 0.2, True),
        ("delayedacks", 6.0, 10.0, True), ("listendrops", 0.001, 0.05, True),
        ("synretrans", 0.002, 0.1, True), ("fastretrans", 0.004, 0.2, True),
        ("slowstartretrans", 0.002, 0.1, True),
    ]:
        add(f"network.tcp.{field}", "tcp_established", gain=gain, noise=noise,
            counter=counter)
    for field, gain in [("rtoalgorithm", 0.0), ("rtomin", 0.0), ("rtomax", 0.0),
                        ("maxconn", 0.0)]:
        add(f"network.tcp.{field}", "one", gain=gain, base=200.0)
    for state_name, gain, base in [
        ("established", 1.0, 0.0), ("syn_sent", 0.01, 0.2),
        ("syn_recv", 0.015, 0.3), ("fin_wait1", 0.01, 0.2),
        ("fin_wait2", 0.01, 0.2), ("time_wait", 0.4, 5.0),
        ("close", 0.005, 0.1), ("close_wait", 0.01, 0.2),
        ("last_ack", 0.005, 0.1), ("listen", 0.0, 12.0),
        ("closing", 0.002, 0.05),
    ]:
        add(f"network.tcpconn.{state_name}", "tcp_established", gain=gain,
            base=base, noise=max(0.3, gain))
    for field, gain, base in [
        ("tcp.inuse", 1.05, 8.0), ("tcp.orphan", 0.01, 0.2),
        ("tcp.tw", 0.4, 5.0), ("tcp.alloc", 1.2, 10.0), ("tcp.mem", 0.3, 4.0),
        ("udp.inuse", 0.0, 4.0), ("udp.mem", 0.0, 1.0),
        ("raw.inuse", 0.0, 0.0), ("frag.inuse", 0.0, 0.0),
        ("frag.memory", 0.0, 0.0),
    ]:
        add(f"network.sockstat.{field}", "tcp_established", gain=gain,
            base=base, noise=1.0 if gain else 0.2)
    for field in ("indatagrams", "outdatagrams", "noports", "inerrors",
                  "recvbuferrors", "sndbuferrors"):
        add(f"network.udp.{field}", "one", base=2.0, noise=0.5, counter=True)
    for field in ("inmsgs", "outmsgs", "inerrors", "indestunreachs",
                  "outdestunreachs"):
        add(f"network.icmp.{field}", "one", base=0.5, noise=0.2, counter=True)
    for field, gain in [
        ("inreceives", 32.0), ("outrequests", 33.0), ("indelivers", 31.0),
        ("forwdatagrams", 0.0), ("indiscards", 0.001), ("outdiscards", 0.001),
        ("inhdrerrors", 0.0005), ("fragoks", 0.01), ("fragfails", 0.0),
        ("reasmoks", 0.01),
    ]:
        add(f"network.ip.{field}", "net_packets", gain=gain / 32.0, noise=20.0,
            counter=True)
    for iface, share in [("eth0", 0.96), ("eth1", 0.01), ("lo", 0.25),
                         ("docker0", 0.7)]:
        for direction in ("in", "out"):
            add(f"network.interface.{direction}.bytes.{iface}", "net_util",
                gain=share * 1.25e7, noise=1e4, counter=True, bytes_like=True)
            add(f"network.interface.{direction}.packets.{iface}",
                "net_packets", gain=share, noise=40.0, counter=True)
            add(f"network.interface.{direction}.errors.{iface}", "one",
                base=0.0, noise=0.02, counter=True)
            add(f"network.interface.{direction}.drops.{iface}", "net_util",
                gain=0.001 * share, noise=0.05, counter=True)

    # --- disk ----------------------------------------------------------------
    add("disk.all.aveq", "disk_aveq", noise=0.6)
    for field, channel, gain, noise, counter, is_bytes in [
        ("read", "disk_util", 8.0, 4.0, True, False),
        ("write", "disk_util", 12.0, 5.0, True, False),
        ("total", "disk_util", 20.0, 8.0, True, False),
        ("read_bytes", "page_in", 1000.0, 2e4, True, True),
        ("write_bytes", "disk_util", 4e6, 3e4, True, True),
        ("total_bytes", "disk_util", 5e6, 5e4, True, True),
        ("avactive", "disk_util", 9.0, 1.5, False, False),
        ("read_merge", "disk_util", 1.0, 0.8, True, False),
        ("write_merge", "disk_util", 2.0, 1.0, True, False),
        ("blkread", "page_in", 2.0, 30.0, True, False),
        ("blkwrite", "disk_util", 8000.0, 60.0, True, False),
    ]:
        add(f"disk.all.{field}", channel, gain=gain, noise=noise,
            counter=counter, bytes_like=is_bytes)
    for dev, share in [("sda", 0.85), ("sdb", 0.1), ("sdc", 0.03),
                       ("sdd", 0.02)]:
        for field, channel, gain in [
            ("read", "page_in", 2.0 * share),
            ("write", "disk_util", 12.0 * share),
            ("read_bytes", "page_in", 1000.0 * share),
            ("write_bytes", "disk_util", 4e6 * share),
            ("avactive", "disk_util", 9.0 * share),
            ("aveq", "disk_aveq", share),
            ("total", "disk_util", 20.0 * share),
        ]:
            add(f"disk.dev.{field}.{dev}", channel, gain=gain,
                noise=max(0.3, gain * 0.05),
                counter=field not in ("avactive", "aveq"),
                bytes_like="bytes" in field)

    # --- vfs / filesystems ------------------------------------------------
    add("vfs.files.count", "nprocs", gain=18.0, base=2000.0, noise=40.0)
    add("vfs.files.free", "nprocs", gain=-6.0, base=8000.0, noise=30.0)
    add("vfs.files.max", "one", base=3.2e6)
    add("vfs.inodes.count", "nprocs", gain=9.0, base=1.5e5, noise=100.0)
    add("vfs.inodes.free", "nprocs", gain=-9.0, base=4.2e5, noise=120.0)
    add("vfs.dentry.count", "nprocs", gain=30.0, base=3e5, noise=300.0)
    for mount in ("root", "var", "data", "docker"):
        for field, gain, base in [
            ("capacity", 0.0, 4.5e8), ("used", 0.02, 1.1e8),
            ("free", -0.02, 3.4e8), ("avail", -0.02, 3.2e8),
            ("full", 0.01, 24.0), ("usedfiles", 0.0, 8e5),
            ("freefiles", 0.0, 2.4e7),
        ]:
            add(f"filesys.{field}.{mount}", "disk_util", gain=gain * 1e6 if abs(gain) > 0 else 0.0,
                base=base, noise=base * 1e-5,
                domain=Domain.FILESYSTEM)

    # --- swap / hinv / proc -------------------------------------------------
    for field, channel, gain in [
        ("pagesin", "page_in", 0.25), ("pagesout", "page_in", 0.1),
        ("in", "page_in", 0.25), ("out", "page_in", 0.1),
        ("free", "page_in", -2.0), ("used", "page_in", 2.0),
        ("length", "one", 0.0),
    ]:
        add(f"swap.{field}", channel, gain=gain, base=8e6 if field in ("free", "length") else 0.0,
            noise=1.0, counter=field in ("pagesin", "pagesout", "in", "out"),
            domain=Domain.MEMORY)
    add("hinv.ncpu", "one", base=48.0, domain=Domain.CPU)
    add("hinv.ndisk", "one", base=4.0, domain=Domain.DISK)
    add("hinv.ninterface", "one", base=4.0, domain=Domain.NETWORK)
    add("hinv.nnode", "one", base=2.0)
    add("hinv.physmem", "one", base=128000.0, domain=Domain.MEMORY)
    add("hinv.pagesize", "one", base=4096.0, domain=Domain.MEMORY)
    add("hinv.nfilesys", "one", base=4.0, domain=Domain.FILESYSTEM)
    for field, channel, gain, base in [
        ("runnable", "load_avg", 1.0, 1.0), ("blocked", "disk_aveq", 0.5, 0.0),
        ("sleeping", "nprocs", 0.9, 0.0), ("defunct", "one", 0.0, 0.0),
        ("stopped", "one", 0.0, 0.0), ("kernel", "one", 0.0, 90.0),
    ]:
        add(f"proc.runq.{field}", channel, gain=gain, base=base, noise=0.5)

    # --- memory-bandwidth proxy (perf-event style) ---------------------------
    add("perfevent.hwcounters.mem_load.value", "membw_util", gain=1e7,
        noise=5e4, counter=True, domain=Domain.MEMORY)
    add("perfevent.hwcounters.mem_store.value", "membw_util", gain=4e6,
        noise=2e4, counter=True, domain=Domain.MEMORY)
    add("perfevent.hwcounters.llc_misses.value", "membw_util", gain=2e6,
        noise=2e4, counter=True, domain=Domain.MEMORY)

    # --- slab caches: the realistic filler family ----------------------------
    remaining = N_HOST_METRICS - len(specs)
    if remaining < 0:
        raise AssertionError(
            f"Host catalog overflow: {len(specs)} > {N_HOST_METRICS}."
        )
    fields = ("objects", "active", "size", "objsize", "pages_per_slab",
              "num_slabs")
    produced = 0
    for cache in _SLAB_CACHES:
        for fld in fields:
            if produced >= remaining:
                break
            coupled = cache in ("tcp_sock", "skbuff_head_cache", "filp",
                                "sock_inode_cache", "UNIX")
            add(
                f"mem.slabinfo.{fld}.{cache}",
                "tcp_established" if coupled else "one",
                gain=2.0 if coupled else 0.0,
                base=300.0,
                noise=12.0,
                domain=Domain.MEMORY,
            )
            produced += 1
    if len(specs) != N_HOST_METRICS:
        raise AssertionError(
            f"Host catalog has {len(specs)} metrics, expected {N_HOST_METRICS}; "
            "extend the slab filler list."
        )
    return specs


def _container_specs() -> list[MetricSpec]:
    C = CONTAINER_CHANNELS
    specs: list[MetricSpec] = []

    def add(name, channel, **kw):
        specs.append(
            MetricSpec(name=name, scope=Scope.CONTAINER, channel=C[channel], **kw)
        )

    # Derived relative utilizations (Table 4 naming).
    add("C-CPU-U", "cpu_rel_util", utilization=True, noise=0.8, domain=Domain.CPU)
    add("C-CPU-HOST-U", "cpu_host_util", noise=0.5, domain=Domain.CPU)
    add("C-MEM-U-usage", "mem_limit_util", utilization=True, noise=0.4,
        domain=Domain.MEMORY)
    for field, gain, base in [
        ("mapped", 0.25, 2.0), ("active_file", 0.3, 4.0),
        ("inactive_file", 0.2, 6.0), ("cache", 0.45, 8.0),
        ("rss", 0.55, 10.0), ("swap", 0.02, 0.0), ("kernel_stack", 0.01, 0.5),
    ]:
        add(f"S-MEM-U-{field}", "mem_limit_util", gain=gain, base=base,
            noise=0.5, domain=Domain.MEMORY)

    # cgroup CPU accounting.
    add("cgroup.cpuacct.usage", "cpu_host_util", gain=4.8e8, noise=1e6,
        counter=True, domain=Domain.CPU)
    add("cgroup.cpuacct.usage_user", "cpu_host_util", gain=3.6e8, noise=8e5,
        counter=True, domain=Domain.CPU)
    add("cgroup.cpuacct.usage_sys", "cpu_host_util", gain=1.2e8, noise=4e5,
        counter=True, domain=Domain.CPU)
    add("cgroup.cpuacct.stat.user", "cpu_host_util", gain=36.0, noise=1.0,
        counter=True, domain=Domain.CPU)
    add("cgroup.cpuacct.stat.system", "cpu_host_util", gain=12.0, noise=0.5,
        counter=True, domain=Domain.CPU)
    add("cgroup.cpusched.periods", "periods", counter=True, domain=Domain.CPU)
    add("cgroup.cpusched.throttled", "throttled", counter=True, domain=Domain.CPU)
    add("cgroup.cpusched.throttled_time", "throttled", gain=1e7, noise=1e5,
        counter=True, domain=Domain.CPU)
    add("cgroup.cpu.shares", "one", base=1024.0, domain=Domain.CPU)
    add("cgroup.cpu.cfs_period_us", "one", base=100000.0, domain=Domain.CPU)
    add("cgroup.cpu.cfs_quota_us", "one", base=0.0, domain=Domain.CPU)

    # cgroup memory accounting.
    for field, channel, gain, base, counter in [
        ("usage", "mem_usage_log", 1.0, 0.0, False),
        ("max_usage", "mem_usage_log", 1.02, 0.2, False),
        ("limit", "one", 22.0, 0.0, False),
        ("failcnt", "page_in_log", 0.05, 0.0, True),
        ("cache", "mem_usage_log", 0.6, 0.5, False),
        ("rss", "mem_usage_log", 0.8, 0.3, False),
        ("rss_huge", "one", 0.0, 2.0, False),
        ("mapped_file", "mem_usage_log", 0.3, 0.4, False),
        ("swap", "page_in_log", 0.2, 0.0, False),
        ("pgpgin", "page_in_log", 1.0, 1.0, True),
        ("pgpgout", "mem_usage_log", 0.2, 1.0, True),
        ("pgfault", "connections", 12.0, 100.0, True),
        ("pgmajfault", "page_in_log", 0.4, 0.0, True),
        ("active_anon", "mem_usage_log", 0.75, 0.2, False),
        ("inactive_anon", "mem_usage_log", 0.15, 0.4, False),
        ("active_file", "mem_usage_log", 0.4, 0.6, False),
        ("inactive_file", "page_in_log", 0.5, 2.0, False),
        ("unevictable", "one", 0.0, 0.0, False),
        ("writeback", "disk_write_log", 0.2, 0.0, False),
        ("dirty", "disk_write_log", 0.3, 0.2, False),
    ]:
        add(f"cgroup.memory.{field}", channel, gain=gain, base=base,
            noise=0.3, counter=counter, domain=Domain.MEMORY,
            bytes_like=field in ("usage", "max_usage", "cache", "rss"))

    # cgroup block IO.
    for field, channel, gain, counter in [
        ("read_bytes", "disk_read_log", 1.0, True),
        ("write_bytes", "disk_write_log", 1.0, True),
        ("reads", "disk_read_log", 0.3, True),
        ("writes", "disk_write_log", 0.3, True),
        ("time", "disk_read_log", 0.5, True),
        ("sectors", "disk_read_log", 0.8, True),
        ("queued", "disk_read_log", 0.2, False),
        ("merged", "disk_write_log", 0.1, True),
        ("wait_time", "disk_read_log", 0.6, True),
        ("service_time", "disk_read_log", 0.4, True),
    ]:
        add(f"cgroup.blkio.{field}", channel, gain=gain, noise=0.3,
            counter=counter, domain=Domain.DISK)

    # Per-container network (docker stats style).
    for field, channel, gain, counter in [
        ("rx_bytes", "rx_log", 1.0, True), ("tx_bytes", "tx_log", 1.0, True),
        ("rx_packets", "rx_log", 0.4, True), ("tx_packets", "tx_log", 0.4, True),
        ("rx_errors", "one", 0.0, True), ("tx_errors", "one", 0.0, True),
        ("rx_dropped", "one", 0.0, True), ("tx_dropped", "one", 0.0, True),
    ]:
        add(f"container.network.{field}", channel, gain=gain,
            noise=0.2 if gain else 0.02, counter=counter,
            domain=Domain.NETWORK, bytes_like="bytes" in field)

    # Container process stats.
    add("container.nprocs", "processes", noise=0.3)
    add("container.nthreads", "processes", gain=8.0, noise=1.0)
    add("container.fds", "connections", gain=3.0, base=32.0, noise=2.0)
    add("container.sockets", "connections", gain=1.1, base=4.0, noise=1.0)
    add("container.tcpconns", "connections", noise=0.8, domain=Domain.NETWORK)

    # Pad with per-CPU cpuacct splits up to the container metric budget.
    remaining = N_CONTAINER_METRICS - len(specs)
    if remaining < 0:
        raise AssertionError(
            f"Container catalog overflow: {len(specs)} > {N_CONTAINER_METRICS}."
        )
    for cpu in range(remaining):
        add(f"cgroup.cpuacct.percpu.cpu{cpu}", "cpu_host_util",
            gain=1e7 * (1.0 + 0.2 * np.sin(cpu)), noise=5e4, counter=True,
            domain=Domain.CPU)
    if len(specs) != N_CONTAINER_METRICS:
        raise AssertionError(
            f"Container catalog has {len(specs)}, expected {N_CONTAINER_METRICS}."
        )
    return specs


_DEFAULT: MetricCatalog | None = None


def default_catalog() -> MetricCatalog:
    """The standard 952 + 88 catalog (cached; it is immutable)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MetricCatalog(host=_host_specs(), container=_container_specs())
    return _DEFAULT
