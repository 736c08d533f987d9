"""The 25 training-run configurations of the paper's Table 1.

Each run names a service, its cgroup limits, an optional parallel
partner (interference), a traffic pattern and the resource bottleneck
the configuration is meant to exercise.  Traffic ranges follow the
paper; where the simulator's demand calibration needs a per-run CPU
scale to land on the intended bottleneck (the paper achieved the same
by varying query classes and JVM sizing), the ``demand_scale`` field
records it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.cassandra import cassandra_application
from repro.apps.memcache import memcache_application
from repro.apps.solr import solr_application
from repro.cluster.resources import GIB
from repro.cluster.simulation import Placement
from repro.workloads.patterns import constant, sine, sinnoise
from repro.workloads.ycsb import YCSB_MIXES, YcsbWorkload

__all__ = ["RunConfig", "TABLE1_RUNS", "sessions"]


@dataclass(frozen=True)
class RunConfig:
    """One Table-1 row."""

    run_id: int
    service: str  # "solr" | "memcache" | "cassandra"
    cpu_limit: float | None
    mem_limit: float | None  # bytes
    parallel_with: int | None
    traffic: str  # human-readable descriptor, as printed in Table 1
    bottleneck: str  # intended bottleneck, as printed in Table 1
    pattern: str = "sweep"  # sweep | sin | sinnoise | constant
    rate_low: float = 1.0
    rate_high: float = 1000.0
    mix: str | None = None  # YCSB mix for Cassandra
    demand_scale: float = 1.0
    io_heavy: bool = False
    fsync_bound: bool = False

    def application(self):
        """Instantiate this run's application model."""
        if self.service == "solr":
            return solr_application(self.demand_scale)
        if self.service == "memcache":
            return memcache_application(self.demand_scale)
        if self.service == "cassandra":
            return cassandra_application(
                self.mix or "B",
                demand_scale=self.demand_scale,
                io_heavy=self.io_heavy,
                fsync_bound=self.fsync_bound,
            )
        raise ValueError(f"Unknown service {self.service!r}.")

    def placement(self, node: str) -> Placement:
        """One replica on ``node`` under this run's CPU and memory limits."""
        return Placement(
            node=node, cpu_limit=self.cpu_limit, memory_limit=self.mem_limit
        )

    def workload(self, duration: int, seed: int = 0) -> np.ndarray:
        """The run's load series (requests/second)."""
        if self.pattern == "sin":
            return sine(duration, self.rate_low, self.rate_high)
        if self.pattern == "sinnoise":
            return sinnoise(
                duration, self.rate_low, self.rate_high, seed=seed + self.run_id
            )
        if self.pattern == "constant":
            return constant(duration, self.rate_high)
        if self.pattern == "sweep":
            return YcsbWorkload(
                mix=YCSB_MIXES[self.mix] if self.mix else YCSB_MIXES["B"],
                duration=duration,
                rate_range=(self.rate_low, self.rate_high),
            ).generate()
        raise ValueError(f"Unknown pattern {self.pattern!r}.")

    @property
    def label(self) -> str:
        limits = (
            f"{self.cpu_limit or '-'}/"
            f"{f'{self.mem_limit / GIB:.0f}GB' if self.mem_limit else '-'}"
        )
        return f"#{self.run_id} {self.service} {limits} {self.traffic}"


def _solr(run_id, cpu, mem, par, traffic, bottleneck, pattern, scale=1.0):
    return RunConfig(
        run_id=run_id, service="solr", cpu_limit=cpu, mem_limit=mem,
        parallel_with=par, traffic=traffic, bottleneck=bottleneck,
        pattern=pattern, rate_low=1.0, rate_high=1000.0, demand_scale=scale,
    )


def _memc(run_id, cpu, mem, par, low, high, bottleneck, scale=1.0):
    return RunConfig(
        run_id=run_id, service="memcache", cpu_limit=cpu, mem_limit=mem,
        parallel_with=par, traffic=f"{low / 1e3:.0f}K-{high / 1e3:.0f}K R/s",
        bottleneck=bottleneck, pattern="sweep", rate_low=low, rate_high=high,
        demand_scale=scale,
    )


def _cass(run_id, cpu, mem, par, mix, low, high, bottleneck, *, scale=1.0,
          io_heavy=False, fsync=False, pattern="sweep"):
    def fmt(rate):
        return f"{rate / 1e3:.0f}K" if rate >= 1e3 else f"{rate:.0f}"

    return RunConfig(
        run_id=run_id, service="cassandra", cpu_limit=cpu, mem_limit=mem,
        parallel_with=par, traffic=f"{mix}: {fmt(low)}-{fmt(high)} R/s",
        bottleneck=bottleneck, pattern=pattern, rate_low=low, rate_high=high,
        mix=mix, demand_scale=scale, io_heavy=io_heavy, fsync_bound=fsync,
    )


#: The Table-1 inventory.  ``demand_scale`` notes (simulator calibration):
#: runs 3-5 use lighter Solr queries so the 8 GB memory limit (not CPU)
#: binds, matching the paper's IO-Bandwidth label; the 6-core Cassandra
#: runs behave as if per-op CPU cost were roughly halved (smaller JVM),
#: matching the paper's traffic ranges for Container-CPU saturation.
TABLE1_RUNS: list[RunConfig] = [
    _solr(1, 3.0, None, None, "sin1000", "Container-CPU", "sin"),
    _solr(2, None, None, None, "sin1000", "Host-CPU", "sin"),
    _solr(3, None, 8 * GIB, 18, "sinnoise1000", "IO-Bandwidth", "sinnoise", 0.5),
    _solr(4, None, 8 * GIB, 19, "sinnoise1000", "IO-Bandwidth", "sinnoise", 0.5),
    _solr(5, 3.0, 8 * GIB, 20, "sinnoise1000", "IO-Bandwidth", "sinnoise", 0.05),
    _solr(6, 1.5, 8 * GIB, 22, "sinnoise1000", "Container-CPU", "sinnoise"),
    _memc(7, None, None, None, 2e3, 50e3, "Mem-Bandwidth"),
    # Run 8: per-op CPU is higher under the 1-core quota (no batching
    # headroom), so the quota -- not memory bandwidth -- binds.
    _memc(8, 1.0, None, None, 20e3, 85e3, "Container-CPU", scale=1.6),
    _memc(9, None, 8 * GIB, None, 30e3, 52e3, "IO-Queue"),
    _memc(10, None, 4 * GIB, 23, 10e3, 65e3, "IO-Queue"),
    _cass(11, None, None, None, "A", 30e3, 100e3, "Network-Util"),
    _cass(12, None, None, None, "B", 20e3, 70e3, "Host-CPU"),
    _cass(13, None, None, None, "D", 40e3, 90e3, "Network-Util"),
    _cass(14, 20.0, 30 * GIB, None, "A", 300, 1200, "IO-Bandwidth", io_heavy=True),
    _cass(15, 20.0, 30 * GIB, None, "B", 100, 900, "IO-Bandwidth", io_heavy=True),
    _cass(16, 20.0, 30 * GIB, None, "B", 700, 1000, "IO-Bandwidth", io_heavy=True),
    _cass(17, 20.0, 30 * GIB, None, "B", 100, 1000, "IO-Bandwidth", io_heavy=True),
    _cass(18, 6.0, None, 3, "A", 15e3, 25e3, "Container-CPU", scale=0.5),
    _cass(19, 6.0, None, 4, "B", 10e3, 15e3, "Container-CPU", scale=0.55),
    _cass(20, 6.0, None, 5, "D", 10e3, 25e3, "Container-CPU"),
    _cass(21, 6.0, None, None, "A", 5e3, 20e3, "Container-CPU", scale=0.5),
    _cass(22, 6.0, None, 6, "B", 5e3, 20e3, "Container-CPU", scale=0.55),
    _cass(23, 6.0, None, 10, "B", 10e3, 10e3, "Container-CPU",
          scale=0.55, pattern="constant"),
    _cass(24, 1.0, None, None, "F", 200, 200, "IO-Wait", fsync=True,
          pattern="constant"),
    _cass(25, 1.0, None, None, "F", 20, 20, "IO-Wait", fsync=True,
          pattern="constant"),
]

_BY_ID = {run.run_id: run for run in TABLE1_RUNS}


def run_by_id(run_id: int) -> RunConfig:
    """Look up one Table-1 run."""
    return _BY_ID[run_id]


def sessions(runs: list[RunConfig] | None = None) -> list[tuple[RunConfig, ...]]:
    """Group runs into simulation sessions.

    Runs marked as parallel (the ``Par`` column) execute together on
    the training host to produce interference; each pair forms one
    session, every other run executes alone.
    """
    runs = list(TABLE1_RUNS) if runs is None else list(runs)
    by_id = {run.run_id: run for run in runs}
    paired: set[int] = set()
    grouped: list[tuple[RunConfig, ...]] = []
    for run in runs:
        if run.run_id in paired:
            continue
        partner_id = run.parallel_with
        if partner_id is not None and partner_id in by_id and partner_id not in paired:
            grouped.append((run, by_id[partner_id]))
            paired.update({run.run_id, partner_id})
        else:
            grouped.append((run,))
            paired.add(run.run_id)
    return grouped
