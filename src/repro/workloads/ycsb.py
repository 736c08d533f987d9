"""YCSB core workload mixes (Cooper et al., 2010).

The paper drives Cassandra with four YCSB core workloads (Table 1):

- **A** update-heavy: 50% reads / 50% updates;
- **B** read-heavy: 95% reads / 5% updates;
- **D** read-latest: 95% reads / 5% inserts, reading recent records;
- **F** read-modify-write: every operation reads then writes.

A mix determines how an operation rate translates into resource
demands: reads hit the (page-cached or on-disk) dataset, writes hit
the commit log and memtables, and read-modify-write doubles per-op
work.  The service model in :mod:`repro.apps.cassandra` consumes these
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.patterns import constant

__all__ = ["YcsbMix", "YCSB_MIXES", "YcsbWorkload"]


@dataclass(frozen=True)
class YcsbMix:
    """Operation mix of one YCSB core workload."""

    name: str
    read_fraction: float
    write_fraction: float
    read_modify_write: bool = False
    read_latest: bool = False  # workload D touches a hot recent set

    def __post_init__(self):
        total = self.read_fraction + self.write_fraction
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"Mix fractions must sum to 1, got {total}.")

    @property
    def work_multiplier(self) -> float:
        """Per-operation work relative to a plain read.

        Writes cost ~1.4x a read in Cassandra (commit log + memtable);
        read-modify-write performs both.
        """
        write_cost = 1.4
        if self.read_modify_write:
            return 1.0 + write_cost
        return self.read_fraction + write_cost * self.write_fraction

    @property
    def cache_hit_bonus(self) -> float:
        """Fraction of reads served from a hot set regardless of limits.

        Workload D reads "the most recent" records, which stay in page
        cache even under memory pressure.
        """
        return 0.8 if self.read_latest else 0.0


YCSB_MIXES: dict[str, YcsbMix] = {
    "A": YcsbMix(name="A", read_fraction=0.5, write_fraction=0.5),
    "B": YcsbMix(name="B", read_fraction=0.95, write_fraction=0.05),
    "D": YcsbMix(name="D", read_fraction=0.95, write_fraction=0.05, read_latest=True),
    "F": YcsbMix(
        name="F", read_fraction=0.5, write_fraction=0.5, read_modify_write=True
    ),
}


@dataclass
class YcsbWorkload:
    """A YCSB run: a mix plus a target-throughput shape.

    ``rate_range=(low, high)`` reproduces the Table-1 notation
    ``A: 30K-100K R/s``: the run sweeps constant target loads across
    the range (YCSB applies constant target throughput per run; the
    paper varies it across runs, which we compress into one sweep).
    """

    mix: YcsbMix
    duration: int
    rate_range: tuple[float, float]
    sweep: bool = True

    def generate(self) -> np.ndarray:
        low, high = self.rate_range
        if low <= 0 or high < low:
            raise ValueError("rate_range must satisfy 0 < low <= high.")
        if not self.sweep or low == high:
            return constant(self.duration, (low + high) / 2.0)
        # Stepwise sweep of constant plateaus, like consecutive YCSB runs.
        n_levels = min(8, max(2, self.duration // 60))
        levels = np.linspace(low, high, n_levels)
        plateau = self.duration // n_levels
        pieces = [constant(plateau, level) for level in levels]
        series = np.concatenate(pieces)
        if series.size < self.duration:  # remainder at the top level
            series = np.concatenate(
                [series, constant(self.duration - series.size, levels[-1])]
            )
        return series
