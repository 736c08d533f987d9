"""Telemetry collection: simulation state -> per-instance metric rows.

Implements the paper's monitoring-agent view: at every tick the agent
on node ``c`` produces the host metric vector ``H_{c,t}``; each
container adds its own vector ``V_{I,t}``; the sample for instance
``I`` is the concatenation ``M_{I,t} = H_{c,t} ++ V_{I,t}``
(1040 columns with the default catalog).

Metric synthesis is deterministic given the agent seed: every node and
container gets its own RNG stream keyed by name, so regenerating a
window yields identical values.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from repro import obs
from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.telemetry import synthesis
from repro.telemetry.catalog import (
    CONTAINER_CHANNELS,
    MetricCatalog,
    default_catalog,
)
from repro.telemetry.rates import counters_to_rates

__all__ = ["TelemetryAgent"]


@lru_cache(maxsize=65536)
def _stream_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class TelemetryAgent:
    """Synthesizes PCP-style metrics from recorded container ticks.

    Parameters
    ----------
    catalog:
        Metric catalog; defaults to the 952+88 standard catalog.
    seed:
        Base seed for the per-node / per-container noise streams.
    convert_counters:
        Apply the counter-to-rate preprocessing (section 3.1) so the
        returned matrices are rate-valued, as the model expects.
    """

    def __init__(
        self,
        catalog: MetricCatalog | None = None,
        seed: int = 0,
        convert_counters: bool = True,
    ):
        self.catalog = catalog or default_catalog()
        self.seed = seed
        self.convert_counters = convert_counters

    # ------------------------------------------------------------------
    # State extraction
    # ------------------------------------------------------------------
    def host_state(self, node: Node, start: int, end: int) -> np.ndarray:
        """Host state matrix (ticks ``start..end-1``, channels).

        Vectorized over the tick axis via
        :mod:`repro.telemetry.synthesis`: the baseline, one additive
        contribution matrix per container (in ``node.containers``
        order, preserving the reference accumulation order), then the
        derived channels -- bitwise equal to the original per-offset
        scalar loop.
        """
        T = end - start
        if T <= 0:
            raise ValueError("end must exceed start.")
        spec = node.spec
        state = synthesis.host_baseline(T, spec.memory_bytes)
        contrib: np.ndarray | None = None
        for container in node.containers:
            fields = synthesis.gather_container_fields(container, start, end)
            contrib = synthesis.host_additive_contributions(
                fields,
                spec.cores,
                spec.memory_bytes,
                spec.disk_bandwidth,
                spec.network_bandwidth,
                spec.memory_bandwidth,
                out=contrib,
            )
            state += contrib
        synthesis.host_derived(
            state, spec.cores, spec.memory_bytes, spec.disk_random_bandwidth
        )
        return state

    def container_state(
        self, container: Container, node: Node, start: int, end: int
    ) -> np.ndarray:
        """Container state matrix for absolute ticks ``start..end-1``."""
        T = end - start
        if T <= 0:
            raise ValueError("end must exceed start.")
        quota = container.cpu_cgroup.quota_cores
        allocation = quota if quota is not None else float(node.spec.cores)
        fields = synthesis.gather_container_fields(container, start, end)
        return synthesis.container_state_from_fields(
            fields, allocation, node.spec.cores
        )

    # ------------------------------------------------------------------
    # Metric synthesis
    # ------------------------------------------------------------------
    def host_metrics(self, node: Node, start: int, end: int) -> np.ndarray:
        """Host metric matrix ``(T, n_host)`` for one node."""
        state = self.host_state(node, start, end)
        rng = np.random.default_rng(_stream_seed(self.seed, f"host:{node.name}:{start}"))
        values = self.catalog.synthesize(self.catalog.host, state, rng)
        if self.convert_counters:
            values = counters_to_rates(
                values, self.catalog.spec_arrays(self.catalog.host).counters
            )
        return values

    def container_metrics(
        self, container: Container, node: Node, start: int, end: int
    ) -> np.ndarray:
        """Container metric matrix ``(T, n_container)``."""
        state = self.container_state(container, node, start, end)
        rng = np.random.default_rng(
            _stream_seed(self.seed, f"container:{container.name}:{start}")
        )
        values = self.catalog.synthesize(self.catalog.container, state, rng)
        if self.convert_counters:
            values = counters_to_rates(
                values, self.catalog.spec_arrays(self.catalog.container).counters
            )
        return values

    def instance_matrix(
        self,
        container: Container,
        nodes: dict[str, Node],
        start: int | None = None,
        end: int | None = None,
    ) -> np.ndarray:
        """Full per-instance sample matrix ``M_{I,t}`` (host ++ container)."""
        if container.node is None:
            raise ValueError(f"Container {container.name} is not placed.")
        node = nodes[container.node]
        if start is None:
            start = container.created_at
        if end is None:
            end = container.created_at + len(container.history)
        with obs.trace("telemetry.instance_matrix"):
            host = self.host_metrics(node, start, end)
            own = self.container_metrics(container, node, start, end)
            matrix = np.hstack([host, own])
        obs.inc("telemetry.rows_synthesized", matrix.shape[0])
        return matrix

    def utilization_series(
        self, container: Container, nodes: dict[str, Node]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(cpu%, mem%) relative-utilization series for one container.

        This is what the static-threshold baselines consume.  The same
        measurement noise that the catalog applies to ``C-CPU-U`` /
        ``C-MEM-U-usage`` is applied here, so the baselines see the
        monitoring system's view rather than the simulator's exact
        state.
        """
        node = nodes[container.node]
        start = container.created_at
        end = start + len(container.history)
        state = self.container_state(container, node, start, end)
        C = CONTAINER_CHANNELS
        rng = np.random.default_rng(
            _stream_seed(self.seed, f"util:{container.name}")
        )
        cpu = state[:, C["cpu_rel_util"]] + rng.normal(0.0, 0.8, end - start)
        mem = state[:, C["mem_limit_util"]] + rng.normal(0.0, 0.4, end - start)
        return np.clip(cpu, 0.0, 100.0), np.clip(mem, 0.0, 100.0)
