"""Batched telemetry synthesis vs the per-stream reference.

Isolates the fleet's metric-synthesis layer: the struct-of-arrays
kernel in ``FleetTelemetryStream`` (one ``(rows x 1040)`` pass per
tick, host drivers computed once per ``(namespace, node)`` group and
broadcast to member rows) against the per-container reference streams
of ``tests/serving_reference.py`` (the loop it replaced), and records
the contract to ``BENCH_telemetry.json`` at the repository root:

- **correctness** (always asserted): every batched row of every tick
  is *bitwise identical* to the corresponding reference stream's
  ``emit()`` -- same driver arithmetic, same per-stream Gaussian draw
  order, same counter->rate recurrences;
- **throughput** (enforced only on >= 4-core hosts, the
  ``BENCH_parallel``/``BENCH_fleet`` gating convention): the batched
  kernel synthesizes rows >= 3x faster than the per-stream loop.

Both sides are timed end to end including stream registration, so the
comparison covers what the fleet loop actually pays: the reference
opens one stream object per container; the batched path seeds one RNG
per stream but shares all driver math per group.

Environment knobs:

- ``MONITORLESS_BENCH_TELEMETRY_CELLS``  cells (7 containers each;
  default 60 -> 420 containers)
- ``MONITORLESS_BENCH_TELEMETRY_TICKS``  synthesized ticks (default 8)
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.fleet.orchestrator import (
    build_cell,
    default_fleet_workloads,
    make_fleet_specs,
)
from repro.fleet.telemetry import FleetTelemetryStream
from repro.parallel.jobs import available_cores
from tests.serving_reference import open_reference_stream

from conftest import SEED

N_CELLS = int(os.environ.get("MONITORLESS_BENCH_TELEMETRY_CELLS", "60"))
TICKS = int(os.environ.get("MONITORLESS_BENCH_TELEMETRY_TICKS", "8"))
MIN_SPEEDUP = 3.0
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


def _build_registry():
    """Cells with ``TICKS`` of recorded simulation history, flattened
    to one ``(namespace, agent, container, nodes)`` entry per row."""
    specs = make_fleet_specs(N_CELLS, base_seed=SEED)
    workloads = default_fleet_workloads(N_CELLS, TICKS, seed=SEED)
    registry = []
    for row, spec in enumerate(specs):
        cell = build_cell(spec)
        for t in range(TICKS):
            cell.simulation.step({cell.application: float(workloads[row, t])})
        deployment = cell.simulation.deployments[cell.application]
        for replicas in deployment.instances.values():
            for instance in replicas:
                registry.append((
                    spec.namespace,
                    cell.agent,
                    instance.container,
                    cell.simulation.nodes,
                ))
    return registry


def _run_batched(registry):
    catalog = registry[0][1].catalog
    n_rows = len(registry)
    fleet = FleetTelemetryStream(catalog, capacity=n_rows)
    for row, (namespace, agent, container, nodes) in enumerate(registry):
        fleet.add_row(row, namespace, agent, container, nodes)
    out = np.empty((TICKS, n_rows, catalog.n_metrics))
    for t in range(TICKS):
        fleet.begin_tick()
        emitted = fleet.advance_round()  # one recorded tick per round
        assert emitted.size == n_rows
        out[t] = fleet.raw[:n_rows]
    return out


def _run_reference(registry):
    catalog = registry[0][1].catalog
    n_rows = len(registry)
    streams = [
        open_reference_stream(agent, container, nodes)
        for (_namespace, agent, container, nodes) in registry
    ]
    out = np.empty((TICKS, n_rows, catalog.n_metrics))
    for t in range(TICKS):
        for row, stream in enumerate(streams):
            out[t, row] = stream.emit()
    return out


def test_telemetry_synthesis(table_printer):
    cores = available_cores()
    enforce = cores >= 4
    registry = _build_registry()
    n_rows = len(registry)
    total_rows = n_rows * TICKS

    # Warm-up (first-touch caches, spec-array construction), then one
    # timed pass each; the parity assert runs on the timed outputs.
    _run_batched(registry)
    started = time.perf_counter()
    batched = _run_batched(registry)
    batched_s = time.perf_counter() - started

    _run_reference(registry)
    started = time.perf_counter()
    reference = _run_reference(registry)
    reference_s = time.perf_counter() - started

    assert np.array_equal(batched, reference), (
        "batched synthesis diverged from the per-stream reference"
    )

    batched_rows_per_s = total_rows / batched_s
    reference_rows_per_s = total_rows / reference_s
    speedup = reference_s / batched_s

    rows = [
        {"quantity": "containers", "value": n_rows},
        {"quantity": "ticks", "value": TICKS},
        {"quantity": "metric_rows", "value": total_rows},
        {"quantity": "batched_s", "value": round(batched_s, 3)},
        {"quantity": "reference_s", "value": round(reference_s, 3)},
        {"quantity": "batched_rows_per_s", "value": round(batched_rows_per_s)},
        {
            "quantity": "reference_rows_per_s",
            "value": round(reference_rows_per_s),
        },
        {"quantity": "speedup", "value": round(speedup, 2)},
    ]
    table_printer(
        f"Telemetry synthesis ({cores} usable cores)", rows
    )

    record = {
        "cpu_count": cores,
        "seed": SEED,
        "containers": n_rows,
        "cells": N_CELLS,
        "ticks": TICKS,
        "metric_rows": total_rows,
        "metrics_per_row": registry[0][1].catalog.n_metrics,
        "batched_seconds": round(batched_s, 4),
        "reference_seconds": round(reference_s, 4),
        "batched_rows_per_second": round(batched_rows_per_s, 1),
        "reference_rows_per_second": round(reference_rows_per_s, 1),
        "speedup": round(speedup, 3),
        "bitwise_equal": True,
        "floor_speedup": MIN_SPEEDUP,
        "thresholds_enforced": enforce,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if enforce:
        assert speedup >= MIN_SPEEDUP, (
            f"batched synthesis is only {speedup:.2f}x the per-stream "
            f"reference; the floor is {MIN_SPEEDUP}x"
        )
