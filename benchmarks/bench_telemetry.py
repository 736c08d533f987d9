"""Batched telemetry synthesis vs the per-stream reference.

Isolates the fleet's metric-synthesis layer: the struct-of-arrays
kernel in ``FleetTelemetryStream`` (one ``(rows x 1040)`` pass per
tick when every column is delivered, host drivers computed once per
``(namespace, node)`` group and scattered to member rows) against the
per-container reference streams of ``tests/serving_reference.py`` (the
loop it replaced), and records the contract to ``BENCH_telemetry.json``
at the repository root:

- **correctness** (always asserted): every batched row of every tick
  is *bitwise identical* to the corresponding reference stream's
  ``emit()`` -- same driver arithmetic, same per-stream Gaussian draw
  order, same counter->rate recurrences;
- **throughput** (enforced only on >= 4-core hosts, the
  ``BENCH_parallel``/``BENCH_fleet`` gating convention): the batched
  kernel synthesizes rows >= 3x faster than the per-stream loop.

It also times the kernel delivering a fixed 81-column subset (every
13th host and every 10th container column: 72 + 9, the split of the
serving model's column plan) and asserts that subset equals the
full-width rows at those columns; its rows/s are recorded next to the
full width's.

The batched side reads the *frame source*, as a fleet shard does: the
cells are stepped through one ``Lockstep``, and after each step one
``advance_round(lockstep.frame)`` emits every row from the tick's field
matrix.  Only telemetry is timed -- stream registration, the rounds
and copying their rows out, not the steps.  The reference streams then
replay the recorded histories of the same cells, timed end to end
including their registration: the reference opens one stream object
per container; the batched path seeds one RNG per stream but shares
all driver math per group.  ``BENCH_telemetry.json`` records the timed
source as ``batched_source``.

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

from repro.cluster.simulation import Lockstep
from repro.fleet.orchestrator import (
    build_cell,
    default_fleet_workloads,
    make_fleet_specs,
)
from repro.fleet.telemetry import FleetTelemetryStream
from repro.parallel.jobs import available_cores
from repro.telemetry.catalog import default_catalog
from tests.serving_reference import open_reference_stream

from conftest import SEED

N_CELLS = int(os.environ.get("MONITORLESS_BENCH_TELEMETRY_CELLS", "60"))
TICKS = int(os.environ.get("MONITORLESS_BENCH_TELEMETRY_TICKS", "8"))
MIN_SPEEDUP = 3.0
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


def _build_cells():
    """``N_CELLS`` fresh cells and their ``(N_CELLS, TICKS)`` rates."""
    specs = make_fleet_specs(N_CELLS, base_seed=SEED)
    workloads = default_fleet_workloads(N_CELLS, TICKS, seed=SEED)
    return [build_cell(spec) for spec in specs], workloads


def _registry(cells):
    """One ``(namespace, agent, container, nodes)`` entry per row."""
    return [
        (cell.namespace, cell.agent, instance.container, cell.simulation.nodes)
        for cell in cells
        for replicas in cell.simulation.deployments[
            cell.application
        ].instances.values()
        for instance in replicas
    ]


def _subset_columns(catalog):
    """The fixed 81-column subset: 72 host and 9 container columns."""
    return np.concatenate([
        np.arange(0, catalog.n_host, 13)[:72],
        catalog.n_host + np.arange(0, catalog.n_container, 10)[:9],
    ])


def _run_batched(columns):
    """The frame source over fresh cells: ``(rows, telemetry seconds,
    registry)``, the cells stepped to ``TICKS``."""
    cells, workloads = _build_cells()
    lockstep = Lockstep([cell.simulation for cell in cells])
    registry = _registry(cells)
    catalog = registry[0][1].catalog
    n_rows = len(registry)
    started = time.perf_counter()
    fleet = FleetTelemetryStream(catalog, columns, capacity=n_rows)
    for row, (namespace, agent, container, nodes) in enumerate(registry):
        fleet.add_row(row, namespace, agent, container, nodes)
    seconds = time.perf_counter() - started
    out = np.empty((TICKS, n_rows, columns.size))
    for t in range(TICKS):
        lockstep.step([
            {cell.application: float(rate)}
            for cell, rate in zip(cells, workloads[:, t])
        ])
        started = time.perf_counter()
        fleet.begin_tick()
        emitted = fleet.advance_round(lockstep.frame)  # one tick per round
        out[t] = fleet.raw[:n_rows]
        seconds += time.perf_counter() - started
        assert emitted.size == n_rows
    return out, seconds, registry


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
    catalog = default_catalog()
    every = np.arange(catalog.n_metrics)
    subset = _subset_columns(catalog)

    # Warm-up (first-touch caches, spec-array construction), then one
    # timed pass each; the parity asserts run on the timed outputs.
    _run_batched(every)
    batched, batched_s, registry = _run_batched(every)
    _run_batched(subset)
    narrow, subset_s, _ = _run_batched(subset)
    n_rows = len(registry)
    total_rows = n_rows * TICKS

    _run_reference(registry)
    started = time.perf_counter()
    reference = _run_reference(registry)
    reference_s = time.perf_counter() - started

    assert np.array_equal(batched, reference), (
        "batched synthesis diverged from the per-stream reference"
    )
    assert np.array_equal(narrow, batched[:, :, subset]), (
        "the 81-column subset diverged from the full-width rows"
    )

    batched_rows_per_s = total_rows / batched_s
    subset_rows_per_s = total_rows / subset_s
    reference_rows_per_s = total_rows / reference_s
    speedup = reference_s / batched_s

    rows = [
        {"quantity": "batched_source", "value": "frame"},
        {"quantity": "containers", "value": n_rows},
        {"quantity": "ticks", "value": TICKS},
        {"quantity": "metric_rows", "value": total_rows},
        {"quantity": "batched_s", "value": round(batched_s, 3)},
        {"quantity": "reference_s", "value": round(reference_s, 3)},
        {"quantity": "batched_rows_per_s", "value": round(batched_rows_per_s)},
        {"quantity": "subset_s", "value": round(subset_s, 3)},
        {"quantity": "subset_rows_per_s", "value": round(subset_rows_per_s)},
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
        "metrics_per_row": catalog.n_metrics,
        "batched_source": "frame",
        "batched_seconds": round(batched_s, 4),
        "reference_seconds": round(reference_s, 4),
        "batched_rows_per_second": round(batched_rows_per_s, 1),
        "subset_metrics_per_row": int(subset.size),
        "subset_seconds": round(subset_s, 4),
        "subset_rows_per_second": round(subset_rows_per_s, 1),
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
