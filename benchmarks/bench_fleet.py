"""Fleet-serving benchmark: the vectorized struct-of-arrays path.

Measures the end-to-end fleet loop -- one ``(n_containers x
n_features)`` matrix per tick from telemetry synthesis through one
``predict_proba`` to per-cell autoscaling, sharded over
``parallel_map`` workers -- and records the contract to
``BENCH_fleet.json``:

- **correctness** (always asserted): on a >= 256-container fleet the
  vectorized path's per-tick saturation decisions equal the
  per-container streaming reference chain (``tests/serving_reference.py``)
  container-for-container;
- **resilience** (always asserted): killing a shard's worker mid-run
  leaves the merged result bitwise identical to an uninterrupted run,
  resumed from the shard's last ``REPRO-CKPT`` checkpoint;
- **scale** (enforced only on >= 4-core hosts, as in
  ``bench_parallel.py``): >= 5 000 containers advance at >= 2 fleet
  ticks per second end to end.  The record also carries the per-phase
  loop breakdown (simulate / telemetry / features / predict / policy
  seconds summed over shards) so regressions are attributable.

Environment knobs (defaults target the scale floor):

- ``MONITORLESS_BENCH_FLEET_CELLS``  cells in the scale run (default
  715; 7 containers each -> 5 005 containers)
- ``MONITORLESS_BENCH_FLEET_TICKS``  ticks in the scale run (default 6)
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.model import MonitorlessModel
from repro.datasets.configs import run_by_id
from repro.datasets.generate import build_training_corpus
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    FleetShardRunner,
    build_cell,
    default_fleet_workloads,
    make_fleet_specs,
)
from repro.parallel.jobs import available_cores
from tests.serving_reference import ReferenceMonitorlessPolicy

from conftest import SEED

SCALE_CELLS = int(os.environ.get("MONITORLESS_BENCH_FLEET_CELLS", "715"))
SCALE_TICKS = int(os.environ.get("MONITORLESS_BENCH_FLEET_TICKS", "6"))
CROSS_CHECK_CELLS = 37  # 7 containers each -> 259 >= the 256 floor
CROSS_CHECK_TICKS = 12
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"


@pytest.fixture(scope="module")
def small_model():
    """Same quick-to-train model as ``bench_chaos.py``."""
    runs = [run_by_id(i) for i in (1, 2, 7, 9, 12, 24)]
    corpus = build_training_corpus(
        duration=80, calibration_duration=100, seed=3, runs=runs
    )
    model = MonitorlessModel(
        classifier_params={"n_estimators": 15}, random_state=SEED
    )
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    return model


def _cross_check(model) -> dict:
    """Fleet decisions vs the per-container reference, >= 256 containers."""
    specs = make_fleet_specs(CROSS_CHECK_CELLS, base_seed=SEED)
    workloads = default_fleet_workloads(
        CROSS_CHECK_CELLS, CROSS_CHECK_TICKS, seed=SEED
    )
    runner = FleetShardRunner(0, specs, model)
    runner.start()
    for t in range(CROSS_CHECK_TICKS):
        runner.tick(workloads[:, t])
    fleet = runner.finish()

    mismatches = 0
    reference_decisions = [set() for _ in range(CROSS_CHECK_TICKS)]
    for row, spec in enumerate(specs):
        cell = build_cell(spec)
        policy = ReferenceMonitorlessPolicy(model, cell.agent, window=16)
        for t in range(CROSS_CHECK_TICKS):
            cell.simulation.step({cell.application: float(workloads[row, t])})
            saturated = policy.saturated_services(
                cell.simulation, cell.application, t
            )
            for service in saturated:
                reference_decisions[t].add((spec.namespace, service))
            cell.autoscaler.act(saturated, t)
    for t in range(CROSS_CHECK_TICKS):
        if set(fleet.decisions[t]) != reference_decisions[t]:
            mismatches += 1
    return {
        "containers": 7 * CROSS_CHECK_CELLS,
        "cells": CROSS_CHECK_CELLS,
        "ticks": CROSS_CHECK_TICKS,
        "decisions": sum(len(d) for d in fleet.decisions),
        "mismatched_ticks": mismatches,
    }


def _worker_kill(model, checkpoint_dir) -> dict:
    """Bitwise rescue of a shard whose worker dies mid-run."""
    ticks = 25
    specs = make_fleet_specs(4, base_seed=SEED)
    workloads = default_fleet_workloads(4, ticks, seed=SEED)
    clean = FleetOrchestrator(
        specs, model, n_shards=2, n_jobs=2
    ).run(workloads)
    crashed = FleetOrchestrator(
        specs, model, n_shards=2, n_jobs=2,
        checkpoint_dir=checkpoint_dir, checkpoint_interval=6,
        die_at_tick={0: 15},
    ).run(workloads)
    identical = crashed.decisions == clean.decisions and all(
        np.array_equal(
            clean.cells[ns].extra_replicas, crashed.cells[ns].extra_replicas
        )
        for ns in clean.cells
    )
    return {
        "ticks": ticks,
        "kill_tick": 15,
        "resumed_from_tick": crashed.shard_results[0].resumed_from_tick,
        "bitwise_identical": identical,
    }


def test_fleet_scale(benchmark, small_model, table_printer, tmp_path):
    obs.disable()
    obs.reset()
    cores = available_cores()
    enforce = cores >= 4

    cross_check = _cross_check(small_model)
    assert cross_check["mismatched_ticks"] == 0, (
        "fleet decisions diverged from the per-container reference"
    )
    assert cross_check["decisions"] > 0, "cross-check never saturated"

    worker_kill = _worker_kill(small_model, tmp_path)
    assert worker_kill["bitwise_identical"], (
        "crash rescue changed the fleet result"
    )
    assert worker_kill["resumed_from_tick"] == 12, (
        "the worker kill never fired (no checkpoint resume observed)"
    )

    # The scale run: build the fleet, then time the serving loop alone.
    n_containers = 7 * SCALE_CELLS
    specs = make_fleet_specs(SCALE_CELLS, base_seed=SEED)
    workloads = default_fleet_workloads(SCALE_CELLS, SCALE_TICKS, seed=SEED)
    orchestrator = FleetOrchestrator(specs, small_model, n_jobs=-1)
    started = time.perf_counter()
    result = orchestrator.run(workloads)
    elapsed = time.perf_counter() - started
    ticks_per_second = SCALE_TICKS / elapsed

    # Where the serving loop spends its time, summed over shards
    # (telemetry synthesis / feature engineering / inference / policy
    # bookkeeping / simulation advance).
    phase_seconds: dict[str, float] = {}
    for shard in result.shard_results:
        for phase, seconds in shard.phase_seconds.items():
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds

    rows = [
        {
            "quantity": "containers",
            "value": n_containers,
        },
        {"quantity": "cells", "value": SCALE_CELLS},
        {"quantity": "ticks", "value": SCALE_TICKS},
        {"quantity": "shards", "value": orchestrator.n_shards},
        {"quantity": "elapsed_s", "value": round(elapsed, 2)},
        {"quantity": "ticks_per_s", "value": round(ticks_per_second, 3)},
        {
            "quantity": "container_ticks_per_s",
            "value": round(n_containers * ticks_per_second),
        },
        {
            "quantity": "decisions",
            "value": sum(len(d) for d in result.decisions),
        },
        {"quantity": "scale_outs", "value": result.total_scale_outs},
    ]
    rows.extend(
        {"quantity": f"phase_{phase}_s", "value": round(seconds, 3)}
        for phase, seconds in sorted(phase_seconds.items())
    )
    table_printer(
        f"Fleet serving path ({cores} usable cores)", rows
    )

    record = {
        "cpu_count": cores,
        "seed": SEED,
        "containers": n_containers,
        "cells": SCALE_CELLS,
        "ticks": SCALE_TICKS,
        "n_shards": orchestrator.n_shards,
        "elapsed_seconds": round(elapsed, 3),
        "ticks_per_second": round(ticks_per_second, 4),
        "container_ticks_per_second": round(
            n_containers * ticks_per_second, 1
        ),
        "decisions": sum(len(d) for d in result.decisions),
        "scale_outs": result.total_scale_outs,
        "phase_seconds": {
            phase: round(seconds, 3)
            for phase, seconds in sorted(phase_seconds.items())
        },
        "cross_check": cross_check,
        "worker_kill": worker_kill,
        "floor_containers": 5000,
        "floor_ticks_per_second": 2.0,
        "thresholds_enforced": enforce,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if enforce:
        assert n_containers >= 5000, (
            "the scale run must cover at least 5000 containers"
        )
        assert ticks_per_second >= 2.0, (
            f"fleet advanced {ticks_per_second:.2f} ticks/s; "
            f"the floor is 2.0"
        )

    # Benchmark target: a small steady-state fleet segment.
    bench_specs = make_fleet_specs(8, base_seed=SEED)
    bench_workloads = default_fleet_workloads(8, 10, seed=SEED)

    def _segment():
        runner = FleetShardRunner(0, bench_specs, small_model)
        runner.start()
        for t in range(10):
            runner.tick(bench_workloads[:, t])
        return runner.finish()

    benchmark.pedantic(_segment, rounds=1, iterations=1)
