"""Drift-lifecycle benchmark: the seeded detect/retrain/promote loop.

Runs the deterministic drift scenario (:mod:`repro.lifecycle.scenario`:
a stationary TeaStore plateau hit mid-run by a bursty membw antagonist
plus a workload step) end to end with the full lifecycle attached, and
records the contract to ``BENCH_drift.json``:

- **always asserted**: the champion's serving decisions (per-tick SLO
  outcomes and scale-out count) are identical with and without the
  lifecycle attached, up to the promotion tick -- shadow serving
  observes, it never actuates; the promotion history is bitwise
  identical when the retrain corpus is built with two workers
  (``n_jobs`` contract) and across a mid-run kill-and-resume from an
  orchestrator checkpoint; drift is detected after the onset, the
  retrained challenger is promoted, and the registry ends with v1
  retired and v2 champion;
- recorded, and **enforced on >= 4-core hosts** following the
  ``bench_parallel.py`` convention: the wall-clock overhead of running
  the whole lifecycle (challenger shadow scoring, streaming drift
  histograms, two retrains) stays within a small multiple of the
  bare champion loop.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.model import MonitorlessModel
from repro.datasets.configs import run_by_id
from repro.datasets.generate import build_training_corpus
from repro.lifecycle import (
    ANTAGONIST_PERIOD,
    DriftScenarioConfig,
    DriftScenarioRunner,
)
from repro.orchestrator.slo import violated_last_tick
from repro.parallel.jobs import available_cores

from conftest import SEED

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_drift.json"
RESUME_TICK = 200
CHECKPOINT_INTERVAL = 50


@pytest.fixture(scope="module")
def small_model():
    """The quick-to-train solo champion the scenario defaults are tuned
    for -- same recipe as the ``tiny_model`` test fixture."""
    from repro.core.features.pipeline import PipelineConfig

    runs = [run_by_id(i) for i in (1, 2, 7, 9, 12, 24)]
    corpus = build_training_corpus(
        duration=80, calibration_duration=100, seed=3, runs=runs
    )
    model = MonitorlessModel(
        pipeline_config=PipelineConfig(temporal_windows=(1, 5)),
        classifier_params={"n_estimators": 15},
        random_state=SEED,
    )
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    return model


def _run_collecting(runner):
    """Advance a runner to the end, keeping each tick's SLO outcome."""
    orchestrator = runner.orchestrator
    kpis = orchestrator.simulation._kpis["teastore"]
    outcomes = []
    while runner.t < runner.config.duration:
        runner.run_until(runner.t + 1)
        outcomes.append(violated_last_tick(kpis, orchestrator.slo))
    return outcomes, runner.finish()


def test_drift_lifecycle(benchmark, small_model, table_printer, tmp_path):
    cores = available_cores()
    config = DriftScenarioConfig()

    started = time.perf_counter()
    runner = DriftScenarioRunner(small_model, tmp_path / "fresh", config)
    outcomes, result = _run_collecting(runner)
    lifecycle_seconds = time.perf_counter() - started
    history = result.promotion_history()

    # Scenario contract (always asserted): detect after the onset,
    # retrain, promote the challenger, retire the old champion.
    assert result.detection_tick is not None
    assert (
        result.onset_tick
        <= result.detection_tick
        <= result.onset_tick + 2 * ANTAGONIST_PERIOD
    )
    assert result.promoted and result.promotion_tick > result.retrain_tick
    assert result.champion_version == 2
    stages = {r["version"]: r["stage"] for r in result.lineage}
    assert stages[1] == "retired" and stages[2] == "champion"

    # Shadow serving never actuates (always asserted): with the
    # lifecycle disabled the loop makes the same decisions, so SLO
    # outcomes match tick for tick until the promotion swaps models.
    started = time.perf_counter()
    baseline = DriftScenarioRunner(
        small_model,
        tmp_path / "baseline",
        DriftScenarioConfig(lifecycle_enabled=False),
    )
    base_outcomes, base_result = _run_collecting(baseline)
    baseline_seconds = time.perf_counter() - started
    promotion = result.promotion_tick
    assert outcomes[:promotion] == base_outcomes[:promotion], (
        "champion decisions changed while the challenger was shadow-only"
    )
    assert base_result.champion_version == 1

    # n_jobs determinism (always asserted): retraining with two worker
    # processes reproduces the promotion history bitwise.
    parallel_result = DriftScenarioRunner(
        small_model,
        tmp_path / "parallel",
        DriftScenarioConfig(n_jobs=2),
    )
    parallel_result.run_until()
    assert parallel_result.finish().promotion_history() == history, (
        "promotion history differs by n_jobs"
    )

    # Kill-and-resume determinism (always asserted): only the
    # checkpoint file survives the "crash" at RESUME_TICK.
    checkpoint = tmp_path / "scenario.ckpt"
    partial = DriftScenarioRunner(small_model, tmp_path / "resume", config)
    partial.run_until(
        RESUME_TICK,
        checkpoint_path=checkpoint,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )
    del partial
    resumed = DriftScenarioRunner.resume(checkpoint)
    resumed.run_until()
    assert resumed.finish().promotion_history() == history, (
        "promotion history differs across kill-and-resume"
    )

    overhead_ratio = lifecycle_seconds / max(baseline_seconds, 1e-9)
    table_printer(
        f"Drift lifecycle, {config.duration} ticks ({cores} usable cores)",
        [
            {"quantity": "onset_tick", "value": result.onset_tick},
            {"quantity": "detection_tick", "value": result.detection_tick},
            {"quantity": "retrain_tick", "value": result.retrain_tick},
            {"quantity": "promotion_tick", "value": result.promotion_tick},
            {"quantity": "champion_version", "value": result.champion_version},
            {"quantity": "violations", "value": result.violations},
            {"quantity": "scale_outs", "value": result.scale_outs},
            {"quantity": "lifecycle_seconds", "value": round(lifecycle_seconds, 2)},
            {"quantity": "baseline_seconds", "value": round(baseline_seconds, 2)},
            {"quantity": "overhead_ratio", "value": round(overhead_ratio, 2)},
        ],
    )

    enforce = cores >= 4
    record = {
        "cpu_count": cores,
        "duration": config.duration,
        "seed": config.seed,
        "onset_tick": result.onset_tick,
        "detection_tick": result.detection_tick,
        "retrain_tick": result.retrain_tick,
        "promotion_tick": result.promotion_tick,
        "champion_version": result.champion_version,
        "violations": result.violations,
        "scale_outs": result.scale_outs,
        "history": result.history,
        "lineage": history["lineage"],
        "n_jobs_bitwise_identical": True,
        "resume_bitwise_identical": True,
        "champion_unperturbed_until_promotion": True,
        "lifecycle_seconds": round(lifecycle_seconds, 3),
        "baseline_seconds": round(baseline_seconds, 3),
        "shadow_overhead_ratio": round(overhead_ratio, 3),
        "thresholds_enforced": enforce,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if enforce:
        # The whole lifecycle -- shadow scoring every tick, streaming
        # drift histograms and two full retrains -- must stay within a
        # small multiple of the bare champion loop.
        assert overhead_ratio <= 3.0

    # Benchmark target: a short no-antagonist scenario end to end
    # (loop + lifecycle bookkeeping without the retrain spikes).
    def quick_scenario():
        quick = DriftScenarioRunner(
            small_model,
            tmp_path / "bench",
            DriftScenarioConfig(duration=60, antagonist=None),
        )
        quick.run_until()
        return quick.finish()

    benchmark.pedantic(quick_scenario, rounds=1, iterations=1)
