"""Chaos-harness benchmark: the closed loop under seeded degradation.

Runs :func:`repro.reliability.chaos.run_chaos` -- the TeaStore closed
loop once clean and once under the default seeded schedule (>= 10%
metric dropout, injected hard/transient telemetry failures, NaN
corruption, blackout windows and a node slowdown) with the full
resilience stack (``ResilientTelemetry`` + ``FallbackPolicy``) -- and
records the robustness contract to ``BENCH_chaos.json``:

- the run completes with no unhandled exception;
- the fallback chain actually exercised demotion *and* recovery
  (read back from ``repro.obs`` counters);
- the SLO-violation delta versus the clean run stays within the
  documented bound (``MAX_VIOLATION_DELTA_FRACTION``, 15% of the
  duration; ``bound_fraction`` in the artifact).

Following ``bench_parallel.py`` convention the assertions are
enforced only on hosts with >= 4 usable cores; smaller runners still
record the artifact.
"""

import json
import time
from pathlib import Path

from repro import obs
from repro.core.model import MonitorlessModel
from repro.datasets.configs import run_by_id
from repro.datasets.generate import build_training_corpus
from repro.parallel.jobs import available_cores
from repro.reliability.chaos import run_chaos

import pytest

from conftest import SEED

DURATION = 240
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_chaos.json"


@pytest.fixture(scope="module")
def small_model():
    """Same quick-to-train model as ``bench_obs.py``."""
    runs = [run_by_id(i) for i in (1, 2, 7, 9, 12, 24)]
    corpus = build_training_corpus(
        duration=80, calibration_duration=100, seed=3, runs=runs
    )
    model = MonitorlessModel(
        classifier_params={"n_estimators": 15}, random_state=SEED
    )
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    return model


def test_chaos_harness(benchmark, small_model, table_printer):
    obs.disable()
    obs.reset()
    cores = available_cores()

    started = time.perf_counter()
    report = run_chaos(small_model, duration=DURATION, seed=SEED)
    elapsed = time.perf_counter() - started

    table_printer(
        f"Seeded chaos harness, {DURATION} ticks ({cores} usable cores)",
        report.rows(),
    )

    enforce = cores >= 4
    record = {
        "cpu_count": cores,
        "duration": DURATION,
        "seed": SEED,
        "harness_seconds": round(elapsed, 3),
        "clean_violations": report.clean_violations,
        "chaos_violations": report.chaos_violations,
        "violation_delta": report.violation_delta,
        "violation_bound": report.violation_bound,
        "bound_fraction": report.bound_fraction,
        "within_bound": report.within_bound,
        "clean_scale_outs": report.clean_scale_outs,
        "chaos_scale_outs": report.chaos_scale_outs,
        "demotions": report.demotions,
        "recoveries": report.recoveries,
        "failsafe_entries": report.failsafe_entries,
        "failsafe_ticks": report.failsafe_ticks,
        "imputed_ticks": report.imputed_ticks,
        "ticks_lost": report.ticks_lost,
        "retries": report.retries,
        "nan_masked_values": report.nan_masked_values,
        "readings_dropped": report.readings_dropped,
        "health_final_states": sorted(set(report.health_final.values())),
        "telemetry_summary": report.telemetry_summary,
        "thresholds_enforced": enforce,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if enforce:
        assert report.within_bound, (
            f"SLO-violation delta {report.violation_delta} exceeds the "
            f"documented bound {report.violation_bound:.0f}"
        )
        assert report.demotions >= 1, "chaos never demoted a container"
        assert report.recoveries >= 1, "no container recovered to healthy"
        assert report.imputed_ticks >= 1, "imputation never exercised"
        assert report.retries >= 1, "retry path never exercised"

    # Benchmark target: one short chaos segment (clean + chaos runs).
    benchmark.pedantic(
        lambda: run_chaos(small_model, duration=80, seed=SEED),
        rounds=1,
        iterations=1,
    )
