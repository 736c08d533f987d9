"""Disabled-mode observability overhead on the streaming closed loop.

Every hot path in the runtime -- ``Orchestrator.tick``, the per-tick
pipeline push, telemetry emission, the forest, the pool -- now carries
``repro.obs`` hooks.  The contract is that the **disabled** default
costs near nothing: each hook is one attribute check (plus, for
``trace``, handing back a shared no-op context manager).

Directly A/B-timing "loop with hooks" vs "loop without hooks" is not
possible (the hooks are compiled in) and a wall-clock diff of two runs
of the same loop is noise-dominated anyway, so this benchmark bounds
the overhead from first principles:

1. time the streaming TeaStore closed loop with observability off
   (the production configuration) -> seconds per tick;
2. count how often each hook fires per tick by temporarily wrapping
   the ``repro.obs`` entry points with counting shims during a short
   disabled-mode run;
3. microbenchmark the disabled cost of each hook over ~10^5 calls;
4. bound: ``sum(calls_per_tick * cost) / seconds_per_tick``.

The bound must stay under ``MAX_DISABLED_OVERHEAD`` (2%).  An
enabled-mode run is also timed for the artifact so readers can see
what opting in costs.  Results go to ``BENCH_obs.json`` at the
repository root; following ``bench_parallel.py`` convention the
threshold is asserted only on hosts with >= 4 usable cores
(laptop-class runners record, big runners enforce).
"""

import json
import time
from pathlib import Path

from repro import obs
from repro.apps.teastore import teastore_application
from repro.cluster.simulation import ClusterSimulation
from repro.core.model import MonitorlessModel
from repro.datasets.configs import run_by_id
from repro.datasets.experiments import (
    evaluation_nodes,
    teastore_placements,
    teastore_scaling_rules,
)
from repro.datasets.generate import build_training_corpus
from repro.orchestrator.loop import Orchestrator
from repro.orchestrator.policies import MonitorlessPolicy
from repro.parallel.jobs import available_cores
from repro.telemetry.agent import TelemetryAgent
from repro.workloads.patterns import linear_ramp

import pytest

from conftest import SEED

LOOP_TICKS = 600
COUNT_TICKS = 120
MICRO_CALLS = 100_000
MAX_DISABLED_OVERHEAD = 0.02
HOOKS = ("enabled", "trace", "inc", "observe", "set_gauge")
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"


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


def _closed_loop(model, duration: int):
    simulation = ClusterSimulation(evaluation_nodes(), seed=SEED)
    simulation.deploy(teastore_application(), teastore_placements())
    agent = TelemetryAgent(seed=SEED)
    policy = MonitorlessPolicy(model, agent)
    orchestrator = Orchestrator(
        simulation, "teastore", policy, teastore_scaling_rules()
    )
    workload = linear_ramp(duration, 10, 240)
    started = time.perf_counter()
    result = orchestrator.run({"teastore": workload})
    elapsed = time.perf_counter() - started
    return result, elapsed


def _count_hook_calls(model, duration: int) -> dict:
    """Exact per-tick hook invocation counts, via counting shims.

    The instrumented modules resolve ``obs.inc`` etc. at call time on
    the module object, so swapping the module attributes is enough to
    see every hook the closed loop fires.
    """
    originals = {name: getattr(obs, name) for name in HOOKS}
    counts = dict.fromkeys(HOOKS, 0)

    def _shim(name):
        original = originals[name]

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counting

    for name in HOOKS:
        setattr(obs, name, _shim(name))
    try:
        _closed_loop(model, duration)
    finally:
        for name, original in originals.items():
            setattr(obs, name, original)
    return {name: counts[name] / duration for name in HOOKS}


def _disabled_hook_cost(fn, calls: int = MICRO_CALLS) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls


def _micro_costs() -> dict:
    """Per-call disabled-mode cost of each hook, in seconds."""
    assert not obs.enabled()

    def traced_block():
        with obs.trace("bench.region"):
            pass

    return {
        "enabled": _disabled_hook_cost(obs.enabled),
        "trace": _disabled_hook_cost(traced_block),
        "inc": _disabled_hook_cost(lambda: obs.inc("bench.counter")),
        "observe": _disabled_hook_cost(lambda: obs.observe("bench.hist", 0.5)),
        "set_gauge": _disabled_hook_cost(lambda: obs.set_gauge("bench.g", 1.0)),
    }


def test_disabled_overhead_bound(benchmark, small_model, table_printer):
    obs.disable()
    obs.reset()
    cores = available_cores()

    # 1. Production configuration: observability off.
    disabled_result, disabled_seconds = _closed_loop(small_model, LOOP_TICKS)
    seconds_per_tick = disabled_seconds / LOOP_TICKS

    # 2. How often does each hook fire per tick?
    calls_per_tick = _count_hook_calls(small_model, COUNT_TICKS)

    # 3. What does one disabled call cost?
    costs = _micro_costs()

    # 4. Bound the disabled-mode overhead fraction.
    overhead_seconds_per_tick = sum(
        calls_per_tick[name] * costs[name] for name in HOOKS
    )
    disabled_overhead = overhead_seconds_per_tick / seconds_per_tick

    # For the artifact: what opting in costs, and proof the loop is
    # unchanged by recording (same scaling decisions either way).
    obs.reset()
    obs.enable()
    try:
        enabled_result, enabled_seconds = _closed_loop(small_model, LOOP_TICKS)
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    assert enabled_result.total_scale_outs == disabled_result.total_scale_outs
    assert snapshot["counters"]["orchestrator.ticks"] == float(LOOP_TICKS)
    enabled_overhead = enabled_seconds / disabled_seconds - 1.0

    table_printer(
        f"Disabled-mode observability overhead ({cores} usable cores)",
        [
            {
                "hook": name,
                "calls/tick": round(calls_per_tick[name], 1),
                "cost [ns]": round(costs[name] * 1e9, 1),
                "us/tick": round(calls_per_tick[name] * costs[name] * 1e6, 2),
            }
            for name in HOOKS
        ],
    )
    table_printer(
        "Streaming closed loop, observability off vs on",
        [
            {
                "mode": "disabled",
                "seconds": f"{disabled_seconds:.2f}",
                "ticks/s": f"{LOOP_TICKS / disabled_seconds:.0f}",
                "overhead": f"{disabled_overhead:.3%} (bound)",
            },
            {
                "mode": "enabled",
                "seconds": f"{enabled_seconds:.2f}",
                "ticks/s": f"{LOOP_TICKS / enabled_seconds:.0f}",
                "overhead": f"{enabled_overhead:+.1%} (measured)",
            },
        ],
    )

    enforce = cores >= 4
    record = {
        "cpu_count": cores,
        "loop_ticks": LOOP_TICKS,
        "disabled_seconds": round(disabled_seconds, 3),
        "enabled_seconds": round(enabled_seconds, 3),
        "disabled_ticks_per_second": round(LOOP_TICKS / disabled_seconds, 1),
        "enabled_overhead_fraction": round(enabled_overhead, 4),
        "hook_calls_per_tick": {
            name: round(calls_per_tick[name], 2) for name in HOOKS
        },
        "hook_cost_ns": {
            name: round(costs[name] * 1e9, 1) for name in HOOKS
        },
        "disabled_overhead_us_per_tick": round(
            overhead_seconds_per_tick * 1e6, 3
        ),
        "disabled_overhead_fraction": round(disabled_overhead, 6),
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "thresholds_enforced": enforce,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if enforce:
        assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
            f"disabled-mode observability overhead bound "
            f"{disabled_overhead:.4%} exceeds {MAX_DISABLED_OVERHEAD:.0%}"
        )

    # Benchmark target: one short disabled-mode closed-loop segment.
    benchmark.pedantic(
        lambda: _closed_loop(small_model, 300), rounds=1, iterations=1
    )
