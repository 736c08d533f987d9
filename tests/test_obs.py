"""Tests for the :mod:`repro.obs` observability layer.

Covers the registry contracts (bucket boundaries, snapshot/reset
isolation), span parentage, the disabled-switch no-op path, worker
isolation under :func:`repro.parallel.parallel_map` (no cross-worker
double counting), and the end-to-end instrumentation of the closed
loop, telemetry streams and fault injection.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.parallel import parallel_map

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends disabled with empty state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# Task functions must be module-level (they are pickled by name).
# ---------------------------------------------------------------------------
def _counting_task(item, arrays):
    obs.inc("worker.calls")
    obs.observe("worker.values", float(item))
    return item * 2


class TestRegistry:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2.5)
        assert registry.snapshot()["counters"]["a"] == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("a").inc(-1.0)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5)
        registry.gauge("g").set(2)
        registry.gauge("g").inc()
        assert registry.snapshot()["gauges"]["g"] == 3.0

    def test_name_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")

    def test_histogram_bucket_boundaries(self):
        # le semantics: a value equal to a bound lands in that bucket.
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 5.0, 7.0):
            hist.observe(value)
        assert hist.bucket_counts == [2, 2, 1, 1]  # le1, le2, le5, +Inf
        assert hist.cumulative_counts() == [2, 4, 5, 6]
        assert hist.count == 6
        assert hist.total == pytest.approx(17.0)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", bounds=())

    def test_snapshot_is_detached(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        before = registry.snapshot()
        registry.counter("a").inc(10)
        registry.histogram("h").observe(0.5)
        assert before["counters"]["a"] == 1.0
        assert before["histograms"]["h"]["bucket_counts"] == [1, 0]

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(0.5)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestSwitch:
    def test_disabled_hooks_record_nothing(self):
        obs.inc("c")
        obs.set_gauge("g", 1.0)
        obs.observe("h", 0.5)
        with obs.trace("a"):
            with obs.trace("b"):
                pass
        assert obs.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert obs.span_roots() == []

    def test_disabled_trace_is_shared_noop(self):
        assert obs.trace("a") is obs.trace("b")

    def test_enable_disable_toggles_recording(self):
        obs.enable()
        obs.inc("c")
        obs.disable()
        obs.inc("c")
        assert obs.snapshot()["counters"]["c"] == 1.0

    def test_state_survives_disable_until_reset(self):
        obs.enable()
        obs.inc("c", 4)
        obs.disable()
        assert obs.snapshot()["counters"]["c"] == 4.0
        obs.reset()
        assert obs.snapshot()["counters"] == {}

    def test_traced_decorator_passthrough_when_disabled(self):
        @obs.traced("fn")
        def double(x):
            return 2 * x

        assert double(3) == 6
        assert obs.span_roots() == []


class TestTracing:
    def test_nested_span_parentage(self):
        obs.enable()
        with obs.trace("outer"):
            with obs.trace("inner"):
                pass
            with obs.trace("inner"):
                pass
        roots = obs.span_roots()
        assert [root.name for root in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == [
            "inner",
            "inner",
        ]
        assert roots[0].duration_ns >= sum(
            child.duration_ns for child in roots[0].children
        )

    def test_traced_decorator_records_span(self):
        obs.enable()

        @obs.traced("fn.span")
        def double(x):
            return 2 * x

        assert double(5) == 10
        assert obs.span_roots()[0].name == "fn.span"

    def test_traced_decorator_closes_span_on_exception(self):
        obs.enable()

        @obs.traced("fn.boom")
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            boom()
        # The span was closed: a following span is a root, not a child.
        with obs.trace("after"):
            pass
        assert [s.name for s in obs.span_roots()] == ["fn.boom", "after"]

    def test_retention_cap_drops_new_leaves(self):
        tracer = Tracer(max_spans=3)
        for _ in range(5):
            tracer.start("leaf")
            tracer.end()
        assert tracer.retained == 3
        assert tracer.dropped == 2
        assert len(tracer.roots) == 3

    def test_retention_cap_keeps_parents_of_retained_children(self):
        tracer = Tracer(max_spans=2)
        tracer.start("parent")
        tracer.start("a")
        tracer.end()
        tracer.start("b")
        tracer.end()
        tracer.end()  # parent: over cap but holds retained children
        assert [root.name for root in tracer.roots] == ["parent"]
        assert len(tracer.roots[0].children) == 2

    def test_unbalanced_end_raises(self):
        with pytest.raises(RuntimeError, match="without a matching"):
            Tracer().end()


class TestExport:
    def test_prometheus_exposition(self):
        obs.enable()
        obs.inc("loop.ticks", 3)
        obs.set_gauge("pool.workers", 2)
        obs.observe("tick.seconds", 0.3, bounds=(0.1, 1.0))
        obs.observe("tick.seconds", 5.0)
        text = obs.metrics_to_prometheus(obs.snapshot())
        assert "# TYPE repro_loop_ticks counter\nrepro_loop_ticks 3" in text
        assert "# TYPE repro_pool_workers gauge\nrepro_pool_workers 2" in text
        assert 'repro_tick_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_tick_seconds_bucket{le="1"} 1' in text
        assert 'repro_tick_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_tick_seconds_sum 5.3" in text
        assert "repro_tick_seconds_count 2" in text

    def test_json_round_trip(self):
        import json

        obs.enable()
        obs.inc("a.b", 2)
        obs.observe("h", 0.5, bounds=(1.0,))
        parsed = json.loads(obs.metrics_to_json(obs.snapshot()))
        assert parsed["counters"]["a.b"] == 2.0
        assert parsed["histograms"]["h"]["bucket_counts"] == [1, 0]

    def test_span_aggregation_merges_same_name_siblings(self):
        obs.enable()
        for _ in range(3):
            with obs.trace("tick"):
                with obs.trace("step"):
                    pass
        [node] = obs.aggregate_spans(obs.span_roots())
        assert node["name"] == "tick" and node["calls"] == 3
        assert node["children"][0]["name"] == "step"
        assert node["children"][0]["calls"] == 3
        assert node["total_seconds"] >= node["children"][0]["total_seconds"]

    def test_render_span_tree(self):
        obs.enable()
        with obs.trace("tick"):
            with obs.trace("step"):
                pass
        rendered = obs.render_span_tree(obs.span_roots(), dropped=7)
        assert "tick" in rendered and "  step" in rendered
        assert "calls=1" in rendered
        assert "7 spans beyond the retention cap" in rendered

    def test_render_empty(self):
        assert "no spans" in obs.render_span_tree([])


class TestParallelIsolation:
    def test_serial_records_in_process(self):
        obs.enable()
        results = parallel_map(_counting_task, [1, 2, 3], n_jobs=1)
        assert results == [2, 4, 6]
        snapshot = obs.snapshot()
        assert snapshot["counters"]["worker.calls"] == 3.0
        assert snapshot["histograms"]["worker.values"]["count"] == 3

    def test_workers_never_double_count_in_parent(self):
        obs.enable()
        results = parallel_map(_counting_task, list(range(8)), n_jobs=JOBS)
        assert results == [i * 2 for i in range(8)]
        snapshot = obs.snapshot()
        # The task ran only in workers; their fork-time registry copies
        # died with the pool, so the parent saw none of the increments.
        assert "worker.calls" not in snapshot["counters"]
        # ... but the parent recorded its own pool-side accounting.
        assert snapshot["counters"]["parallel.items"] == 8.0
        assert snapshot["counters"]["parallel.chunks"] >= 1.0
        assert snapshot["gauges"]["parallel.workers"] == float(JOBS)
        waits = snapshot["histograms"]["parallel.queue_wait_seconds"]
        execs = snapshot["histograms"]["parallel.execute_seconds"]
        assert waits["count"] == execs["count"] >= 1

    def test_parallel_results_identical_with_obs_enabled(self):
        baseline = parallel_map(_counting_task, list(range(6)), n_jobs=JOBS)
        obs.enable()
        instrumented = parallel_map(
            _counting_task, list(range(6)), n_jobs=JOBS
        )
        assert baseline == instrumented


class TestRuntimeInstrumentation:
    def _closed_loop(self, duration=8):
        from repro.apps.solr import solr_application
        from repro.cluster.node import MACHINES
        from repro.cluster.simulation import ClusterSimulation, Placement
        from repro.orchestrator.loop import Orchestrator
        from repro.orchestrator.policies import NoScalingPolicy
        from repro.workloads.patterns import constant

        simulation = ClusterSimulation(
            {"training": MACHINES["training"]}, seed=0
        )
        simulation.deploy(
            solr_application(), {"solr": [Placement(node="training")]}
        )
        orchestrator = Orchestrator(
            simulation, "solr", NoScalingPolicy(), rules=None
        )
        return orchestrator.run({"solr": constant(duration, 50.0)})

    def test_orchestrator_tick_metrics_and_spans(self):
        obs.enable()
        self._closed_loop(duration=8)
        snapshot = obs.snapshot()
        assert snapshot["counters"]["orchestrator.ticks"] == 8.0
        assert snapshot["histograms"]["orchestrator.tick_seconds"]["count"] == 8
        ticks = [s for s in obs.span_roots() if s.name == "orchestrator.tick"]
        assert len(ticks) == 8
        assert ticks[0].children[0].name == "simulation.step"

    def test_orchestrator_results_identical_under_observability(self):
        clean = self._closed_loop(duration=6)
        obs.enable()
        instrumented = self._closed_loop(duration=6)
        assert np.array_equal(clean.response_time, instrumented.response_time)
        assert np.array_equal(clean.throughput, instrumented.throughput)

    def _fleet_loop(self, model, ticks=8):
        from repro.fleet.orchestrator import (
            FleetShardRunner,
            default_fleet_workloads,
            make_fleet_specs,
        )

        runner = FleetShardRunner(0, make_fleet_specs(3), model)
        rates = default_fleet_workloads(3, ticks, low=100.0, high=900.0)
        runner.start()
        for t in range(ticks):
            runner.tick(rates[:, t])
        return runner.finish()

    def test_fleet_results_identical_under_observability(self, tiny_model):
        clean = self._fleet_loop(tiny_model)
        obs.enable()
        instrumented = self._fleet_loop(tiny_model)
        assert clean.decisions == instrumented.decisions
        assert any(clean.decisions)
        for namespace, cell in clean.cells.items():
            other = instrumented.cells[namespace]
            assert np.array_equal(cell.extra_replicas, other.extra_replicas)
            assert np.array_equal(cell.response_time, other.response_time)
            assert np.array_equal(cell.violations, other.violations)

    def test_fleet_tick_span_tree(self, tiny_model):
        """A shard tick opens the per-application loop's spans, with the
        fleet policy's phases under ``policy.fleet``."""
        obs.enable()
        self._fleet_loop(tiny_model, ticks=6)
        (tick,) = obs.aggregate_spans(obs.span_roots())
        assert tick["name"] == "orchestrator.tick"
        assert tick["calls"] == 6
        children = {child["name"]: child for child in tick["children"]}
        assert list(children) == [
            "simulation.step", "policy.fleet", "autoscaler.act",
        ]
        phases = {child["name"] for child in children["policy.fleet"]["children"]}
        assert {"fleet.synthesize", "fleet.push_rows", "policy.classify"} <= phases

    def test_forest_fit_predict_counters(self, binary_data):
        from repro.ml.forest import RandomForestClassifier

        X_train, y_train, X_test, _ = binary_data
        obs.enable()
        forest = RandomForestClassifier(n_estimators=5, random_state=0)
        forest.fit(X_train[:200], y_train[:200])
        forest.predict_proba(X_test[:20])
        snapshot = obs.snapshot()
        assert snapshot["counters"]["forest.trees_fitted"] == 5.0
        assert snapshot["counters"]["forest.predict_chunks"] == 1.0
        assert snapshot["counters"]["forest.predict_chunk_trees"] == 5.0
        names = {root.name for root in obs.span_roots()}
        assert {"forest.fit", "forest.predict_proba"} <= names

    def test_telemetry_stream_emission_counters(self):
        from repro.apps.solr import solr_application
        from repro.cluster.node import MACHINES
        from repro.cluster.simulation import ClusterSimulation, Placement
        from repro.telemetry.agent import TelemetryAgent
        from repro.workloads.patterns import constant
        from tests.serving_reference import open_reference_stream

        simulation = ClusterSimulation(
            {"training": MACHINES["training"]}, seed=0
        )
        simulation.deploy(
            solr_application(), {"solr": [Placement(node="training")]}
        )
        result = simulation.run({"solr": constant(10, 50.0)})
        agent = TelemetryAgent(seed=0)
        obs.enable()
        stream = open_reference_stream(
            agent, result.containers[0], result.nodes
        )
        stream.advance_to(stream.start + 10)
        agent.instance_matrix(result.containers[0], result.nodes)
        snapshot = obs.snapshot()
        assert snapshot["counters"]["telemetry.rows_emitted"] == 10.0
        assert snapshot["counters"]["telemetry.rows_synthesized"] == 10.0

    def test_fault_injection_counters(self):
        from repro.apps.solr import solr_application
        from repro.cluster.faults import (
            FaultSchedule,
            MetricDropout,
            NodeSlowdown,
        )
        from repro.cluster.node import MACHINES
        from repro.cluster.simulation import ClusterSimulation, Placement
        from repro.telemetry.agent import TelemetryAgent
        from repro.workloads.patterns import constant

        simulation = ClusterSimulation(
            {"training": MACHINES["training"]}, seed=0
        )
        simulation.deploy(
            solr_application(), {"solr": [Placement(node="training")]}
        )
        fault = NodeSlowdown(node="training", factor=0.5, start=2, end=6)
        obs.enable()
        result = FaultSchedule([fault]).run(
            simulation, {"solr": constant(10, 50.0)}
        )
        dropout = MetricDropout(TelemetryAgent(seed=0), probability=0.3, seed=1)
        matrix = dropout.instance_matrix(result.containers[0], result.nodes)
        snapshot = obs.snapshot()
        assert snapshot["counters"]["faults.runs"] == 1.0
        assert snapshot["counters"]["faults.active_fault_ticks"] == 4.0
        assert snapshot["counters"]["faults.dropout_matrices"] == 1.0
        dropped = snapshot["counters"]["faults.readings_dropped"]
        assert 0 < dropped < matrix.size
