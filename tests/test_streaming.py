"""The streaming data path: ring buffers, per-tick telemetry emission,
the incremental pipeline/model, and the streaming closed loop.

The load-bearing guarantee, asserted throughout: stacking the per-tick
outputs equals the batch transform of the stacked inputs to within
1e-9 -- bitwise for filter-based pipeline configurations (PCA is the
one step where single-row BLAS kernels may differ in the last bits).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.solr import solr_application
from repro.apps.teastore import teastore_application
from repro.cluster.node import MACHINES
from repro.cluster.simulation import ClusterSimulation, Placement
from repro.core.features.meta import Domain, FeatureMeta, Scope
from repro.core.features.pipeline import (
    FeaturePipeline,
    MonitorlessPipeline,
    PipelineConfig,
)
from repro.core.model import MonitorlessModel
from repro.orchestrator.autoscaler import ScalingRules
from repro.orchestrator.loop import Orchestrator
from repro.orchestrator.policies import MonitorlessPolicy, NoScalingPolicy
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.store import MetricFrame, MetricStream
from repro.workloads.patterns import constant, linear_ramp

TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# MetricStream: the ring buffer under every telemetry stream
# ----------------------------------------------------------------------
class TestMetricStream:
    def test_push_len_total_last(self):
        stream = MetricStream(["a", "b"], capacity=3)
        assert len(stream) == 0 and stream.total == 0
        for i in range(5):
            stream.push(np.array([float(i), float(10 * i)]))
        assert len(stream) == 3
        assert stream.total == 5
        assert np.array_equal(stream.last(), [4.0, 40.0])

    def test_window_is_chronological_across_wrap(self):
        stream = MetricStream(["x"], capacity=4)
        for i in range(10):
            stream.push(np.array([float(i)]))
        assert np.array_equal(stream.window(), [[6.0], [7.0], [8.0], [9.0]])
        assert np.array_equal(stream.window(2), [[8.0], [9.0]])
        assert stream.window(0).shape == (0, 1)

    def test_window_before_wrap(self):
        stream = MetricStream(["x"], capacity=8)
        for i in range(3):
            stream.push(np.array([float(i)]))
        assert np.array_equal(stream.window(), [[0.0], [1.0], [2.0]])

    def test_overdraw_and_bad_inputs_raise(self):
        stream = MetricStream(["a", "b"], capacity=2)
        stream.push(np.zeros(2))
        with pytest.raises(ValueError, match="retained"):
            stream.window(2)
        with pytest.raises(ValueError, match="shape"):
            stream.push(np.zeros(3))
        with pytest.raises(ValueError, match="capacity"):
            MetricStream(["a"], capacity=0)
        with pytest.raises(ValueError, match="unique"):
            MetricStream(["a", "a"], capacity=2)
        with pytest.raises(ValueError, match="empty"):
            MetricStream(["a"], capacity=2).last()

    def test_frame_view(self):
        stream = MetricStream(["a", "b"], capacity=4)
        stream.push(np.array([1.0, 2.0]))
        frame = stream.frame()
        assert isinstance(frame, MetricFrame)
        assert frame.columns == ["a", "b"]
        assert np.array_equal(frame.values, [[1.0, 2.0]])


# ----------------------------------------------------------------------
# Per-tick telemetry emission vs the batch instance matrix
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def solr_sim():
    sim = ClusterSimulation({"training": MACHINES["training"]}, seed=1)
    sim.deploy(
        solr_application(),
        {"solr": [Placement(node="training", cpu_limit=3.0)]},
    )
    sim.run({"solr": linear_ramp(90, 1, 120)})
    return sim


def _solr_container(sim):
    return sim.deployments["solr"].instances["solr"][0].container


class TestTelemetryStream:
    def test_matches_batch_without_counter_conversion(self, solr_sim):
        agent = TelemetryAgent(seed=5, convert_counters=False)
        container = _solr_container(solr_sim)
        batch = agent.instance_matrix(container, solr_sim.nodes)
        stream = agent.open_stream(container, solr_sim.nodes, history=8)
        rows = np.vstack([stream.emit() for _ in range(batch.shape[0])])
        assert np.array_equal(rows, batch)
        # The bounded tail holds exactly the newest rows.
        assert np.array_equal(stream.tail.window(), batch[-8:])

    def test_matches_batch_with_counter_conversion(self, solr_sim):
        agent = TelemetryAgent(seed=5, convert_counters=True)
        container = _solr_container(solr_sim)
        batch = agent.instance_matrix(container, solr_sim.nodes)
        stream = agent.open_stream(container, solr_sim.nodes)
        rows = np.vstack([stream.emit() for _ in range(batch.shape[0])])
        # From the second tick on: bitwise identical.
        assert np.array_equal(rows[1:], batch[1:])
        # First tick: the batch converter back-fills counter rates
        # non-causally; the stream emits 0 there and matches elsewhere.
        differs = rows[0] != batch[0]
        assert np.all(rows[0][differs] == 0.0)

    def test_emit_past_recorded_history_raises(self, solr_sim):
        agent = TelemetryAgent(seed=5)
        container = _solr_container(solr_sim)
        stream = agent.open_stream(container, solr_sim.nodes)
        stream.advance_to(container.created_at + len(container.history))
        with pytest.raises(ValueError, match="no recorded tick"):
            stream.emit()

    def test_advance_to_and_clock(self, solr_sim):
        agent = TelemetryAgent(seed=5)
        container = _solr_container(solr_sim)
        stream = agent.open_stream(container, solr_sim.nodes)
        assert stream.clock == container.created_at
        last = stream.advance_to(container.created_at + 10)
        assert stream.clock == container.created_at + 10
        assert np.array_equal(last, stream.tail.last())
        # Already caught up: nothing to emit.
        assert stream.advance_to(container.created_at + 10) is None


# ----------------------------------------------------------------------
# Incremental pipeline vs batch transform
# ----------------------------------------------------------------------
def _toy_meta() -> list[FeatureMeta]:
    return [
        FeatureMeta(
            "H-CPU-U", domain=Domain.CPU, scope=Scope.HOST, utilization=True
        ),
        FeatureMeta(
            "H-MEM-U", domain=Domain.MEMORY, scope=Scope.HOST, utilization=True
        ),
        FeatureMeta(
            "C-CPU-U",
            domain=Domain.CPU,
            scope=Scope.CONTAINER,
            utilization=True,
        ),
        FeatureMeta("network.total.bytes", domain=Domain.NETWORK, bytes_like=True),
        FeatureMeta(
            "cgroup.blkio.bytes",
            domain=Domain.DISK,
            scope=Scope.CONTAINER,
            bytes_like=True,
        ),
        FeatureMeta("kernel.all.load", domain=Domain.KERNEL),
    ]


def _toy_matrix(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    return np.column_stack(
        [
            rng.uniform(0.0, 100.0, n_rows),
            rng.uniform(0.0, 100.0, n_rows),
            rng.uniform(0.0, 100.0, n_rows),
            rng.gamma(2.0, 1e6, n_rows),
            rng.gamma(2.0, 1e5, n_rows),
            rng.uniform(0.0, 8.0, n_rows),
        ]
    )


TOY_CONFIGS = {
    "paper-default": PipelineConfig(temporal_windows=(1, 3)),
    "pca": PipelineConfig(
        reduction1="pca",
        interactions=False,
        reduction2=None,
        temporal_windows=(1, 3),
    ),
    "raw-filter-time": PipelineConfig(
        normalize=False,
        reduction1="filter",
        interactions=False,
        reduction2=None,
        temporal_windows=(1, 3),
    ),
}


@pytest.fixture(scope="module", params=sorted(TOY_CONFIGS))
def fitted_toy_pipeline(request):
    rng = np.random.default_rng(42)
    X = _toy_matrix(rng, 160)
    y = (X[:, 2] > 60.0).astype(np.int64)
    groups = np.repeat([0, 1, 2, 3], 40)
    pipeline = MonitorlessPipeline(TOY_CONFIGS[request.param], random_state=0)
    pipeline.fit_transform(X, _toy_meta(), y, groups)
    return request.param, pipeline


class TestPipelineStreaming:
    def test_feature_pipeline_is_the_same_class(self):
        assert FeaturePipeline is MonitorlessPipeline

    def test_stream_requires_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            MonitorlessPipeline().stream()

    def test_stream_matches_batch(self, fitted_toy_pipeline):
        name, pipeline = fitted_toy_pipeline
        X = _toy_matrix(np.random.default_rng(7), 50)
        batch, _ = pipeline.transform(X, _toy_meta())
        stream = pipeline.stream()
        streamed = np.vstack([stream.push(row) for row in X])
        assert stream.ticks == 50
        if name == "pca":  # single-row BLAS may differ in the last bits
            assert np.max(np.abs(streamed - batch)) <= TOLERANCE
        else:
            assert np.array_equal(streamed, batch)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_rows=st.integers(min_value=1, max_value=24),
    )
    def test_stream_matches_batch_property(self, fitted_toy_pipeline, seed, n_rows):
        """Equivalence holds for any series, including ones shorter
        than the temporal windows (the AVG/LAG warm-up prefix)."""
        _, pipeline = fitted_toy_pipeline
        X = _toy_matrix(np.random.default_rng(seed), n_rows)
        batch, _ = pipeline.transform(X, _toy_meta())
        stream = pipeline.stream()
        streamed = np.vstack([stream.push(row) for row in X])
        assert np.max(np.abs(streamed - batch)) <= TOLERANCE

    def test_transform_tick_convenience_and_reset(self, fitted_toy_pipeline):
        _, pipeline = fitted_toy_pipeline
        X = _toy_matrix(np.random.default_rng(11), 8)
        batch, _ = pipeline.transform(X, _toy_meta())
        first = np.vstack([pipeline.transform_tick(row) for row in X])
        assert np.max(np.abs(first - batch)) <= TOLERANCE
        # Without a reset the internal series continues; with one, the
        # warm-up starts over and the same rows reproduce the same output.
        pipeline.reset_stream()
        again = np.vstack([pipeline.transform_tick(row) for row in X])
        assert np.array_equal(again, first)
        pipeline.reset_stream()


# ----------------------------------------------------------------------
# Model-level streaming on real telemetry
# ----------------------------------------------------------------------
class TestModelStream:
    def test_stream_requires_fit(self):
        with pytest.raises(RuntimeError, match="fitted"):
            MonitorlessModel().stream()

    def test_matches_batch_on_real_telemetry(self, tiny_model, solr_sim):
        agent = TelemetryAgent(seed=5)
        container = _solr_container(solr_sim)
        matrix = agent.instance_matrix(container, solr_sim.nodes)
        meta = agent.catalog.feature_meta()

        batch_features = tiny_model.transform(matrix, meta)
        batch_verdicts = tiny_model.predict(matrix, meta)
        batch_proba = tiny_model.predict_proba(matrix, meta)

        stream = tiny_model.stream()
        rows = [stream.transform_tick(row) for row in matrix]
        # tiny_model uses the filter-based paper config: bitwise equal.
        assert np.array_equal(np.vstack(rows), batch_features)
        assert stream.ticks == matrix.shape[0]

        verdict_stream = tiny_model.stream()
        verdicts = [verdict_stream.predict_tick(row) for row in matrix]
        assert np.array_equal(verdicts, batch_verdicts)

        proba_stream = tiny_model.stream()
        probas = [proba_stream.predict_proba_tick(row) for row in matrix]
        assert np.max(np.abs(np.asarray(probas) - batch_proba)) <= TOLERANCE


# ----------------------------------------------------------------------
# Orchestrator: run() vs the incremental start/tick/finish surface
# ----------------------------------------------------------------------
def _solr_orchestrator():
    sim = ClusterSimulation({"training": MACHINES["training"]}, seed=2)
    sim.deploy(
        solr_application(),
        {"solr": [Placement(node="training", cpu_limit=2.0)]},
    )
    return Orchestrator(sim, "solr", NoScalingPolicy(), rules=None)


class TestOrchestratorIncremental:
    def test_run_equals_start_tick_finish(self):
        workload = linear_ramp(60, 5, 90)
        batch_result = _solr_orchestrator().run({"solr": workload})

        orchestrator = _solr_orchestrator()
        orchestrator.start()
        for rate in workload:
            orchestrator.tick({"solr": rate})
        tick_result = orchestrator.finish()

        assert tick_result.duration == batch_result.duration == 60
        assert np.array_equal(
            tick_result.response_time, batch_result.response_time
        )
        assert np.array_equal(tick_result.throughput, batch_result.throughput)
        assert np.array_equal(tick_result.violations, batch_result.violations)
        assert np.array_equal(
            tick_result.extra_replicas, batch_result.extra_replicas
        )

    def test_tick_and_finish_require_start(self):
        orchestrator = _solr_orchestrator()
        with pytest.raises(RuntimeError, match="start"):
            orchestrator.tick({"solr": 1.0})
        with pytest.raises(RuntimeError, match="start"):
            orchestrator.finish()

    def test_finish_closes_the_run(self):
        orchestrator = _solr_orchestrator()
        orchestrator.start()
        orchestrator.tick({"solr": 1.0})
        orchestrator.finish()
        with pytest.raises(RuntimeError, match="start"):
            orchestrator.finish()


# ----------------------------------------------------------------------
# The streaming closed loop (policy level)
# ----------------------------------------------------------------------
def _teastore_sim(seed=0):
    from repro.datasets.experiments import evaluation_nodes, teastore_placements

    sim = ClusterSimulation(evaluation_nodes(), seed=seed)
    sim.deploy(teastore_application(), teastore_placements())
    return sim


class TestStreamingPolicy:
    def test_decisions_track_the_batch_path(self, tiny_model):
        """Without autoscaler feedback both data paths see the same
        cluster, so per-tick verdicts must mostly agree.  They are not
        expected to be identical: the batch path redraws synthetic
        telemetry noise for every sliding window (the RNG is keyed by
        the window start) while the stream measures each sample exactly
        once, so verdicts near the saturation boundary can flip."""
        sim = _teastore_sim()
        agent = TelemetryAgent(seed=0)
        batch_policy = MonitorlessPolicy(tiny_model, agent, window=16)
        stream_policy = MonitorlessPolicy(
            tiny_model, agent, window=16, streaming=True
        )
        workload = linear_ramp(70, 10, 220)
        agreements = 0
        for t, rate in enumerate(workload):
            sim.step({"teastore": float(rate)})
            batch_verdict = batch_policy.saturated_services(sim, "teastore", t)
            stream_verdict = stream_policy.saturated_services(
                sim, "teastore", t
            )
            agreements += batch_verdict == stream_verdict
        assert agreements >= 0.7 * len(workload)
        # One fleet row per live container.
        live = {
            instance.container.name
            for replicas in sim.deployments["teastore"].instances.values()
            for instance in replicas
        }
        assert stream_policy.fleet.index.pods_in("teastore") == live

    def test_streaming_closed_loop_with_scaling(self, tiny_model):
        sim = _teastore_sim()
        agent = TelemetryAgent(seed=0)
        policy = MonitorlessPolicy(tiny_model, agent, window=16, streaming=True)
        rules = ScalingRules(
            placements={
                "auth": Placement(node="M2", cpu_limit=2.0),
                "recommender": Placement(node="M2", cpu_limit=1.0),
            },
            replica_lifespan=30,
            scale_groups=(("auth", "recommender"),),
        )
        orchestrator = Orchestrator(sim, "teastore", policy, rules)
        duration = 90
        result = orchestrator.run({"teastore": linear_ramp(duration, 10, 260)})
        assert result.duration == duration
        assert len(result.extra_replicas) == duration
        # Scale-out replicas appear, are caught up, and leave the fleet
        # once their lifespan expires.
        assert result.total_scale_outs > 0
        fleet = policy.fleet
        live = {
            instance.container.name
            for replicas in sim.deployments["teastore"].instances.values()
            for instance in replicas
        }
        assert fleet.index.pods_in("teastore") <= live
        for row in fleet.index.live_rows():
            container = fleet.telemetry.container_at(row)
            assert fleet.telemetry.clock(row) == container.created_at + len(
                container.history
            )

    def test_streaming_policy_serves_one_cell(self, tiny_model):
        sim = _teastore_sim()
        policy = MonitorlessPolicy(
            tiny_model, TelemetryAgent(seed=0), window=16, streaming=True
        )
        sim.step({"teastore": 10.0})
        policy.saturated_services(sim, "teastore", 0)
        other = _teastore_sim()
        other.step({"teastore": 10.0})
        with pytest.raises(ValueError, match="one policy per cell"):
            policy.saturated_services(other, "teastore", 1)

    def test_edge_deployment_streaming_kwarg(self, tiny_model):
        from repro.orchestrator.edge import EdgeDeployment

        agent = TelemetryAgent(seed=0)
        edge = EdgeDeployment(tiny_model, agent, streaming=True)
        assert edge.policy.streaming is True
        assert EdgeDeployment(tiny_model, agent).policy.streaming is False


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestStreamCli:
    def test_stream_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["stream", "--model", "m.pkl"])
        assert args.command == "stream"
        assert args.model == "m.pkl"
        assert args.duration == 600
        assert args.batch is False
        assert args.seed == 0

    def test_stream_requires_model(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream"])
        capsys.readouterr()


# ----------------------------------------------------------------------
# Regression: MinMaxScaler on subnormal feature spans
# ----------------------------------------------------------------------
class TestMinMaxSubnormalSpan:
    def test_subnormal_span_stays_finite_and_in_range(self):
        from repro.ml.preprocessing import MinMaxScaler

        X = np.array([[0.0, 1.0], [5e-324, 1.0 + 2**-40]])
        scaled = MinMaxScaler().fit_transform(X)
        assert np.all(np.isfinite(scaled))
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)

    def test_workload_pattern_smoke(self):
        # constant() is used by streaming examples in the docs.
        assert np.all(constant(5, 3.0) == 3.0)
