"""Tests for the fleet-scale vectorized serving path (`repro.fleet`):
row membership, bitwise telemetry/pipeline parity with the
per-container reference, decision equivalence with the per-container
chain of ``tests/serving_reference.py`` under clean, dropout and
full-chaos stacks, lifecycle observation order, serving-model swaps,
and per-shard checkpointed crash rescue of clean and chaos cells."""

import copy
import pickle

import numpy as np
import pytest

from repro import obs
from repro.fleet.features import FleetPipelineStream
from repro.fleet.membership import FleetIndex, FleetMember
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    FleetShardRunner,
    build_cell,
    default_fleet_workloads,
    make_fleet_specs,
)
from repro.fleet.policy import FleetPolicy
from repro.fleet.telemetry import FleetTelemetryStream
from repro.orchestrator.autoscaler import Autoscaler, ScalingRules
from repro.orchestrator.loop import Orchestrator, OrchestratorResult
from repro.orchestrator.policies import MonitorlessPolicy
from repro.reliability.checkpoint import CheckpointError
from repro.reliability.fallback import FallbackPolicy
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.catalog import default_catalog
from tests.serving_reference import (
    PipelineStream,
    ReferenceFallbackPolicy,
    ReferenceMonitorlessPolicy,
    open_reference_stream,
)
from tests.test_streaming import (
    TOY_CONFIGS,
    _toy_meta,
    fit_toy_pipeline,
    uses_pca,
)


def _member(namespace="cell-0", pod="teastore.auth.1", service="auth"):
    return FleetMember(
        namespace=namespace, pod=pod, container=service, deployment=service
    )


class TestFleetIndex:
    def test_rollup_key_is_namespace_deployment(self):
        member = _member()
        assert member.rollup_key == ("cell-0", "auth")

    def test_rows_are_assigned_and_reused_smallest_first(self):
        index = FleetIndex()
        rows = [index.add(_member(pod=f"teastore.auth.{i}")) for i in range(4)]
        assert rows == [0, 1, 2, 3]
        index.retire("cell-0", "teastore.auth.1")
        index.retire("cell-0", "teastore.auth.0")
        assert len(index) == 2
        # Retired rows come back smallest-first, deterministically.
        assert index.add(_member(pod="teastore.auth.9")) == 0
        assert index.add(_member(pod="teastore.auth.10")) == 1
        assert index.add(_member(pod="teastore.auth.11")) == 4
        assert index.capacity == 5

    def test_duplicate_and_namespace_scoping(self):
        index = FleetIndex()
        index.add(_member(namespace="a", pod="p"))
        index.add(_member(namespace="b", pod="p"))  # same pod, other cell
        with pytest.raises(ValueError):
            index.add(_member(namespace="a", pod="p"))
        assert index.live_rows() == [index.row_of("a", "p"), index.row_of("b", "p")]
        assert index.member_at(index.row_of("b", "p")).namespace == "b"


@pytest.fixture(scope="module", params=["tiny", *sorted(TOY_CONFIGS)])
def served_pipeline(request, tiny_model):
    """A fitted pipeline and its input meta: the default serving model
    on the metric catalog, or one toy pipeline shape."""
    if request.param == "tiny":
        return tiny_model.pipeline_, default_catalog().feature_meta()
    return fit_toy_pipeline(TOY_CONFIGS[request.param]), _toy_meta()


class TestFleetPipelineBitwise:
    def test_matches_per_container_streams_row_for_row(self, served_pipeline):
        """Staggered rows with NaNs produce the same engineered rows as
        dedicated PipelineStreams fed the full rows: bitwise, or within
        1e-9 relative where a PCA projection runs."""
        pipeline, meta = served_pipeline
        n_raw = len(meta)
        fleet = FleetPipelineStream(pipeline, meta, capacity=4)
        references = [PipelineStream(pipeline) for _ in range(3)]
        rng = np.random.default_rng(42)
        starts = [0, 0, 5]  # row 2 joins later, mid-run
        for t in range(14):
            rows, raws = [], []
            for row, start in enumerate(starts):
                if t < start:
                    continue
                raw = rng.uniform(0.0, 50.0, n_raw)
                if t % 4 == 1:
                    raw[rng.integers(0, n_raw, 7)] = np.nan
                rows.append(row)
                raws.append(raw)
            fleet.push_rows(
                np.asarray(rows, dtype=np.intp),
                np.asarray(raws)[:, fleet.raw_columns],
            )
            for row, raw in zip(rows, raws):
                expected = references[row].push(raw)
                got = fleet.features[row]
                if uses_pca(pipeline):
                    scale = np.abs(expected).max()
                    assert np.abs(got - expected).max() <= 1e-9 * scale, (
                        f"row {row} diverged at tick {t}"
                    )
                else:
                    assert np.array_equal(got, expected), (
                        f"row {row} diverged at tick {t}"
                    )

    def test_a_push_split_into_chunks_is_bitwise_one_push(
        self, tiny_model, monkeypatch
    ):
        """Row chunking is a partition over row-independent math: a
        push served one row per chunk equals the single-chunk push."""
        meta = default_catalog().feature_meta()
        whole = FleetPipelineStream(tiny_model.pipeline_, meta, capacity=5)
        monkeypatch.setattr("repro.fleet.features._CHUNK_VALUES", 1)
        chunked = FleetPipelineStream(tiny_model.pipeline_, meta, capacity=5)
        chunk_sizes = []
        push_chunk = chunked._push_chunk

        def counting_push_chunk(rows, raw):
            chunk_sizes.append(rows.size)
            push_chunk(rows, raw)

        chunked._push_chunk = counting_push_chunk
        rng = np.random.default_rng(3)
        rows = np.arange(5, dtype=np.intp)
        for t in range(8):
            raw = rng.uniform(0.0, 50.0, (5, len(meta)))
            if t % 3 == 1:
                raw[rng.integers(0, 5, 4), rng.integers(0, len(meta), 4)] = (
                    np.nan
                )
            whole.push_rows(rows, raw[:, whole.raw_columns])
            chunked.push_rows(rows, raw[:, chunked.raw_columns])
            assert np.array_equal(chunked.features, whole.features)
        assert chunk_sizes == [1] * 5 * 8

    def test_unservable_reduction_is_refused_when_built(self, tiny_model):
        pipeline = copy.copy(tiny_model.pipeline_)
        pipeline.reduction2_ = object()
        with pytest.raises(TypeError, match="reduction2_"):
            FleetPipelineStream(
                pipeline, default_catalog().feature_meta(), capacity=1
            )

    def test_reset_rows_restarts_a_series(self, tiny_model):
        meta = default_catalog().feature_meta()
        fleet = FleetPipelineStream(tiny_model.pipeline_, meta, capacity=2)
        rng = np.random.default_rng(7)
        width = fleet.raw_columns.size
        raw = rng.uniform(0.0, 50.0, (1, width))
        rows = np.asarray([0], dtype=np.intp)
        fleet.push_rows(rows, raw)
        first = fleet.features[0].copy()
        fleet.push_rows(rows, rng.uniform(0.0, 50.0, (1, width)))
        fleet.reset_rows(rows)
        assert not fleet.has_features[0]
        fleet.push_rows(rows, raw)
        assert np.array_equal(fleet.features[0], first)

    def test_a_push_of_another_width_is_refused(self, tiny_model):
        meta = default_catalog().feature_meta()
        fleet = FleetPipelineStream(tiny_model.pipeline_, meta, capacity=1)
        rows = np.asarray([0], dtype=np.intp)
        with pytest.raises(ValueError, match="raw_columns"):
            fleet.push_rows(rows, np.zeros((1, len(meta))))
        assert not fleet.has_features[0]


class TestFleetTelemetryBitwise:
    def test_fast_path_matches_instance_streams(self):
        """Grouped host synthesis equals per-container streams bitwise."""
        spec = make_fleet_specs(1, base_seed=3)[0]
        cell = build_cell(spec)
        agent = cell.agent
        assert type(agent) is TelemetryAgent
        deployment = cell.simulation.deployments[cell.application]
        containers = [
            instance.container
            for replicas in deployment.instances.values()
            for instance in replicas
        ]
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=len(containers),
        )
        for row, container in enumerate(containers):
            fleet.add_row(
                row, spec.namespace, agent, container, cell.simulation.nodes
            )
        references = [
            open_reference_stream(agent, container, cell.simulation.nodes)
            for container in containers
        ]
        for t in range(8):
            cell.simulation.step({cell.application: 40.0})
            fleet.begin_tick()
            emitted = fleet.advance_round()
            assert emitted.tolist() == list(range(len(containers)))
            assert fleet.advance_round().size == 0  # caught up
            for row, stream in enumerate(references):
                assert np.array_equal(fleet.raw[row], stream.emit()), (
                    f"row {row} diverged at tick {t}"
                )
        assert np.all(fleet.completeness[: len(containers)] == 1.0)


def _drive_reference_cell(spec, model, workload, *, use_fallback=False,
                          recovery_ticks=2, autoscaler=None):
    """Per-container reference loop for one cell; returns per-tick
    saturated sets, extras, and the policy object."""
    cell = build_cell(spec)
    if autoscaler is not None:
        cell.autoscaler = autoscaler(cell)
    primary = ReferenceMonitorlessPolicy(model, cell.agent)
    if use_fallback:
        policy = ReferenceFallbackPolicy(
            primary, cell.secondary, recovery_ticks=recovery_ticks
        )
    else:
        policy = primary
    decisions, extras = [], []
    for t in range(len(workload)):
        cell.simulation.step({cell.application: float(workload[t])})
        saturated = policy.saturated_services(
            cell.simulation, cell.application, t
        )
        cell.autoscaler.act(saturated, t)
        decisions.append(set(saturated))
        extras.append(cell.autoscaler.extra_replicas)
    return decisions, extras, policy, cell


def _short_rules():
    """TeaStore scaling rules whose replicas retire after 8 ticks."""
    base = build_cell(make_fleet_specs(1)[0]).autoscaler.rules
    return ScalingRules(
        placements=base.placements,
        replica_lifespan=8,
        scale_groups=base.scale_groups,
    )


class TestFleetEquivalence:
    def _assert_decisions_match(self, fleet_result, specs, per_cell):
        ticks = len(fleet_result.decisions)
        for t in range(ticks):
            want = {
                (spec.namespace, service)
                for spec in specs
                for service in per_cell[spec.namespace][t]
            }
            assert set(fleet_result.decisions[t]) == want, f"tick {t}"

    def test_clean_cells_match_reference_decisions(self, tiny_model):
        ticks = 45
        specs = make_fleet_specs(3, base_seed=0, kind="teastore")
        workloads = default_fleet_workloads(3, ticks, seed=0)
        runner = FleetShardRunner(0, specs, tiny_model)
        runner.start()
        for t in range(ticks):
            runner.tick(workloads[:, t])
        fleet = runner.finish()

        per_cell = {}
        for row, spec in enumerate(specs):
            decisions, extras, _, _ = _drive_reference_cell(
                spec, tiny_model, workloads[row]
            )
            per_cell[spec.namespace] = decisions
            assert np.array_equal(
                fleet.cells[spec.namespace].extra_replicas,
                np.asarray(extras, dtype=np.float64),
            )
        self._assert_decisions_match(fleet, specs, per_cell)
        # The run must actually exercise the loop: some saturation
        # decisions and some scale-outs.
        assert sum(len(d) for d in fleet.decisions) > 0
        assert fleet.cells[specs[0].namespace].total_scale_outs > 0

    def test_dropout_cells_match_reference_decisions(self, tiny_model):
        ticks = 40
        specs = make_fleet_specs(2, base_seed=0, kind="teastore-dropout")
        workloads = default_fleet_workloads(2, ticks, seed=0)
        runner = FleetShardRunner(0, specs, tiny_model)
        runner.start()
        for t in range(ticks):
            runner.tick(workloads[:, t])
        fleet = runner.finish()
        per_cell = {}
        for row, spec in enumerate(specs):
            decisions, extras, _, _ = _drive_reference_cell(
                spec, tiny_model, workloads[row]
            )
            per_cell[spec.namespace] = decisions
            assert np.array_equal(
                fleet.cells[spec.namespace].extra_replicas,
                np.asarray(extras, dtype=np.float64),
            )
        self._assert_decisions_match(fleet, specs, per_cell)

    def test_chaos_cells_match_fallback_chain(self, tiny_model):
        """Full chaos stack: decisions, health states and fallback
        counters all equal the per-container FallbackPolicy chain."""
        ticks = 40
        specs = make_fleet_specs(2, base_seed=0, kind="teastore-chaos")
        workloads = default_fleet_workloads(2, ticks, seed=0)
        runner = FleetShardRunner(0, specs, tiny_model)
        runner.policy.configure_fallback(failsafe="hold", recovery_ticks=2)
        runner.start()
        for t in range(ticks):
            runner.tick(workloads[:, t])
        fleet = runner.finish()

        per_cell, ref_health = {}, {}
        ref_counters = dict.fromkeys(
            ("demotions", "recoveries", "failsafe_entries", "failsafe_ticks"),
            0,
        )
        for row, spec in enumerate(specs):
            decisions, extras, policy, _ = _drive_reference_cell(
                spec, tiny_model, workloads[row], use_fallback=True
            )
            per_cell[spec.namespace] = decisions
            assert np.array_equal(
                fleet.cells[spec.namespace].extra_replicas,
                np.asarray(extras, dtype=np.float64),
            )
            for pod, state in policy.health.items():
                ref_health[(spec.namespace, pod)] = state
            for key in ref_counters:
                ref_counters[key] += getattr(policy, key)
        self._assert_decisions_match(fleet, specs, per_cell)
        assert fleet.health == ref_health
        assert {k: fleet.counters[k] for k in ref_counters} == ref_counters
        # Chaos must actually demote something or the parity is vacuous.
        assert fleet.counters["demotions"] > 0

    def test_chaos_fleet_obs_counters_match_fallback_chain(self, tiny_model):
        """With obs on, the fleet's ``fallback.*`` counters equal the
        per-container FallbackPolicy chain's."""
        ticks = 40
        specs = make_fleet_specs(2, base_seed=0, kind="teastore-chaos")
        workloads = default_fleet_workloads(2, ticks, seed=0)
        names = ("demotions", "recoveries", "failsafe_entries", "failsafe_ticks")

        def fallback_counters(run):
            obs.reset()
            obs.enable()
            try:
                run()
                counters = obs.snapshot()["counters"]
            finally:
                obs.disable()
                obs.reset()
            return {
                name: counters.get(f"fallback.{name}", 0.0) for name in names
            }

        def fleet_run():
            runner = FleetShardRunner(0, specs, tiny_model)
            runner.policy.configure_fallback(failsafe="hold", recovery_ticks=2)
            runner.start()
            for t in range(ticks):
                runner.tick(workloads[:, t])
            return runner.finish()

        def reference_run():
            for row, spec in enumerate(specs):
                _drive_reference_cell(
                    spec, tiny_model, workloads[row], use_fallback=True
                )

        fleet_counters = fallback_counters(fleet_run)
        assert fleet_counters == fallback_counters(reference_run)
        assert fleet_counters["demotions"] > 0
        assert fleet_counters["recoveries"] > 0
        # The counters mirror the policy's own attributes.
        fleet = fleet_run()
        assert fleet_counters == {
            name: float(fleet.counters[name]) for name in names
        }

    def test_scale_in_retires_and_reuses_rows(self, tiny_model):
        """Short replica lifespans force scale-in mid-run; fleet rows
        are retired/reused and decisions still match the reference."""
        ticks = 50
        spec = make_fleet_specs(1, base_seed=1, kind="teastore")[0]
        workload = default_fleet_workloads(1, ticks, seed=1)[0]

        cell = build_cell(spec)
        cell.autoscaler = Autoscaler(
            simulation=cell.simulation, application=cell.application,
            rules=_short_rules(),
        )
        policy = FleetPolicy(tiny_model)
        policy.add_cell(
            spec.namespace, cell.simulation, cell.application, cell.agent
        )
        fleet_decisions = []
        for t in range(ticks):
            cell.simulation.step({cell.application: float(workload[t])})
            saturated = policy.saturated_services(t)
            cell.autoscaler.act(
                {s for ns, s in saturated if ns == spec.namespace}, t
            )
            fleet_decisions.append(saturated)

        ref_decisions, _, _, ref_cell = _drive_reference_cell(
            spec, tiny_model, workload,
            autoscaler=lambda c: Autoscaler(
                simulation=c.simulation, application=c.application,
                rules=_short_rules(),
            ),
        )
        for t in range(ticks):
            want = {(spec.namespace, s) for s in ref_decisions[t]}
            assert fleet_decisions[t] == want, f"tick {t}"
        # Scale-in actually happened and freed matrix rows for reuse:
        # without reuse, capacity would equal the 7 baseline containers
        # plus every scale-out replica ever added.
        assert cell.autoscaler.total_scale_outs > 1
        assert policy.index.capacity < 7 + cell.autoscaler.total_scale_outs


class _RecordingManager:
    """Stands in for a ``LifecycleManager``: serves a fixed champion and
    records every ``observe`` call bitwise."""

    def __init__(self, champion):
        self.champion = champion
        self.calls = []

    def observe(self, t, features, flags, completeness=None):
        features = np.asarray(features)
        self.calls.append((
            t,
            features.shape,
            features.tobytes(),
            np.asarray(flags).tolist(),
            np.asarray(completeness, dtype=np.float64).tolist(),
        ))


class TestLifecycleObservationOrder:
    def test_view_observes_like_the_reference_chain(self, tiny_model):
        """Through scale-out and scale-in (which reuses rows) the view
        hands its lifecycle manager the same rows, in the same order,
        as the per-container chain: membership order, not row order."""
        ticks = 50
        spec = make_fleet_specs(1, base_seed=1, kind="teastore")[0]
        workload = default_fleet_workloads(1, ticks, seed=1)[0]
        recorded = {}
        for name, policy_class in (
            ("reference", ReferenceMonitorlessPolicy),
            ("view", MonitorlessPolicy),
        ):
            cell = build_cell(spec)
            cell.autoscaler = Autoscaler(
                simulation=cell.simulation, application=cell.application,
                rules=_short_rules(),
            )
            manager = _RecordingManager(tiny_model)
            policy = policy_class(tiny_model, cell.agent, lifecycle=manager)
            extras = []
            for t in range(ticks):
                cell.simulation.step({cell.application: float(workload[t])})
                cell.autoscaler.act(
                    policy.saturated_services(
                        cell.simulation, cell.application, t
                    ),
                    t,
                )
                extras.append(cell.autoscaler.extra_replicas)
            recorded[name] = manager.calls
            # The run scales out and back in, so rows are reused.
            assert cell.autoscaler.total_scale_outs > 1
            assert any(b < a for a, b in zip(extras, extras[1:]))
        assert len(recorded["view"]) == ticks
        assert recorded["view"] == recorded["reference"]


def _foreign_pipeline_model(model):
    """A copy of ``model`` whose feature pipeline was fitted elsewhere:
    the same feature count, so its classifier would silently score the
    serving pipeline's columns."""
    other = pickle.loads(pickle.dumps(model))
    other.pipeline_.scaler_.mean_ = other.pipeline_.scaler_.mean_ + 1.0
    return other


def _drive_ramp(policy, cell, ticks, start=0):
    decisions = []
    for t in range(start, start + ticks):
        cell.simulation.step({cell.application: 40.0 + 8.0 * t})
        decisions.append(
            policy.saturated_services(cell.simulation, cell.application, t)
        )
    return decisions


class TestServingModelSwap:
    """A new serving model must keep the feature pipeline the fleet's
    rows were built with; every entry point refuses another one before
    a tick is served."""

    def test_monitorless_policy_refuses_another_pipeline(self, tiny_model):
        cell = build_cell(make_fleet_specs(1)[0])
        policy = MonitorlessPolicy(tiny_model, cell.agent)
        _drive_ramp(policy, cell, 3)
        with pytest.raises(ValueError, match="feature pipeline"):
            policy.model = _foreign_pipeline_model(tiny_model)
        assert policy.model is tiny_model

    def test_fallback_policy_refuses_another_pipeline(self, tiny_model):
        cell = build_cell(make_fleet_specs(1, kind="teastore-chaos")[0])
        policy = FallbackPolicy(
            MonitorlessPolicy(tiny_model, cell.agent), cell.secondary
        )
        _drive_ramp(policy, cell, 3)
        with pytest.raises(ValueError, match="feature pipeline"):
            policy.model = _foreign_pipeline_model(tiny_model)
        assert policy.model is tiny_model

    def test_resume_refuses_another_pipeline(self, tiny_model, tmp_path):
        cell = build_cell(make_fleet_specs(1)[0])
        orchestrator = Orchestrator(
            cell.simulation, cell.application,
            MonitorlessPolicy(tiny_model, cell.agent),
            cell.autoscaler.rules,
        )
        orchestrator.start()
        for t in range(4):
            orchestrator.tick({cell.application: 40.0 + 8.0 * t})
        path = tmp_path / "stream.ckpt"
        orchestrator.save_checkpoint(path)
        with pytest.raises(CheckpointError, match="refusing to swap"):
            Orchestrator.resume_from(
                path, model=_foreign_pipeline_model(tiny_model)
            )

    def test_promotion_and_reloaded_copy_are_served(self, tiny_model,
                                                   tmp_path):
        """A ``refit_classifier`` challenger (aliased pipeline) and a
        copy of the serving model reloaded from disk are accepted; the
        copy leaves every verdict unchanged."""
        path = tmp_path / "model.pkl"
        tiny_model.save(path)
        reference = build_cell(make_fleet_specs(1)[0])
        expected = _drive_ramp(
            MonitorlessPolicy(tiny_model, reference.agent), reference, 30
        )

        cell = build_cell(make_fleet_specs(1)[0])
        policy = MonitorlessPolicy(tiny_model, cell.agent)
        decisions = _drive_ramp(policy, cell, 10)
        rng = np.random.default_rng(0)
        challenger = tiny_model.refit_classifier(
            rng.normal(size=(40, tiny_model.n_engineered_features_)),
            np.arange(40) % 2,
        )
        policy.model = challenger
        assert policy.model is challenger
        policy.model = tiny_model
        reloaded = type(tiny_model).load(path)
        assert reloaded.pipeline_ is not tiny_model.pipeline_
        policy.model = reloaded
        assert policy.model is reloaded
        decisions += _drive_ramp(policy, cell, 20, start=10)
        assert decisions == expected
        assert any(decisions)


class TestFleetKillResume:
    def test_worker_loss_midrun_is_bitwise_rescued(self, tiny_model,
                                                   tmp_path):
        """Kill shard 0's worker at tick 20; the parent rescue resumes
        from the tick-16 checkpoint and the fleet result is bitwise
        identical to an uninterrupted run."""
        ticks = 35
        specs = make_fleet_specs(4, base_seed=0, kind="teastore")
        workloads = default_fleet_workloads(4, ticks, seed=0)
        clean = FleetOrchestrator(
            specs, tiny_model, n_shards=2, n_jobs=2
        ).run(workloads)
        # A not-yet-existing nested directory must be created on run().
        crashed = FleetOrchestrator(
            specs, tiny_model, n_shards=2, n_jobs=2,
            checkpoint_dir=tmp_path / "nested" / "checkpoints",
            checkpoint_interval=8,
            die_at_tick={0: 20},
        ).run(workloads)
        # The crash really happened: shard 0 was resumed from its last
        # checkpoint before the kill tick.
        assert crashed.shard_results[0].resumed_from_tick == 16
        assert crashed.decisions == clean.decisions
        for namespace in clean.cells:
            for attribute in ("extra_replicas", "violations",
                              "response_time", "throughput"):
                assert np.array_equal(
                    getattr(clean.cells[namespace], attribute),
                    getattr(crashed.cells[namespace], attribute),
                ), f"{namespace}.{attribute}"
            assert (
                clean.cells[namespace].total_scale_outs
                == crashed.cells[namespace].total_scale_outs
            )

    def test_chaos_worker_loss_inside_blackout_is_bitwise_rescued(
        self, tiny_model, tmp_path
    ):
        """Chaos cells checkpoint their per-row fault state: kill shard
        0's worker inside the tick 20-28 stream blackout and the rescued
        fleet is bitwise identical to an uninterrupted run."""
        ticks = 35
        specs = make_fleet_specs(4, base_seed=0, kind="teastore-chaos")
        workloads = default_fleet_workloads(4, ticks, seed=0)
        clean = FleetOrchestrator(
            specs, tiny_model, n_shards=2, n_jobs=2
        ).run(workloads)
        crashed = FleetOrchestrator(
            specs, tiny_model, n_shards=2, n_jobs=2,
            checkpoint_dir=tmp_path / "checkpoints",
            checkpoint_interval=6,
            die_at_tick={0: 26},
        ).run(workloads)
        # Resumed from the tick-24 checkpoint, mid-blackout.
        assert crashed.shard_results[0].resumed_from_tick == 24
        assert crashed.decisions == clean.decisions
        assert crashed.health == clean.health
        assert crashed.counters == clean.counters
        assert clean.counters["demotions"] > 0
        for namespace in clean.cells:
            for attribute in ("extra_replicas", "violations",
                              "response_time", "throughput"):
                assert np.array_equal(
                    getattr(clean.cells[namespace], attribute),
                    getattr(crashed.cells[namespace], attribute),
                ), f"{namespace}.{attribute}"

    @staticmethod
    def _checkpointed_run(model, ticks, checkpoint_dir):
        specs = make_fleet_specs(2, base_seed=0, kind="teastore")
        return FleetOrchestrator(
            specs, model, n_shards=1, n_jobs=1,
            checkpoint_dir=checkpoint_dir, checkpoint_interval=8,
        ).run(default_fleet_workloads(2, ticks, seed=0))

    def test_checkpoint_of_another_run_is_refused(self, tiny_model,
                                                   tmp_path):
        """A 60-tick run finds the checkpoint a 40-tick run left in the
        same directory: resuming it would replay the other run's first
        ticks, so it raises and names the file."""
        self._checkpointed_run(tiny_model, 40, tmp_path)
        with pytest.raises(CheckpointError, match="shard-000.ckpt"):
            self._checkpointed_run(tiny_model, 60, tmp_path)

    def test_checkpoint_of_another_model_is_refused(self, tiny_model,
                                                    tmp_path):
        self._checkpointed_run(tiny_model, 20, tmp_path)
        other = pickle.loads(pickle.dumps(tiny_model))
        other.prediction_threshold = 0.55
        with pytest.raises(CheckpointError, match="refusing to swap"):
            self._checkpointed_run(other, 20, tmp_path)

    def test_repeated_run_resumes_its_own_checkpoint(self, tiny_model,
                                                     tmp_path):
        """The same run again resumes from the tick-32 checkpoint and
        equals a run without checkpoints bit for bit."""
        fresh = self._checkpointed_run(tiny_model, 36, None)
        self._checkpointed_run(tiny_model, 36, tmp_path)
        repeated = self._checkpointed_run(tiny_model, 36, tmp_path)
        assert repeated.shard_results[0].resumed_from_tick == 32
        assert repeated.decisions == fresh.decisions
        assert repeated.counters == fresh.counters
        assert repeated.health == fresh.health
        for namespace, cell in fresh.cells.items():
            for attribute in ("extra_replicas", "violations",
                              "response_time", "throughput"):
                assert np.array_equal(
                    getattr(cell, attribute),
                    getattr(repeated.cells[namespace], attribute),
                ), f"{namespace}.{attribute}"

    def test_sharding_is_invariant_under_n_jobs_and_n_shards(
        self, tiny_model
    ):
        """PR 2's determinism contract extends to the fleet: decisions
        are identical for serial, 2-shard and 4-shard runs."""
        ticks = 25
        specs = make_fleet_specs(4, base_seed=0, kind="teastore")
        workloads = default_fleet_workloads(4, ticks, seed=0)
        serial = FleetOrchestrator(
            specs, tiny_model, n_shards=1, n_jobs=None
        ).run(workloads)
        two = FleetOrchestrator(
            specs, tiny_model, n_shards=2, n_jobs=2
        ).run(workloads)
        four = FleetOrchestrator(
            specs, tiny_model, n_shards=4, n_jobs=2
        ).run(workloads)
        assert serial.decisions == two.decisions == four.decisions
        for namespace in serial.cells:
            assert np.array_equal(
                serial.cells[namespace].extra_replicas,
                two.cells[namespace].extra_replicas,
            )
            assert np.array_equal(
                serial.cells[namespace].extra_replicas,
                four.cells[namespace].extra_replicas,
            )


class TestOrchestratorGuards:
    """Satellite fixes in the per-container Orchestrator."""

    def test_run_with_empty_workloads_has_its_own_error(self):
        spec = make_fleet_specs(1)[0]
        cell = build_cell(spec)
        orchestrator = Orchestrator(
            cell.simulation, cell.application,
            MonitorlessPolicyStub(), rules=None,
        )
        with pytest.raises(ValueError, match="at least one workload"):
            orchestrator.run({})

    def test_average_provisioning_guards_zero_baseline(self):
        def result(extra, baseline):
            return OrchestratorResult(
                policy_name="stub", duration=len(extra),
                baseline_containers=baseline,
                extra_replicas=np.asarray(extra, dtype=np.float64),
                violations=np.zeros(len(extra)),
                response_time=np.zeros(len(extra)),
                throughput=np.zeros(len(extra)),
                offered=np.zeros(len(extra)),
                dropped=np.zeros(len(extra)),
                total_scale_outs=0,
            )

        assert result([0.0, 0.0], 0).average_provisioning == 0.0
        assert result([], 0).average_provisioning == 0.0
        assert result([2.0], 0).average_provisioning == float("inf")
        assert result([2.0, 2.0], 4).average_provisioning == 0.5


class TestShardRunnerGuards:
    """The shard runner refuses to run unstarted, and a zero-tick run
    reports none of the seconds recorded before it."""

    def test_tick_before_start_raises_and_steps_nothing(self, tiny_model):
        runner = FleetShardRunner(0, make_fleet_specs(2), tiny_model)
        with pytest.raises(RuntimeError, match="start"):
            runner.tick([50.0, 50.0])
        assert [cell.simulation.clock for cell in runner.cells] == [0, 0]
        with pytest.raises(RuntimeError, match="start"):
            runner.finish()

    def test_zero_tick_run_reports_empty_series(self, tiny_model):
        runner = FleetShardRunner(0, make_fleet_specs(2), tiny_model)
        for _ in range(5):
            runner.lockstep.step(
                [{cell.application: 80.0} for cell in runner.cells]
            )
        runner.start()
        result = runner.finish()
        assert len(result.cells) == 2
        for cell in result.cells.values():
            assert cell.duration == 0
            assert cell.response_time.size == 0
            assert cell.violations.size == 0
            assert cell.extra_replicas.size == 0


class MonitorlessPolicyStub:
    name = "stub"

    def saturated_services(self, simulation, application, t):
        return set()
