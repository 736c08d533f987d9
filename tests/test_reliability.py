"""Tests for the degradation-tolerant serving layer
(`repro.reliability`): telemetry resilience, the policy fallback
chain, checkpoint/resume equivalence and the chaos harness."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps.solr import solr_application
from repro.apps.teastore import teastore_application
from repro.cluster.faults import (
    DiskDegradation,
    FaultSchedule,
    MetricDropout,
    NodeSlowdown,
)
from repro.cluster.node import MACHINES
from repro.cluster.simulation import ClusterSimulation, Placement
from repro.core.thresholds import ThresholdBaseline
from repro.datasets.experiments import (
    evaluation_nodes,
    teastore_placements,
    teastore_scaling_rules,
)
from repro.fleet.orchestrator import build_cell, make_fleet_specs
from repro.fleet.telemetry import FleetTelemetryStream
from repro.orchestrator.loop import Orchestrator
from repro.orchestrator.policies import MonitorlessPolicy, ThresholdPolicy
from repro.reliability.chaos import (
    ChaosAgent,
    ChaosConfig,
    TelemetryBlackout,
    _telemetry_summary,
    run_chaos,
)
from repro.reliability.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
    write_record,
)
from repro.reliability.fallback import (
    DEGRADED,
    FAILSAFE,
    HEALTHY,
    RECOVERING,
    FallbackPolicy,
)
from repro.reliability.telemetry import (
    ResilientTelemetry,
    TelemetryFault,
    TelemetryUnavailable,
)
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.store import MetricFrame, UnknownMetricError
from repro.workloads.patterns import constant, linear_ramp
from tests.serving_reference import (
    MetricStream,
    ResilientInstanceStream,
    open_reference_stream,
)


# ----------------------------------------------------------------------
# Shared scenario helpers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def solr_run():
    simulation = ClusterSimulation(
        {"training": MACHINES["training"]}, seed=0
    )
    simulation.deploy(
        solr_application(), {"solr": [Placement(node="training")]}
    )
    return simulation.run({"solr": constant(40, 300.0)})


class _ScriptedStream:
    """Instance-stream wrapper failing per a scripted {tick: mode} plan.

    Modes: ``"hard"`` fails every attempt of that tick, ``"transient"``
    fails the first attempt only, ``"nan"`` delivers the row with its
    first five entries NaN-ed.
    """

    def __init__(self, inner, plan):
        self.inner = inner
        self.plan = dict(plan)
        self._delayed = set()
        self.attempts = 0

    @property
    def container(self):
        return self.inner.container

    @property
    def tail(self):
        return self.inner.tail

    @property
    def clock(self):
        return self.inner.clock

    def emit(self):
        t = self.inner.clock
        self.attempts += 1
        mode = self.plan.get(t, "ok")
        if mode == "hard":
            raise TelemetryFault(f"scripted hard failure at {t}")
        if mode == "transient" and t not in self._delayed:
            self._delayed.add(t)
            raise TelemetryFault(f"scripted delayed reading at {t}")
        row = self.inner.emit()
        if mode == "nan":
            row = row.copy()
            row[:5] = np.nan
            self.inner.tail.amend_last(row)
        return row

    def skip(self):
        self.inner.skip()


def _open_resilient(solr_run, plan, **kwargs):
    agent = TelemetryAgent(seed=0)
    inner = open_reference_stream(agent, solr_run.containers[0], solr_run.nodes)
    return ResilientInstanceStream(_ScriptedStream(inner, plan), **kwargs)


def _clean_rows(solr_run, n):
    agent = TelemetryAgent(seed=0)
    stream = open_reference_stream(
        agent, solr_run.containers[0], solr_run.nodes
    )
    return np.vstack([stream.emit() for _ in range(n)])


# ----------------------------------------------------------------------
# Satellite: descriptive store errors + safe-subset API
# ----------------------------------------------------------------------
class TestUnknownMetricError:
    def _frame(self):
        return MetricFrame(np.arange(6.0).reshape(2, 3), ["a", "b", "c"])

    def test_select_names_missing_and_available(self):
        with pytest.raises(UnknownMetricError) as info:
            self._frame().select(["a", "ghost", "phantom"])
        message = str(info.value)
        assert "ghost" in message and "phantom" in message
        assert "a" in message  # lists what IS available

    def test_is_a_keyerror(self):
        with pytest.raises(KeyError):
            self._frame().column("ghost")

    def test_has_metric(self):
        frame = self._frame()
        assert frame.has_metric("b")
        assert not frame.has_metric("ghost")

    def test_select_available_skips_unknown(self):
        subset = self._frame().select_available(["c", "ghost", "a"])
        assert subset.columns == ["c", "a"]
        assert np.array_equal(subset.values, [[2.0, 0.0], [5.0, 3.0]])

    def test_select_available_all_unknown_is_empty(self):
        subset = self._frame().select_available(["x", "y"])
        assert subset.shape == (2, 0)


class TestMetricStreamCompleteness:
    def test_default_push_is_complete(self):
        stream = MetricStream(["a", "b"], capacity=4)
        stream.push([1.0, 2.0])
        assert stream.last_completeness() == 1.0

    def test_flagged_push_and_window(self):
        stream = MetricStream(["a"], capacity=3)
        for completeness in (1.0, 0.25, 0.0, 1.0, 0.5):
            stream.push([0.0], completeness=completeness)
        # capacity 3: the retained tail is the last three pushes.
        assert np.array_equal(
            stream.completeness_window(), [0.0, 1.0, 0.5]
        )
        assert stream.last_completeness() == 0.5

    def test_amend_last_rewrites_row_and_flag(self):
        stream = MetricStream(["a", "b"], capacity=2)
        stream.push([1.0, 2.0])
        stream.amend_last([9.0, 9.0], completeness=0.5)
        assert np.array_equal(stream.last(), [9.0, 9.0])
        assert stream.last_completeness() == 0.5
        assert stream.total == 1  # amending is not a new tick

    def test_amend_empty_stream_raises(self):
        with pytest.raises(ValueError, match="empty"):
            MetricStream(["a"], capacity=2).amend_last([1.0])

    def test_invalid_completeness_rejected(self):
        stream = MetricStream(["a"], capacity=2)
        with pytest.raises(ValueError, match="completeness"):
            stream.push([1.0], completeness=1.5)

    def test_has_metric(self):
        stream = MetricStream(["a"], capacity=2)
        assert stream.has_metric("a") and not stream.has_metric("z")


# ----------------------------------------------------------------------
# Tentpole 1: telemetry resilience
# ----------------------------------------------------------------------
class TestResilientStream:
    def test_clean_passthrough_is_bitwise(self, solr_run):
        stream = _open_resilient(solr_run, {})
        rows = np.vstack([stream.emit() for _ in range(20)])
        assert np.array_equal(rows, _clean_rows(solr_run, 20))
        assert stream.staleness == 0 and stream.imputed_ticks == 0

    def test_transient_failure_is_retried(self, solr_run):
        stream = _open_resilient(solr_run, {3: "transient"}, max_retries=2)
        rows = np.vstack([stream.emit() for _ in range(10)])
        assert np.array_equal(rows, _clean_rows(solr_run, 10))
        assert stream.retries == 1
        assert stream.lost_ticks == 0

    def test_backoff_is_deterministic_and_surfaced(self, solr_run):
        stream = _open_resilient(solr_run, {2: "hard"}, max_retries=3)
        obs.reset()
        obs.enable()
        try:
            for _ in range(5):
                stream.emit()
            backoff = obs.snapshot()["histograms"][
                "resilience.retry_backoff_seconds"
            ]
        finally:
            obs.disable()
            obs.reset()
        # The three retries of tick 2 back off 0.05, 0.1 and 0.2 s.
        assert backoff["count"] == 3
        assert backoff["sum"] == pytest.approx(0.35)

    def test_hard_failure_imputes_under_budget(self, solr_run):
        stream = _open_resilient(
            solr_run, {4: "hard", 5: "hard"}, staleness_budget=3
        )
        rows = [stream.emit() for _ in range(10)]
        clean = _clean_rows(solr_run, 10)
        # Ticks 4 and 5 repeat the last real row (tick 3)...
        assert np.array_equal(rows[4], clean[3])
        assert np.array_equal(rows[5], clean[3])
        # ... are flagged in the tail ...
        assert np.array_equal(
            stream.tail.completeness_window()[-6:],
            [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        )
        assert stream.imputed_ticks == 2
        # ... and staleness resets on the next real reading.
        assert stream.staleness == 0

    def test_budget_exhaustion_raises_then_recovers(self, solr_run):
        plan = {t: "hard" for t in range(3, 9)}
        stream = _open_resilient(solr_run, plan, staleness_budget=2)
        outcomes = []
        for _ in range(12):
            try:
                stream.emit()
                outcomes.append("row")
            except TelemetryUnavailable:
                outcomes.append("unavailable")
        # Ticks 3-4 imputed, 5-8 over budget, 9+ real again.
        assert outcomes == (
            ["row"] * 3 + ["row"] * 2 + ["unavailable"] * 4 + ["row"] * 3
        )
        # The clock advanced through the outage -- one bad tick can
        # never wedge the stream.
        assert stream.clock == 12
        assert stream.staleness == 0

    def test_no_prior_observation_raises(self, solr_run):
        stream = _open_resilient(solr_run, {0: "hard"}, staleness_budget=5)
        with pytest.raises(TelemetryUnavailable, match="no prior"):
            stream.emit()
        # The next tick delivers normally.
        row = stream.emit()
        assert row.shape == (1040,)

    def test_budget_zero_disables_imputation(self, solr_run):
        stream = _open_resilient(solr_run, {2: "hard"}, staleness_budget=0)
        stream.emit()
        stream.emit()
        with pytest.raises(TelemetryUnavailable, match="budget 0"):
            stream.emit()

    def test_nan_masking_carries_last_value(self, solr_run):
        stream = _open_resilient(solr_run, {5: "nan"})
        rows = [stream.emit() for _ in range(8)]
        clean = _clean_rows(solr_run, 8)
        assert np.array_equal(rows[5][:5], clean[4][:5])  # masked cells
        assert np.array_equal(rows[5][5:], clean[5][5:])  # the rest is live
        assert not np.isnan(np.vstack(rows)).any()
        assert stream.masked_values == 5
        assert stream.tail.completeness_window()[-3] < 1.0

    def test_nan_at_stream_start_masks_to_zero(self, solr_run):
        stream = _open_resilient(solr_run, {0: "nan"})
        row = stream.emit()
        assert np.array_equal(row[:5], np.zeros(5))

    def test_agent_wrapper_passthrough(self, solr_run):
        agent = TelemetryAgent(seed=0)
        resilient = ResilientTelemetry(agent, staleness_budget=2)
        container = solr_run.containers[0]
        assert np.array_equal(
            resilient.instance_matrix(container, solr_run.nodes),
            agent.instance_matrix(container, solr_run.nodes),
        )
        stream = open_reference_stream(resilient, container, solr_run.nodes)
        assert isinstance(stream, ResilientInstanceStream)
        assert stream.staleness_budget == 2

    def test_invalid_parameters(self, solr_run):
        agent = TelemetryAgent(seed=0)
        with pytest.raises(ValueError):
            ResilientTelemetry(agent, staleness_budget=-1)
        with pytest.raises(ValueError):
            ResilientTelemetry(agent, max_retries=-1)


class TestDropoutThroughResilience:
    """Fault-injection edge cases end-to-end through the new layer."""

    def _resilient_dropout(self, solr_run, probability):
        dropout = MetricDropout(
            TelemetryAgent(seed=0), probability=probability, seed=1
        )
        resilient = ResilientTelemetry(dropout, staleness_budget=3)
        return open_reference_stream(
            resilient, solr_run.containers[0], solr_run.nodes
        )

    def test_zero_probability_is_identity(self, solr_run):
        stream = self._resilient_dropout(solr_run, 0.0)
        rows = np.vstack([stream.emit() for _ in range(25)])
        assert np.array_equal(rows, _clean_rows(solr_run, 25))

    def test_total_dropout_freezes_at_first_row(self, solr_run):
        stream = self._resilient_dropout(solr_run, 1.0)
        rows = np.vstack([stream.emit() for _ in range(25)])
        assert np.array_equal(rows[1:], np.tile(rows[0], (24, 1)))
        # Dropout delivers (held) readings, so nothing is ever imputed.
        assert stream.imputed_ticks == 0

    def test_streaming_dropout_matches_batch(self, solr_run):
        """Opened at creation, the dropout stream reproduces the batch
        dropout matrix bitwise (modulo the documented first-tick
        counter-rate divergence, removed here via convert_counters)."""
        dropout = MetricDropout(
            TelemetryAgent(seed=0, convert_counters=False),
            probability=0.4,
            seed=1,
        )
        container = solr_run.containers[0]
        batch = dropout.instance_matrix(container, solr_run.nodes)
        stream = open_reference_stream(dropout, container, solr_run.nodes)
        rows = np.vstack([stream.emit() for _ in range(40)])
        assert np.array_equal(rows, batch)

    def test_dropout_flags_completeness(self, solr_run):
        dropout = MetricDropout(TelemetryAgent(seed=0), probability=0.5, seed=1)
        stream = open_reference_stream(
            dropout, solr_run.containers[0], solr_run.nodes
        )
        for _ in range(10):
            stream.emit()
        flags = stream.tail.completeness_window()
        assert flags[0] == 1.0  # first row always fully observed
        assert (flags[1:] < 1.0).any()


# ----------------------------------------------------------------------
# Satellite: FaultSchedule composition order
# ----------------------------------------------------------------------
class TestFaultCompositionOrder:
    def test_overlapping_faults_compose_in_sorted_order(self):
        # Integer core rounding makes slowdown composition order
        # observable: 0.7 then 0.55 gives round(round(48*.7)*.55)=19,
        # the reverse gives 18.
        a = NodeSlowdown(node="training", factor=0.7, start=0, end=20)
        b = NodeSlowdown(node="training", factor=0.55, start=2, end=20)
        results = []
        for faults in ([a, b], [b, a]):
            simulation = ClusterSimulation(
                {"training": MACHINES["training"]}, seed=0
            )
            schedule = FaultSchedule(faults)
            pristine = schedule.pristine_specs(simulation)
            schedule.apply_tick(simulation, pristine, 5)
            results.append(simulation.nodes["training"].spec.cores)
            schedule.restore(simulation, pristine)
            assert simulation.nodes["training"].spec.cores == 48
        # List order must not matter, and the defined order is sorted
        # by (start, class name): a (start 0) before b (start 2).
        assert results[0] == results[1] == 19

    def test_equal_start_sorts_by_class_name(self):
        slow = NodeSlowdown(node="training", factor=0.5, start=0, end=10)
        disk = DiskDegradation(node="training", factor=0.5, start=0, end=10)
        schedule = FaultSchedule([slow, disk])
        ordered = schedule._by_node["training"]
        assert [type(f).__name__ for f in ordered] == [
            "DiskDegradation",
            "NodeSlowdown",
        ]

    def test_run_results_independent_of_list_order(self):
        a = NodeSlowdown(node="training", factor=0.7, start=5, end=25)
        b = NodeSlowdown(node="training", factor=0.55, start=10, end=30)
        outcomes = []
        for faults in ([a, b], [b, a]):
            simulation = ClusterSimulation(
                {"training": MACHINES["training"]}, seed=0
            )
            simulation.deploy(
                solr_application(), {"solr": [Placement(node="training")]}
            )
            result = FaultSchedule(faults).run(
                simulation, {"solr": constant(40, 600.0)}
            )
            outcomes.append(result.kpi("solr", "throughput"))
        assert np.array_equal(outcomes[0], outcomes[1])


# ----------------------------------------------------------------------
# Tentpole 2: the fallback chain
# ----------------------------------------------------------------------
def _teastore_simulation(seed=0):
    simulation = ClusterSimulation(evaluation_nodes(), seed=seed)
    simulation.deploy(teastore_application(), teastore_placements())
    return simulation


def _fallback_setup(
    tiny_model,
    blackouts,
    *,
    budget=2,
    failsafe="hold",
    recovery_ticks=2,
    state_failure_probability=0.0,
):
    simulation = _teastore_simulation()
    config = ChaosConfig(
        dropout_probability=0.0,
        hard_failure_probability=0.0,
        transient_failure_probability=0.0,
        nan_probability=0.0,
        state_failure_probability=state_failure_probability,
        blackouts=tuple(blackouts),
        node_faults=(),
        staleness_budget=budget,
    )
    chaotic = ChaosAgent(TelemetryAgent(seed=0), config)
    resilient = ResilientTelemetry(chaotic, staleness_budget=budget)
    primary = MonitorlessPolicy(tiny_model, resilient)
    secondary = ThresholdPolicy(
        ThresholdBaseline(
            kind="cpu-or-mem", cpu_threshold=80.0, mem_threshold=80.0
        ),
        chaotic,
    )
    policy = FallbackPolicy(
        primary, secondary, failsafe=failsafe, recovery_ticks=recovery_ticks
    )
    return simulation, policy


class _ExplodingClassifier:
    def __init__(self, error):
        self.error = error

    def predict_proba(self, X):
        raise self.error("classifier down")


def broken_model(model, error):
    """A copy of ``model`` whose classifier raises ``error``."""
    broken = copy.copy(model)
    broken.classifier_ = _ExplodingClassifier(error)
    return broken


def _drive(simulation, policy, ticks, rate=30.0):
    timeline = []
    for t in range(ticks):
        simulation.step({"teastore": rate})
        saturated = policy.saturated_services(simulation, "teastore", t)
        timeline.append((set(policy.health.values()), saturated))
    return timeline


class TestFallbackPolicy:
    def test_requires_streaming_primary(self, tiny_model):
        """The streaming fleet view is the only primary there is: a
        batch primary cannot be built at all."""
        with pytest.raises(ValueError, match="streaming"):
            MonitorlessPolicy(
                tiny_model, TelemetryAgent(seed=0), streaming=False
            )

    def test_invalid_failsafe_rejected(self, tiny_model):
        simulation, policy = _fallback_setup(tiny_model, [])
        with pytest.raises(ValueError, match="failsafe"):
            FallbackPolicy(
                policy.primary, policy.secondary, failsafe="panic"
            )

    @pytest.mark.parametrize("setting", [{"recovery_ticks": 0}])
    def test_invalid_settings_leave_the_fleet_unchanged(
        self, tiny_model, setting
    ):
        simulation, policy = _fallback_setup(tiny_model, [])
        fleet = policy.fleet
        before = (fleet.failsafe, fleet.recovery_ticks)
        with pytest.raises(ValueError, match=next(iter(setting))):
            FallbackPolicy(policy.primary, policy.secondary, **setting)
        assert (fleet.failsafe, fleet.recovery_ticks) == before

    def test_healthy_on_clean_telemetry(self, tiny_model):
        simulation, policy = _fallback_setup(tiny_model, [])
        _drive(simulation, policy, 5)
        assert set(policy.health.values()) == {HEALTHY}
        assert policy.demotions == 0 and policy.recoveries == 0

    def test_demotion_and_recovery_cycle(self, tiny_model):
        # budget=2: blackout ticks 5-6 imputed, 7+ demoted; clears at 12.
        blackout = TelemetryBlackout(5, 12, scope="stream")
        simulation, policy = _fallback_setup(tiny_model, [blackout])
        _drive(simulation, policy, 8)
        assert set(policy.health.values()) == {DEGRADED}
        assert policy.demotions >= len(policy.health)
        _drive(simulation, policy, 4)  # ticks 8..11 still dark
        assert set(policy.health.values()) == {DEGRADED}
        _drive(simulation, policy, 1)  # tick 12: first clean reading
        assert set(policy.health.values()) == {RECOVERING}
        _drive(simulation, policy, 1)  # second success: recovered
        assert set(policy.health.values()) == {HEALTHY}
        assert policy.recoveries >= len(policy.health)

    def test_failsafe_hold_vs_scale_up(self, tiny_model):
        blackout = TelemetryBlackout(3, 10, scope="both")
        for failsafe, expect_all in (("hold", False), ("scale-up", True)):
            simulation, policy = _fallback_setup(
                tiny_model, [blackout], budget=0, failsafe=failsafe
            )
            timeline = _drive(simulation, policy, 6)
            assert set(policy.health.values()) == {FAILSAFE}
            assert policy.failsafe_entries >= len(policy.health)
            _, saturated = timeline[-1]
            if expect_all:
                assert saturated == set(
                    simulation.deployments["teastore"].instances
                )
            else:
                assert saturated == set()

    def test_classifier_failure_demotes_all(self, tiny_model, monkeypatch):
        simulation, policy = _fallback_setup(tiny_model, [])
        _drive(simulation, policy, 3)
        assert set(policy.health.values()) == {HEALTHY}

        monkeypatch.setattr(
            policy, "model", broken_model(tiny_model, RuntimeError)
        )
        simulation.step({"teastore": 30.0})
        saturated = policy.saturated_services(simulation, "teastore", 3)
        assert set(policy.health.values()) == {DEGRADED}
        assert isinstance(saturated, set)

    def test_obs_counters_exported(self, tiny_model):
        blackout = TelemetryBlackout(2, 8, scope="stream")
        simulation, policy = _fallback_setup(
            tiny_model, [blackout], budget=0, recovery_ticks=1
        )
        obs.reset()
        obs.enable()
        try:
            _drive(simulation, policy, 10)
            snapshot = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()
        counters = snapshot["counters"]
        assert counters["fallback.demotions"] >= 1
        assert counters["fallback.recoveries"] >= 1
        gauges = snapshot["gauges"]
        assert gauges["fallback.containers_healthy"] == len(policy.health)


# ----------------------------------------------------------------------
# Tentpole 3: checkpoint / resume
# ----------------------------------------------------------------------
def _threshold_orchestrator(seed=0):
    simulation = _teastore_simulation(seed)
    policy = ThresholdPolicy(
        ThresholdBaseline(
            kind="cpu-or-mem", cpu_threshold=60.0, mem_threshold=80.0
        ),
        TelemetryAgent(seed=seed),
    )
    return Orchestrator(
        simulation, "teastore", policy, teastore_scaling_rules()
    )


def _monitorless_orchestrator(tiny_model, seed=0):
    simulation = _teastore_simulation(seed)
    blackout = TelemetryBlackout(20, 28, scope="stream")
    config = ChaosConfig(
        dropout_probability=0.1,
        hard_failure_probability=0.02,
        transient_failure_probability=0.03,
        nan_probability=0.02,
        state_failure_probability=0.0,
        blackouts=(blackout,),
        node_faults=(),
        staleness_budget=3,
    )
    chaotic = ChaosAgent(
        MetricDropout(TelemetryAgent(seed=seed), probability=0.1, seed=1),
        config,
    )
    resilient = ResilientTelemetry(chaotic, staleness_budget=3)
    primary = MonitorlessPolicy(tiny_model, resilient)
    secondary = ThresholdPolicy(
        ThresholdBaseline(
            kind="cpu-or-mem", cpu_threshold=80.0, mem_threshold=80.0
        ),
        chaotic,
    )
    policy = FallbackPolicy(primary, secondary, recovery_ticks=2)
    return Orchestrator(
        simulation, "teastore", policy, teastore_scaling_rules()
    )


def _run_to_end(orchestrator, workload, start=0):
    for t in range(start, len(workload)):
        orchestrator.tick({"teastore": float(workload[t])})
    return orchestrator.finish()


class TestCheckpointResume:
    def test_kill_and_resume_is_bitwise_at_three_ticks(self, tmp_path):
        """The core equivalence: checkpoint at tick k, discard the
        original, resume from disk, finish -- decisions and KPI
        timelines must be bitwise identical to the uninterrupted run,
        for three different checkpoint ticks."""
        duration = 70
        workload = linear_ramp(duration, 10, 260)
        reference = _threshold_orchestrator()
        reference.start()
        result = _run_to_end(reference, workload)

        for checkpoint_tick in (9, 33, 58):
            orchestrator = _threshold_orchestrator()
            orchestrator.start()
            for t in range(checkpoint_tick):
                orchestrator.tick({"teastore": float(workload[t])})
            path = tmp_path / f"ckpt_{checkpoint_tick}.bin"
            header = orchestrator.save_checkpoint(path)
            assert header["tick"] == checkpoint_tick
            del orchestrator  # the "crash"

            resumed = Orchestrator.resume_from(path)
            out = _run_to_end(resumed, workload, start=checkpoint_tick)
            assert np.array_equal(out.extra_replicas, result.extra_replicas)
            assert np.array_equal(out.violations, result.violations)
            assert np.array_equal(out.response_time, result.response_time)
            assert np.array_equal(out.throughput, result.throughput)
            assert out.total_scale_outs == result.total_scale_outs

    def test_resume_preserves_streams_and_health_under_chaos(
        self, tiny_model, tmp_path
    ):
        """Resume mid-outage with the full resilience stack: streaming
        state (rolling features, RNGs, staleness, health machine) must
        round-trip so decisions *and telemetry rows* stay bitwise
        identical."""
        duration = 45
        workload = linear_ramp(duration, 10, 260)
        checkpoint_tick = 23  # inside the blackout window

        def telemetry_state(orchestrator):
            fleet = orchestrator.policy.fleet
            rows = fleet.index.live_rows()
            return {
                fleet.telemetry.container_at(row).name: (
                    fleet.telemetry.raw[row].tobytes(),
                    float(fleet.telemetry.completeness[row]),
                    int(fleet.telemetry.staleness[row]),
                )
                for row in rows
            }

        reference = _monitorless_orchestrator(tiny_model)
        reference.start()
        for t in range(checkpoint_tick):
            reference.tick({"teastore": float(workload[t])})
        at_checkpoint = telemetry_state(reference)
        # The checkpoint lands mid-outage: some rows are imputing.
        assert any(staleness for _, _, staleness in at_checkpoint.values())
        result = _run_to_end(reference, workload, start=checkpoint_tick)

        orchestrator = _monitorless_orchestrator(tiny_model)
        orchestrator.start()
        for t in range(checkpoint_tick):
            orchestrator.tick({"teastore": float(workload[t])})
        path = tmp_path / "chaos.ckpt"
        orchestrator.save_checkpoint(path)
        del orchestrator

        resumed = Orchestrator.resume_from(path)
        assert telemetry_state(resumed) == at_checkpoint
        out = _run_to_end(resumed, workload, start=checkpoint_tick)
        assert np.array_equal(out.extra_replicas, result.extra_replicas)
        assert np.array_equal(out.violations, result.violations)
        assert np.array_equal(out.response_time, result.response_time)
        assert out.total_scale_outs == result.total_scale_outs
        assert resumed.policy.health == reference.policy.health
        assert resumed.policy.demotions == reference.policy.demotions
        assert resumed.policy.recoveries == reference.policy.recoveries
        assert telemetry_state(resumed) == telemetry_state(reference)

    def test_header_readable_without_unpickling(self, tmp_path):
        orchestrator = _threshold_orchestrator()
        orchestrator.start()
        path = tmp_path / "fresh.ckpt"
        orchestrator.save_checkpoint(path)
        header = read_header(path)
        assert header["application"] == "teastore"
        assert header["format"] == 1
        assert not path.with_name(path.name + ".tmp").exists()  # atomic

    def test_corrupt_files_raise_checkpoint_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

        orchestrator = _threshold_orchestrator()
        orchestrator.start()
        good = tmp_path / "good.ckpt"
        orchestrator.save_checkpoint(good)
        blob = good.read_bytes()
        truncated = tmp_path / "truncated.ckpt"
        truncated.write_bytes(blob[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(truncated)
        flipped = tmp_path / "flipped.ckpt"
        flipped.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(flipped)
        with pytest.raises(CheckpointError, match="read"):
            load_checkpoint(tmp_path / "missing.ckpt")


def _sha256_key_renamed(header):
    return header.replace(b'"sha256"', b'"sha257"')


def _list_header(header):
    return b"[1]"


def _sha256_number(header):
    start = header.index(b'"sha256": "') + len(b'"sha256": ')
    end = header.index(b'"', start + 1) + 1
    return header[:start] + b"5" + header[end:]


def _format_bool(header):
    return header.replace(b'"format": 1', b'"format": true')


class TestCorruptCheckpoints:
    """Damaged record files fail with :class:`CheckpointError`, never a
    bare exception, and never load a wrong state."""

    @pytest.mark.parametrize(
        "damage",
        [_sha256_key_renamed, _list_header, _sha256_number, _format_bool],
    )
    def test_corrupt_header_raises_checkpoint_error(self, tmp_path, damage):
        path = tmp_path / "state.ckpt"
        write_record(path, {"a": 1}, {"tick": 3})
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n" + damage(header) + b"\n" + payload)
        with pytest.raises(CheckpointError):
            read_header(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_truncated_or_flipped_checkpoint(self, tmp_path_factory, data):
        state = SimpleNamespace(
            application="teastore",
            policy=SimpleNamespace(name="threshold"),
            _t=3,
            replicas=[1, 2, 2],
        )
        path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[:offset]
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            damaged = (
                blob[:offset] + bytes([blob[offset] ^ mask]) + blob[offset + 1:]
            )
        path.write_bytes(damaged)
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            return
        assert loaded == state


# ----------------------------------------------------------------------
# Tentpole 4: the chaos harness
# ----------------------------------------------------------------------
class TestChaosHarness:
    def test_blackout_validation(self):
        with pytest.raises(ValueError):
            TelemetryBlackout(5, 5)
        with pytest.raises(ValueError):
            TelemetryBlackout(0, 5, scope="everything")

    def test_seeded_chaos_completes_and_recovers(self, tiny_model):
        """The acceptance scenario: >= 10% dropout plus injected agent
        exceptions; the loop completes, the fallback chain records
        demotions and recoveries via obs counters, and the
        SLO-violation delta stays within the documented bound."""
        report = run_chaos(tiny_model, duration=120, seed=0)
        assert report.obs_counters["fallback.demotions"] >= 1
        assert report.obs_counters["fallback.recoveries"] >= 1
        assert report.imputed_ticks > 0
        assert report.retries > 0
        assert report.readings_dropped > 0
        assert report.within_bound
        assert (
            report.chaos_violations - report.clean_violations
            <= report.violation_bound
        )
        # Every container ends the run healthy: faults cleared, chain
        # recovered.
        assert set(report.health_final.values()) == {HEALTHY}
        # The safe-subset summary only contains metrics that exist.
        assert "not.a.metric" not in report.telemetry_summary

    def test_summary_holds_delivered_cells_only(self):
        """Every summarized metric is one the row delivers, with its
        delivered value; undelivered and unknown names are skipped."""
        spec = make_fleet_specs(1)[0]
        cell = build_cell(spec)
        catalog = cell.agent.catalog
        names = catalog.names()
        # kernel.all.cpu.util is delivered, mem.util.used_pct is not.
        columns = np.array([names.index("kernel.all.cpu.util"), 5, 1000])
        fleet = FleetTelemetryStream(catalog, columns, capacity=1)
        container = next(iter(
            cell.simulation.deployments[cell.application].instances.values()
        ))[0].container
        fleet.add_row(
            0, spec.namespace, cell.agent, container, cell.simulation.nodes
        )
        for _ in range(3):
            cell.simulation.step({cell.application: 60.0})
            fleet.begin_tick()
            fleet.advance_round()
        summary = _telemetry_summary(fleet, 0)
        assert summary["container"] == container.name
        assert summary["completeness"] == fleet.completeness[0]
        metrics = set(summary) - {"container", "completeness"}
        assert metrics == {"kernel.all.cpu.util"}
        delivered = [names[column] for column in fleet.columns]
        for name in metrics:
            assert summary[name] == fleet.raw[0, delivered.index(name)]

    def test_chaos_is_deterministic(self, tiny_model):
        first = run_chaos(tiny_model, duration=60, seed=7)
        second = run_chaos(tiny_model, duration=60, seed=7)
        assert first.to_dict() == second.to_dict()

    def test_obs_state_restored(self, tiny_model):
        assert not obs.enabled()
        run_chaos(tiny_model, duration=40, seed=0)
        assert not obs.enabled()
        assert obs.snapshot()["counters"] == {}
