"""Tests for SLO detection, autoscaling and the closed loop."""

import numpy as np
import pytest

from repro.apps.teastore import teastore_application
from repro.cluster.simulation import ClusterSimulation, Placement
from repro.core.thresholds import ThresholdBaseline
from repro.datasets.experiments import evaluation_nodes, teastore_placements
from repro.orchestrator.autoscaler import Autoscaler, ScalingRules
from repro.orchestrator.loop import Orchestrator
from repro.orchestrator.policies import (
    NoScalingPolicy,
    ResponseTimePolicy,
    ThresholdPolicy,
)
from repro.orchestrator.slo import SloPolicy, slo_violations, violated_last_tick
from repro.telemetry.agent import TelemetryAgent
from repro.workloads.patterns import constant, step_levels


class TestSlo:
    def test_high_rt_violates(self):
        violations = slo_violations(
            np.array([0.1, 0.8, 0.2]),
            np.zeros(3),
            np.full(3, 100.0),
        )
        assert violations.tolist() == [False, True, False]

    def test_drops_violate(self):
        violations = slo_violations(
            np.full(2, 0.1), np.array([0.0, 5.0]), np.full(2, 100.0)
        )
        assert violations.tolist() == [False, True]

    def test_custom_policy(self):
        policy = SloPolicy(max_average_response_time=0.2)
        violations = slo_violations(
            np.array([0.3]), np.zeros(1), np.ones(1), policy
        )
        assert violations[0]

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            SloPolicy(max_average_response_time=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            slo_violations(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_violated_last_tick_reads_only_the_last_second(self):
        kpis = {"response_time": [], "dropped": [], "offered": []}
        assert violated_last_tick(kpis) is False
        kpis = {
            "response_time": [0.9, 0.1],
            "dropped": [0.0, 0.0],
            "offered": [100.0, 100.0],
        }
        assert violated_last_tick(kpis) is False
        kpis["response_time"].append(0.2)
        kpis["dropped"].append(5.0)
        kpis["offered"].append(100.0)
        assert violated_last_tick(kpis) is True
        lenient = SloPolicy(max_failure_fraction=0.5, drop_tolerance=10.0)
        assert violated_last_tick(kpis, lenient) is False


def _teastore_sim():
    sim = ClusterSimulation(evaluation_nodes(), seed=0)
    sim.deploy(teastore_application(), teastore_placements())
    return sim


def _rules(**overrides):
    defaults = dict(
        placements={
            "auth": Placement(node="M2", cpu_limit=2.0),
            "recommender": Placement(node="M2", cpu_limit=1.0),
            "webui": Placement(node="M2", cpu_limit=1.0),
        },
        replica_lifespan=30,
    )
    defaults.update(overrides)
    return ScalingRules(**defaults)


class TestScalingRules:
    def test_group_coupling(self):
        rules = _rules(scale_groups=(("auth", "recommender"),))
        assert rules.expand({"auth"}) == {"auth", "recommender"}

    def test_unplaced_services_filtered(self):
        rules = _rules()
        assert rules.expand({"db"}) == set()

    def test_scalable_whitelist(self):
        rules = _rules(scalable=frozenset({"auth"}))
        assert rules.expand({"auth", "webui"}) == {"auth"}


class TestAutoscaler:
    def test_scale_out_and_expire(self):
        sim = _teastore_sim()
        scaler = Autoscaler(simulation=sim, application="teastore", rules=_rules())
        sim.step({"teastore": 10.0})
        scaler.act({"auth"}, t=0)
        assert sim.replica_counts("teastore")["auth"] == 2
        assert scaler.extra_replicas == 1
        # After the lifespan, the replica is retired.
        scaler.act(set(), t=31)
        assert sim.replica_counts("teastore")["auth"] == 1
        assert scaler.extra_replicas == 0

    def test_max_replicas_cap(self):
        sim = _teastore_sim()
        rules = _rules(max_replicas=2)
        scaler = Autoscaler(simulation=sim, application="teastore", rules=rules)
        sim.step({"teastore": 10.0})
        scaler.act({"auth"}, t=0)
        scaler.act({"auth"}, t=1)
        assert sim.replica_counts("teastore")["auth"] == 2  # capped

    def test_scale_out_counter(self):
        sim = _teastore_sim()
        scaler = Autoscaler(simulation=sim, application="teastore", rules=_rules())
        sim.step({"teastore": 10.0})
        scaler.act({"auth", "webui"}, t=0)
        assert scaler.total_scale_outs == 2


class TestPolicies:
    def test_threshold_policy_detects_hot_container(self):
        sim = _teastore_sim()
        agent = TelemetryAgent(seed=0)
        policy = ThresholdPolicy(ThresholdBaseline("cpu", 90.0, None), agent)
        for _ in range(20):
            sim.step({"teastore": 900.0})  # way past webui capacity
        saturated = policy.saturated_services(sim, "teastore", 19)
        assert "webui" in saturated

    def test_threshold_policy_quiet_when_idle(self):
        sim = _teastore_sim()
        agent = TelemetryAgent(seed=0)
        policy = ThresholdPolicy(ThresholdBaseline("cpu", 90.0, None), agent)
        for _ in range(5):
            sim.step({"teastore": 5.0})
        assert policy.saturated_services(sim, "teastore", 4) == set()

    def test_rt_policy_uses_kpi(self):
        sim = _teastore_sim()
        policy = ResponseTimePolicy(["auth", "recommender"], rt_threshold=0.5)
        for _ in range(10):
            sim.step({"teastore": 1500.0})
        assert policy.saturated_services(sim, "teastore", 9) == {
            "auth",
            "recommender",
        }

    def test_no_scaling_policy(self):
        sim = _teastore_sim()
        sim.step({"teastore": 1000.0})
        assert NoScalingPolicy().saturated_services(sim, "teastore", 0) == set()

    def test_monitorless_policy_runs(self, tiny_model):
        from repro.orchestrator.policies import MonitorlessPolicy

        sim = _teastore_sim()
        agent = TelemetryAgent(seed=0)
        policy = MonitorlessPolicy(tiny_model, agent)
        for _ in range(10):
            sim.step({"teastore": 300.0})
        saturated = policy.saturated_services(sim, "teastore", 9)
        assert isinstance(saturated, set)
        assert saturated <= set(teastore_application().service_names())


class TestOrchestratorLoop:
    def test_no_scaling_run_accounts_violations(self):
        sim = _teastore_sim()
        orchestrator = Orchestrator(sim, "teastore", NoScalingPolicy())
        workload = step_levels([20, 20], [50.0, 900.0])
        result = orchestrator.run({"teastore": workload})
        assert result.duration == 40
        assert result.slo_violation_count > 0
        assert result.average_provisioning == 0.0

    def test_rt_scaling_reduces_violations(self):
        def run(policy, rules):
            sim = _teastore_sim()
            orchestrator = Orchestrator(sim, "teastore", policy, rules)
            workload = step_levels([10, 60, 30], [100.0, 700.0, 100.0])
            return orchestrator.run({"teastore": workload})

        static = run(NoScalingPolicy(), None)
        scaled = run(
            ResponseTimePolicy(["auth", "recommender", "webui"], rt_threshold=0.4),
            _rules(replica_lifespan=60),
        )
        assert scaled.slo_violation_count < static.slo_violation_count
        assert scaled.average_provisioning > 0.0

    def test_result_row_shape(self):
        sim = _teastore_sim()
        orchestrator = Orchestrator(sim, "teastore", NoScalingPolicy())
        result = orchestrator.run({"teastore": constant(10, 50.0)})
        row = result.as_row()
        assert set(row) == {"algorithm", "provisioning", "slo_violations"}

    @pytest.mark.parametrize("duration", [0, 5])
    def test_run_reports_only_its_own_seconds(self, duration):
        """The seconds recorded before a run started are not part of
        it, not even when the run has no ticks."""
        sim = _teastore_sim()
        for _ in range(30):
            sim.step({"teastore": 900.0})
        orchestrator = Orchestrator(sim, "teastore", NoScalingPolicy(), _rules())
        result = orchestrator.run({"teastore": np.full(duration, 50.0)})
        assert result.duration == duration
        for series in (
            result.extra_replicas, result.violations, result.response_time,
            result.throughput, result.offered, result.dropped,
        ):
            assert series.size == duration
        response_time = sim._kpis["teastore"]["response_time"]
        assert result.response_time.tolist() == response_time[30:]

    def test_unknown_application_rejected(self):
        sim = _teastore_sim()
        with pytest.raises(ValueError, match="not deployed"):
            Orchestrator(sim, "nope", NoScalingPolicy())
