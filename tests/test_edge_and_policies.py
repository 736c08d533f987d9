"""Tests for edge offloading and additional policy behaviours."""

import numpy as np
import pytest

from repro.apps.teastore import teastore_application
from repro.cluster.simulation import ClusterSimulation
from repro.datasets.experiments import evaluation_nodes, teastore_placements
from repro.orchestrator.edge import EdgeDeployment, TrafficAccount
from repro.telemetry.agent import TelemetryAgent
from repro.workloads.patterns import linear_ramp


@pytest.fixture()
def teastore_sim():
    simulation = ClusterSimulation(evaluation_nodes(), seed=0)
    simulation.deploy(teastore_application(), teastore_placements())
    return simulation


class TestTrafficAccount:
    def test_reduction_factor(self):
        account = TrafficAccount(
            centralized_bytes=1e9, edge_bytes=1e6, samples=1000
        )
        assert account.reduction_factor == pytest.approx(1000.0)

    def test_zero_edge_bytes_infinite(self):
        account = TrafficAccount(centralized_bytes=1.0, edge_bytes=0.0, samples=1)
        assert account.reduction_factor == float("inf")

    def test_summary_keys(self):
        account = TrafficAccount(2e6, 1e3, 10)
        assert set(account.summary()) == {"centralized_MB", "edge_MB", "reduction"}


class TestEdgeDeployment:
    def test_per_sample_bytes_scale_with_catalog(self, tiny_model, teastore_sim):
        edge = EdgeDeployment(tiny_model, TelemetryAgent(seed=0))
        centralized = edge.per_sample_bytes(edge=False)
        at_edge = edge.per_sample_bytes(edge=True)
        assert centralized > 1040 * 8  # at least the raw float payload
        assert at_edge < 100

    def test_account_counts_replicas_and_duration(self, tiny_model, teastore_sim):
        edge = EdgeDeployment(tiny_model, TelemetryAgent(seed=0))
        account = edge.account(teastore_sim, "teastore", duration=100)
        assert account.samples == 7 * 100  # 7 single-replica services
        assert account.centralized_bytes > account.edge_bytes

    def test_edge_predictions_identical_to_policy(self, tiny_model, teastore_sim):
        agent = TelemetryAgent(seed=0)
        edge = EdgeDeployment(tiny_model, agent)
        for _ in range(10):
            teastore_sim.step({"teastore": 200.0})
        direct = edge.policy.saturated_services(teastore_sim, "teastore", 9)
        via_edge = edge.saturated_services(teastore_sim, "teastore", 9)
        assert direct == via_edge

    def test_cpu_overhead_estimate(self, tiny_model):
        edge = EdgeDeployment(tiny_model, TelemetryAgent(seed=0))
        assert edge.agent_cpu_overhead_estimate(0.005, 10) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            edge.agent_cpu_overhead_estimate(-1.0, 1)


class TestBatchedMonitorlessPolicy:
    """One classifier call per tick judges every container."""

    def test_no_history_returns_empty(self, tiny_model, teastore_sim):
        from repro.orchestrator.policies import MonitorlessPolicy

        policy = MonitorlessPolicy(tiny_model, TelemetryAgent(seed=0))
        assert policy.saturated_services(teastore_sim, "teastore", 0) == set()

    def test_view_matches_training_path(self, tiny_model, teastore_sim):
        """At every tick of a TeaStore ramp the serving view flags the
        services whose container the training path flags --
        ``predict`` on the container's whole recorded matrix, last row
        -- and each fleet feature row equals ``transform(...)[-1]``
        bitwise.  Counter-rate conversion is off: the batch converter
        back-fills a series' first rate from its second sample, which a
        per-tick stream cannot see."""
        from repro.orchestrator.policies import MonitorlessPolicy

        agent = TelemetryAgent(seed=0, convert_counters=False)
        meta = agent.catalog.feature_meta()
        policy = MonitorlessPolicy(tiny_model, agent)
        fleet = policy.fleet
        deployment = teastore_sim.deployments["teastore"]
        flagged_ticks = 0
        for t, rate in enumerate(linear_ramp(60, 10, 400)):
            teastore_sim.step({"teastore": float(rate)})
            saturated = policy.saturated_services(teastore_sim, "teastore", t)
            expected = set()
            for service, replicas in deployment.instances.items():
                for instance in replicas:
                    container = instance.container
                    matrix = agent.instance_matrix(container, teastore_sim.nodes)
                    row = fleet.index.row_of("teastore", container.name)
                    assert np.array_equal(
                        fleet.features.features[row],
                        tiny_model.transform(matrix, meta)[-1],
                    ), f"{container.name} at tick {t}"
                    if tiny_model.predict(matrix, meta)[-1] == 1:
                        expected.add(service)
            assert saturated == expected, f"tick {t}"
            flagged_ticks += bool(saturated)
        assert 0 < flagged_ticks < 60
        # One fleet row per live container.
        assert sorted(
            fleet.index.row_of("teastore", instance.container.name)
            for replicas in deployment.instances.values()
            for instance in replicas
        ) == fleet.index.live_rows()
