"""Tests for the cluster substrate: queueing, cgroups, nodes, engine."""

import pickle

import numpy as np
import pytest

from repro.apps.solr import solr_application
from repro.cluster.cgroup import CFS_PERIODS_PER_SECOND, CpuCgroup, MemoryCgroup
from repro.cluster.container import (
    BOTTLENECKS,
    F_BOTTLENECK,
    F_NR_THROTTLED,
    N_COLUMNS,
    N_FIELDS,
    Container,
)
from repro.cluster.node import MACHINES, Node, NodeSpec
from repro.cluster.queueing import (
    BacklogQueue,
    erlang_c,
    mm1_response_time,
    mmc_response_time,
    utilization,
)
from repro.cluster.resources import GIB, Resource
from repro.cluster.simulation import ClusterSimulation, Placement, _arbitrate
from repro.workloads.patterns import constant, linear_ramp


class TestQueueing:
    def test_utilization_basic(self):
        assert utilization(5.0, 10.0) == 0.5
        assert utilization(0.0, 0.0) == 0.0

    def test_mm1_grows_hyperbolically(self):
        low = mm1_response_time(0.01, 0.1)
        high = mm1_response_time(0.01, 0.9)
        assert np.isclose(low, 0.01 / 0.9)
        assert np.isclose(high, 0.1)

    def test_mm1_capped_at_saturation(self):
        assert mm1_response_time(0.01, 5.0, max_factor=60.0) == 0.6

    def test_erlang_c_bounds(self):
        assert erlang_c(4, 0.0) == 0.0
        assert erlang_c(4, 4.0) == 1.0
        assert 0.0 < erlang_c(4, 2.0) < 1.0

    def test_erlang_c_monotone_in_load(self):
        values = [erlang_c(8, load) for load in (1.0, 3.0, 5.0, 7.0)]
        assert values == sorted(values)

    def test_mmc_more_servers_less_waiting(self):
        slow = mmc_response_time(0.1, 8.0, servers=1)
        fast = mmc_response_time(0.1, 8.0, servers=4)
        assert fast <= slow

    def test_backlog_queue_completes_under_capacity(self):
        queue = BacklogQueue()
        completed, dropped = queue.offer(10.0, 100.0)
        assert completed == 10.0 and dropped == 0.0
        assert queue.backlog == 0.0

    def test_backlog_accumulates_and_drains(self):
        queue = BacklogQueue()
        queue.offer(100.0, 60.0)
        assert queue.backlog == 40.0
        completed, _ = queue.offer(0.0, 60.0)
        assert completed == 40.0
        assert queue.backlog == 0.0

    def test_drops_beyond_patience(self):
        queue = BacklogQueue(timeout=2.0)
        _, dropped = queue.offer(1000.0, 10.0)
        # Sustainable backlog is 2 s x 10/s = 20; the rest times out.
        assert dropped == 1000.0 - 10.0 - 20.0
        assert queue.backlog == 20.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            BacklogQueue().offer(-1.0, 10.0)
        with pytest.raises(ValueError):
            mm1_response_time(0.1, -0.5)


class TestCpuCgroup:
    def test_unlimited_never_throttles(self):
        account = CpuCgroup(None).account(10.0, node_share=48.0)
        assert account.nr_throttled == 0
        assert account.used_cores == 10.0

    def test_demand_over_quota_throttles(self):
        cgroup = CpuCgroup(2.0)
        account = cgroup.account(4.0, node_share=48.0)
        assert account.used_cores == 2.0
        assert account.nr_throttled == CFS_PERIODS_PER_SECOND

    def test_mild_overshoot_partial_throttling(self):
        account = CpuCgroup(2.0).account(2.5, node_share=48.0)
        assert 0 < account.nr_throttled < CFS_PERIODS_PER_SECOND

    def test_quota_utilization_relative_to_quota(self):
        account = CpuCgroup(2.0).account(1.0, node_share=48.0)
        assert np.isclose(account.quota_utilization, 50.0)

    def test_node_share_limits_unquota(self):
        account = CpuCgroup(None).account(10.0, node_share=4.0)
        assert account.used_cores == 4.0

    def test_invalid_quota(self):
        with pytest.raises(ValueError):
            CpuCgroup(0.0)


class TestMemoryCgroup:
    def test_unlimited_fully_resident(self):
        account = MemoryCgroup(None).account(1e9, 10e9, 1e6)
        assert account.resident_working_set == 10e9
        assert account.page_in_bytes == 0.0

    def test_limit_causes_page_in(self):
        # 8 GB limit, 1 GB base -> 7 GB of a 14 GB working set resident.
        account = MemoryCgroup(8 * GIB).account(1 * GIB, 14 * GIB, 1e6)
        assert np.isclose(account.resident_working_set, 7 * GIB)
        assert np.isclose(account.page_in_bytes, 0.5e6)

    def test_limit_utilization_capped(self):
        account = MemoryCgroup(4 * GIB).account(8 * GIB, 0.0, 0.0)
        assert account.limit_utilization == 100.0

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            MemoryCgroup(1e9).account(-1.0, 0.0, 0.0)


class TestNode:
    def test_fair_share_undersubscribed_grants_full(self):
        # Each demand in full, plus the 7.0 the node leaves idle.
        assert _arbitrate([1.0, 2.0], 10.0) == [8.0, 9.0]

    def test_fair_share_oversubscribed_proportional(self):
        assert _arbitrate([6.0, 2.0], 4.0) == [3.0, 1.0]

    def test_fair_share_rejects_negative(self):
        with pytest.raises(ValueError):
            _arbitrate([-1.0], 4.0)

    def test_machine_inventory(self):
        assert MACHINES["training"].cores == 48
        assert MACHINES["M1"].cores == 10
        assert MACHINES["M2"].cores == 12
        assert MACHINES["M3"].cores == 8
        assert MACHINES["M3"].os == "ubuntu-16.04"

    def test_container_placement_bookkeeping(self):
        node = Node(spec=MACHINES["M1"])
        container = Container(name="c", service="s", application="a")
        node.add_container(container)
        assert container.node == "M1"
        with pytest.raises(ValueError, match="already"):
            node.add_container(container)
        node.remove_container(container)
        assert container.node is None

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            NodeSpec(name="bad", cores=0, memory_bytes=1.0,
                     disk_bandwidth=1.0, network_bandwidth=1.0)


class TestSimulationEngine:
    def _solr_sim(self, cpu_limit=None):
        sim = ClusterSimulation({"training": MACHINES["training"]}, seed=0)
        sim.deploy(
            solr_application(),
            {"solr": [Placement(node="training", cpu_limit=cpu_limit)]},
        )
        return sim

    def test_throughput_tracks_light_load(self):
        sim = self._solr_sim()
        result = sim.run({"solr": constant(30, 100.0)})
        throughput = result.kpi("solr", "throughput")
        assert np.allclose(throughput, 100.0, rtol=0.05)

    def test_throughput_caps_at_capacity(self):
        sim = self._solr_sim()
        result = sim.run({"solr": linear_ramp(300, 1, 1500)})
        # Capacity = 48 cores / 0.06 s per request = 800 req/s.
        assert abs(result.kpi("solr", "throughput").max() - 800.0) < 20.0

    def test_quota_shrinks_capacity(self):
        sim = self._solr_sim(cpu_limit=3.0)
        result = sim.run({"solr": linear_ramp(100, 1, 200)})
        assert abs(result.kpi("solr", "throughput").max() - 50.0) < 5.0

    def test_response_time_elbows_at_saturation(self):
        sim = self._solr_sim()
        result = sim.run({"solr": linear_ramp(200, 1, 1500)})
        rt = result.kpi("solr", "response_time")
        assert rt[-1] > 10 * rt[0]

    def test_deep_saturation_drops_requests(self):
        sim = self._solr_sim()
        result = sim.run({"solr": constant(30, 5000.0)})
        assert result.kpi("solr", "dropped").max() > 0

    def test_interference_reduces_capacity(self):
        """Two CPU-heavy apps on one host squeeze each other."""
        sim = ClusterSimulation({"training": MACHINES["training"]}, seed=0)
        a = solr_application()
        a.name = "solr-a"
        b = solr_application()
        b.name = "solr-b"
        sim.deploy(a, {"solr": [Placement(node="training")]})
        sim.deploy(b, {"solr": [Placement(node="training")]})
        result = sim.run({"solr-a": constant(60, 700.0), "solr-b": constant(60, 700.0)})
        # Each alone would handle 700 < 800; together they exceed 48 cores.
        assert result.kpi("solr-a", "throughput")[-1] < 680.0

    def test_replica_scaling_splits_load(self):
        sim = ClusterSimulation({"training": MACHINES["training"]}, seed=0)
        sim.deploy(
            solr_application(),
            {"solr": [Placement(node="training", cpu_limit=3.0)]},
        )
        sim.add_replica("solr", "solr", Placement(node="training", cpu_limit=3.0))
        result = sim.run({"solr": constant(40, 90.0)})
        # Two 3-core replicas handle ~100 req/s; one alone caps at 50.
        assert result.kpi("solr", "throughput")[-1] > 85.0

    def test_remove_replica_keeps_minimum(self):
        sim = self._solr_sim()
        with pytest.raises(ValueError, match="at least one"):
            sim.remove_replica("solr", "solr")

    def test_container_ticks_recorded(self):
        sim = self._solr_sim(cpu_limit=3.0)
        result = sim.run({"solr": constant(20, 100.0)})
        container = result.containers[0]
        assert container.history.shape == (20, N_COLUMNS)
        row = container.history[-1]
        assert row[F_NR_THROTTLED] > 0  # demand 6 cores > 3-core quota
        assert BOTTLENECKS[int(row[F_BOTTLENECK])] is Resource.CPU

    def test_missing_placement_rejected(self):
        sim = ClusterSimulation({"training": MACHINES["training"]}, seed=0)
        with pytest.raises(ValueError, match="No placement"):
            sim.deploy(solr_application(), {})

    def test_duplicate_application_rejected(self):
        sim = self._solr_sim()
        with pytest.raises(ValueError, match="already deployed"):
            sim.deploy(solr_application(), {"solr": [Placement(node="training")]})

    def test_arrivals_for_unknown_app_rejected(self):
        sim = self._solr_sim()
        with pytest.raises(ValueError, match="undeployed"):
            sim.step({"nope": 10.0})

    def test_node_rename_from_mapping_key(self):
        sim = ClusterSimulation({"host": MACHINES["training"]}, seed=0)
        assert sim.nodes["host"].spec.name == "host"


class TestContainerLog:
    """``Container.history``: the growable ``(ticks, N_COLUMNS)`` log."""

    @staticmethod
    def _late_container(ticks_before: int = 5, ticks_after: int = 40):
        """A replica that joins a running simulation, so ``created_at > 0``."""
        sim = ClusterSimulation({"training": MACHINES["training"]}, seed=0)
        sim.deploy(solr_application(), {"solr": [Placement(node="training")]})
        for t in range(ticks_before):
            sim.step({"solr": 50.0 + t})
        container = sim.add_replica("solr", "solr", Placement("training", 2.0))
        for t in range(ticks_after):
            sim.step({"solr": 100.0 + 9.0 * t})
        return sim, container

    @pytest.mark.parametrize(
        "start, end",
        [
            (0, 45),  # starts before created_at, covers the log
            (2, 8),  # starts before created_at
            (30, 60),  # ends past the last recorded tick
            (0, 3),  # wholly before
            (50, 55),  # wholly after
            (12, 12),  # empty
            (5, 45),  # exactly the log
        ],
    )
    def test_gather_matches_per_tick_rows(self, start, end):
        from repro.telemetry.synthesis import gather_container_fields

        _, container = self._late_container()
        assert container.created_at == 5
        gathered = gather_container_fields(container, start, end)
        assert gathered.shape == (end - start, N_FIELDS)
        zero = np.zeros(N_COLUMNS)
        for offset, t in enumerate(range(start, end)):
            row = container.tick_at(t)
            expected = (zero if row is None else row)[:N_FIELDS]
            assert gathered[offset].tobytes() == expected.tobytes(), t

    def test_tick_at_is_a_row_view_inside_the_log_only(self):
        _, container = self._late_container()
        assert container.tick_at(4) is None
        assert container.tick_at(45) is None
        row = container.tick_at(5)
        assert row.shape == (N_COLUMNS,)
        assert np.shares_memory(row, container.history)
        assert row.tobytes() == container.history[0].tobytes()

    def test_log_grows_past_its_initial_capacity(self):
        container = Container(name="c", service="s", application="a")
        capacity = len(container._log)
        rows = np.arange((3 * capacity + 1) * N_COLUMNS, dtype=np.float64)
        rows = rows.reshape(-1, N_COLUMNS)
        for t, row in enumerate(rows):
            container.record(row)
            assert len(container.history) == t + 1
        assert container.history.dtype == np.float64
        assert container.history.tobytes() == rows.tobytes()

    def test_pickle_keeps_only_recorded_rows_and_appends_identically(self):
        sim, container = self._late_container(ticks_after=21)
        copy = pickle.loads(pickle.dumps(sim))
        restored = copy.deployments["solr"].instances["solr"][1].container
        assert restored._log.shape == (21, N_COLUMNS)
        assert restored.history.tobytes() == container.history.tobytes()
        for t in range(30):
            for simulation in (sim, copy):
                simulation.step({"solr": 400.0 + 7.0 * t})
        assert len(restored.history) == 51
        assert restored.history.tobytes() == container.history.tobytes()
