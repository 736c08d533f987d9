"""Tests for fault injection and monitorless robustness under faults."""

import subprocess
import sys

import numpy as np
import pytest

from repro.apps.solr import solr_application
from repro.cluster.container import F_MAX_UTILIZATION
from repro.cluster.faults import (
    DiskDegradation,
    FaultSchedule,
    MetricDropout,
    NodeSlowdown,
)
from repro.cluster.node import MACHINES
from repro.cluster.simulation import ClusterSimulation, Placement
from repro.telemetry.agent import TelemetryAgent
from repro.workloads.patterns import constant


def solr_sim(seed=0):
    simulation = ClusterSimulation({"training": MACHINES["training"]}, seed=seed)
    simulation.deploy(solr_application(), {"solr": [Placement(node="training")]})
    return simulation


class TestFaultDefinitions:
    def test_slowdown_window(self):
        fault = NodeSlowdown(node="n", factor=0.5, start=10, end=20)
        assert not fault.active(9)
        assert fault.active(10) and fault.active(19)
        assert not fault.active(20)

    def test_slowdown_halves_cores(self):
        fault = NodeSlowdown(node="training", factor=0.5, start=0, end=1)
        degraded = fault.apply(MACHINES["training"])
        assert degraded.cores == 24

    def test_slowdown_keeps_at_least_one_core(self):
        fault = NodeSlowdown(node="n", factor=0.01, start=0, end=1)
        degraded = fault.apply(MACHINES["M3"])
        assert degraded.cores >= 1

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            NodeSlowdown(node="n", factor=0.0, start=0, end=1)
        with pytest.raises(ValueError):
            DiskDegradation(node="n", factor=1.5, start=0, end=1)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            NodeSlowdown(node="n", factor=0.5, start=5, end=5)


class TestFaultSchedule:
    def test_slowdown_reduces_throughput_during_window(self):
        # 600 req/s needs 36 cores; halving the node to 24 saturates it.
        fault = NodeSlowdown(node="training", factor=0.5, start=20, end=40)
        simulation = solr_sim()
        result = FaultSchedule([fault]).run(
            simulation, {"solr": constant(60, 600.0)}
        )
        throughput = result.kpi("solr", "throughput")
        assert throughput[10] == pytest.approx(600.0, rel=0.05)
        assert throughput[30] < 450.0  # degraded window
        assert throughput[55] == pytest.approx(600.0, rel=0.10)  # recovered

    def test_spec_restored_after_run(self):
        fault = NodeSlowdown(node="training", factor=0.5, start=0, end=10)
        simulation = solr_sim()
        FaultSchedule([fault]).run(simulation, {"solr": constant(12, 10.0)})
        assert simulation.nodes["training"].spec.cores == 48

    def test_disk_degradation_moves_bottleneck(self):
        from repro.apps.memcache import memcache_application
        from repro.cluster.resources import GIB

        simulation = ClusterSimulation({"training": MACHINES["training"]}, seed=0)
        simulation.deploy(
            memcache_application(),
            {"memcache": [Placement(node="training", memory_limit=8 * GIB)]},
        )
        fault = DiskDegradation(node="training", factor=0.2, start=10, end=30)
        result = FaultSchedule([fault]).run(
            simulation, {"memcache": constant(40, 30e3)}
        )
        container = result.containers[0]
        during = container.history[20, F_MAX_UTILIZATION]
        after = container.history[35, F_MAX_UTILIZATION]
        assert during > after

    def test_unknown_node_rejected(self):
        fault = NodeSlowdown(node="ghost", factor=0.5, start=0, end=1)
        with pytest.raises(ValueError, match="unknown nodes"):
            FaultSchedule([fault]).run(solr_sim(), {"solr": constant(3, 1.0)})

    def test_spec_restored_when_step_raises_mid_run(self):
        """A workload that blows up mid-run must not leave the degraded
        node spec installed (regression: the restore loop used to run
        only after a *successful* run)."""
        fault = NodeSlowdown(node="training", factor=0.5, start=0, end=12)
        simulation = solr_sim()
        # float(None) raises at tick 6, while the slowdown is active and
        # the degraded 24-core spec is installed.
        workload = [10.0] * 6 + [None] + [10.0] * 5
        with pytest.raises(TypeError):
            FaultSchedule([fault]).run(simulation, {"solr": workload})
        assert simulation.nodes["training"].spec.cores == 48


class TestMetricDropout:
    def _run(self):
        simulation = solr_sim()
        return simulation.run({"solr": constant(40, 300.0)})

    def test_zero_probability_is_identity(self):
        result = self._run()
        agent = TelemetryAgent(seed=0)
        wrapped = MetricDropout(agent, probability=0.0)
        a = agent.instance_matrix(result.containers[0], result.nodes)
        b = wrapped.instance_matrix(result.containers[0], result.nodes)
        assert np.array_equal(a, b)

    def test_dropout_holds_previous_value(self):
        result = self._run()
        wrapped = MetricDropout(TelemetryAgent(seed=0), probability=0.4, seed=1)
        matrix = wrapped.instance_matrix(result.containers[0], result.nodes)
        clean = TelemetryAgent(seed=0).instance_matrix(
            result.containers[0], result.nodes
        )
        changed = matrix != clean
        assert changed.any()  # some readings replaced
        # Every replaced reading equals the wrapped matrix's previous row.
        rows, cols = np.nonzero(changed)
        assert np.allclose(matrix[rows, cols], matrix[rows - 1, cols])

    def test_deterministic(self):
        result = self._run()
        a = MetricDropout(TelemetryAgent(seed=0), 0.3, seed=5).instance_matrix(
            result.containers[0], result.nodes
        )
        b = MetricDropout(TelemetryAgent(seed=0), 0.3, seed=5).instance_matrix(
            result.containers[0], result.nodes
        )
        assert np.array_equal(a, b)

    def test_model_survives_dropout(self, tiny_model):
        """Predictions under 20% missing metrics stay mostly consistent
        with the clean predictions (robustness smoke check)."""
        result = self._run()
        agent = TelemetryAgent(seed=0)
        meta = agent.catalog.feature_meta()
        clean = tiny_model.predict(
            agent.instance_matrix(result.containers[0], result.nodes), meta
        )
        noisy_agent = MetricDropout(agent, probability=0.2, seed=2)
        noisy = tiny_model.predict(
            noisy_agent.instance_matrix(result.containers[0], result.nodes), meta
        )
        assert np.mean(clean == noisy) > 0.8

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            MetricDropout(TelemetryAgent(seed=0), probability=1.5)
        with pytest.raises(ValueError):
            MetricDropout(TelemetryAgent(seed=0), probability=-0.1)

    def test_total_dropout_freezes_after_first_row(self):
        """probability=1.0 is the degenerate blackout: every reading
        after the first repeats row 0."""
        result = self._run()
        wrapped = MetricDropout(TelemetryAgent(seed=0), probability=1.0, seed=3)
        matrix = wrapped.instance_matrix(result.containers[0], result.nodes)
        assert np.array_equal(
            matrix, np.tile(matrix[0], (matrix.shape[0], 1))
        )

    def test_dropout_identical_across_hashseed_values(self, tmp_path):
        """Dropout masks must be bitwise identical in processes with
        different ``PYTHONHASHSEED`` values (regression: the RNG used to
        be seeded via Python's salted ``hash()``, so 'deterministic
        given the seed' was false across runs and pool workers)."""
        import os

        script = tmp_path / "dropout_digest.py"
        script.write_text(
            "import hashlib, types\n"
            "import numpy as np\n"
            "from repro.cluster.faults import MetricDropout\n"
            "dropout = MetricDropout(\n"
            "    types.SimpleNamespace(catalog=None), probability=0.3, seed=7\n"
            ")\n"
            "matrix = np.arange(600, dtype=np.float64).reshape(30, 20)\n"
            "out = dropout._apply_dropout(matrix, 'container-3')\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        digests = []
        for hashseed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src_dir, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
        # ... and the in-process result matches both.
        import hashlib
        import types

        dropout = MetricDropout(
            types.SimpleNamespace(catalog=None), probability=0.3, seed=7
        )
        matrix = np.arange(600, dtype=np.float64).reshape(30, 20)
        local = hashlib.sha256(
            dropout._apply_dropout(matrix, "container-3").tobytes()
        ).hexdigest()
        assert local == digests[0]
