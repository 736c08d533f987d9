"""Tests for the evaluation scenarios (section 4)."""

import numpy as np
import pytest

from repro.datasets.experiments import (
    calibrate_application,
    elgg_placements,
    elgg_scenario,
    evaluate_detectors,
    evaluation_nodes,
    multitenant_scenario,
    sockshop_placements,
    sockshop_windows,
    teastore_placements,
)
from repro.apps.elgg import elgg_application


class TestPlacements:
    def test_teastore_distribution_matches_paper(self):
        placements = teastore_placements()
        assert placements["recommender"][0].node == "M1"
        assert placements["auth"][0].node == "M1"
        assert placements["auth"][0].cpu_limit == 2.0
        assert placements["db"][0].node == "M2"
        assert placements["webui"][0].node == "M3"

    def test_sockshop_distribution_matches_paper(self):
        placements = sockshop_placements()
        assert placements["front-end"][0].node == "M1"
        assert placements["edge-router"][0].node == "M2"
        assert placements["user-db"][0].node == "M3"
        assert placements["carts-db"][0].cpu_limit == 2.0

    def test_nodes_not_oversubscribed(self):
        """Assigned CPU quotas fit each machine's core count."""
        nodes = evaluation_nodes()
        totals = {name: 0.0 for name in nodes}
        for placements in (teastore_placements(), sockshop_placements()):
            for service_placements in placements.values():
                for placement in service_placements:
                    totals[placement.node] += placement.cpu_limit or 0.0
        for name, total in totals.items():
            assert total <= nodes[name].cores, (name, total)


class TestCalibration:
    def test_elgg_threshold_near_frontend_capacity(self):
        threshold = calibrate_application(
            elgg_application,
            elgg_placements(),
            {"host": evaluation_nodes()["M1"]},
            max_rate=150.0,
            seed=0,
        )
        # Elgg front-end: 1 core / 0.055 s per request -> ~18 req/s knee.
        assert 12.0 < threshold < 25.0


class TestElggScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return elgg_scenario(duration=500, seed=0)

    def test_saturation_ratio_majority(self, scenario):
        """The paper's Elgg test set is ~75% saturated (section 4.1.2)."""
        assert 0.55 < scenario.y_true.mean() < 0.9

    def test_three_containers(self, scenario):
        assert len(scenario.containers()) == 3

    def test_utilization_series_aligned(self, scenario):
        for cpu, mem in scenario.utilizations():
            assert cpu.shape == scenario.y_true.shape
            assert mem.shape == scenario.y_true.shape

    def test_detector_comparison_shape(self, scenario, tiny_model):
        comparison = evaluate_detectors(scenario, tiny_model, k=2)
        assert set(comparison.rows) == {
            "cpu", "mem", "cpu-or-mem", "cpu-and-mem", "monitorless"
        }
        table = comparison.table()
        assert len(table) == 5
        assert all("F1_2" in row for row in table)

    def test_cpu_baseline_strong_on_elgg(self, scenario, tiny_model):
        """The front-end is CPU-bound: the tuned CPU rule must do well."""
        comparison = evaluate_detectors(scenario, tiny_model, k=2)
        assert comparison.rows["cpu"].f1 > 0.9


class TestMultitenantScenario:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return multitenant_scenario(duration=1400, seed=0)

    def test_both_apps_share_the_run(self, scenarios):
        tea, sock = scenarios
        assert tea.result is sock.result
        assert len(tea.containers()) == 7
        assert len(sock.containers()) == 14

    def test_teastore_saturation_is_rare(self, scenarios):
        tea, _ = scenarios
        # The paper reports ~2.9%; sizing keeps it well under 25%.
        assert 0.0 < tea.y_true.mean() < 0.25

    def test_sockshop_windows_indices(self):
        windows = sockshop_windows(7000)
        assert len(windows) == 3 * 999
        assert windows.min() >= 1000
        assert windows.max() < 7000

    def test_sockshop_saturates_in_windows_only(self, scenarios):
        _, sock = scenarios
        windows = sockshop_windows(len(sock.workload))
        outside = np.setdiff1d(np.arange(len(sock.y_true)), windows)
        assert sock.y_true[outside].mean() < 0.05
