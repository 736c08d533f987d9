"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_evaluate_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--model", "m.pkl", "--scenario", "netflix"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["train", "--out", "m.pkl"])
        assert args.duration == 300 and args.trees == 60 and args.runs is None


class TestInventory:
    def test_prints_all_25_runs(self):
        out = io.StringIO()
        assert main(["inventory"], out=out) == 0
        text = out.getvalue()
        assert text.count("\n") == 26  # header + 25 rows
        assert "sin1000" in text and "IO-Wait" in text


class TestTrainEvaluateExplain:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.pkl"
        out = io.StringIO()
        code = main(
            [
                "train",
                "--out", str(path),
                "--duration", "80",
                "--trees", "10",
                "--runs", "1", "2", "7", "12",
                "--seed", "3",
            ],
            out=out,
        )
        assert code == 0
        assert path.exists()
        return path

    def test_train_reports_corpus(self, model_path):
        # fixture already trained; re-loading must work
        from repro.core.model import MonitorlessModel

        model = MonitorlessModel.load(model_path)
        assert model.classifier_ is not None

    def test_evaluate_elgg(self, model_path):
        out = io.StringIO()
        code = main(
            [
                "evaluate",
                "--model", str(model_path),
                "--scenario", "elgg",
                "--duration", "300",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "monitorless" in text
        assert "F1_2" in text
        assert text.count("algorithm=") == 5

    def test_explain(self, model_path):
        out = io.StringIO()
        code = main(
            ["explain", "--model", str(model_path), "--top", "5",
             "--duration", "60"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Surrogate scaling rules" in text
        assert "fidelity" in text

    def test_stream_trace_emits_spans_and_metrics(self, model_path):
        from repro import obs

        out = io.StringIO()
        code = main(
            ["stream", "--model", str(model_path), "--duration", "600",
             "--trace"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "== span tree ==" in text
        assert "orchestrator.tick" in text
        assert "fleet.push_rows" in text
        assert "== metrics (json) ==" in text
        assert '"orchestrator.ticks": 600.0' in text
        assert "== metrics (prometheus) ==" in text
        assert "repro_orchestrator_ticks 600" in text
        assert "repro_telemetry_rows_emitted" in text
        # The CLI turns recording back off on exit.
        assert not obs.enabled()
        obs.reset()


class TestObsCommand:
    def test_obs_runs_and_exports_all_formats(self):
        from repro import obs

        out = io.StringIO()
        code = main(["obs", "--duration", "30"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "Drove 30 instrumented ticks" in text
        assert "== span tree ==" in text
        assert "orchestrator.tick" in text
        assert "simulation.step" in text
        assert '"orchestrator.ticks": 30.0' in text
        assert "repro_orchestrator_ticks 30" in text
        assert 'repro_orchestrator_tick_seconds_bucket{le="+Inf"} 30' in text
        assert not obs.enabled()
        obs.reset()

    def test_chaos_with_saved_model(self, tiny_model, tmp_path):
        import json

        model_path = tmp_path / "model.pkl"
        tiny_model.save(model_path)
        report_path = tmp_path / "chaos.json"
        out = io.StringIO()
        code = main(
            [
                "chaos",
                "--model", str(model_path),
                "--duration", "60",
                "--report", str(report_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "SLO violations (chaos)" in text
        assert "within bound" in text
        report = json.loads(report_path.read_text())
        assert report["duration"] == 60
        assert report["within_bound"] is True

    def test_obs_prom_only(self):
        from repro import obs

        out = io.StringIO()
        code = main(["obs", "--duration", "10", "--format", "prom"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "repro_orchestrator_ticks 10" in text
        assert "== span tree ==" not in text
        assert "== metrics (json) ==" not in text
        obs.reset()
