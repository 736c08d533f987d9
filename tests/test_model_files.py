"""Model fingerprints and model files.

``model_fingerprint`` must emit the bytes of the pure-Python reference
pickler (``tests/fingerprint_reference.py``) for every model shape the
program fingerprints, and ``MonitorlessModel.save``/``load`` must go
through the checksummed ``kind="model"`` record: a damaged file raises
:class:`CheckpointError` naming its path, never a bare unpickling error
and never a different model.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features.pipeline import PipelineConfig
from repro.core.model import MonitorlessModel
from repro.lifecycle import ModelRegistry
from repro.reliability.checkpoint import (
    CheckpointError,
    model_fingerprint,
    read_header,
    write_record,
)
from tests.fingerprint_reference import reference_fingerprint

PIPELINES = {
    "filter": PipelineConfig(temporal_windows=(1, 5)),
    "pca": PipelineConfig(
        reduction1="pca", reduction2="pca", temporal_windows=(1, 5)
    ),
}

#: Small settings per classifier, so a dozen fits stay quick.
CLASSIFIER_PARAMS = {
    "random_forest": {"n_estimators": 4},
    "xgboost": {"n_estimators": 4, "max_depth": 4},
    "adaboost": {"n_estimators": 4},
    "logistic_regression": {},
    "svc": {},
    "neural_net": {"epochs": 2},
}


@pytest.fixture(scope="module")
def fit_model(tiny_corpus):
    cache = {}

    def fit(classifier, pipeline, **overrides):
        key = (classifier, pipeline, tuple(sorted(overrides.items())))
        if key not in cache:
            cache[key] = MonitorlessModel(
                pipeline_config=PIPELINES[pipeline],
                classifier=classifier,
                classifier_params={**CLASSIFIER_PARAMS[classifier], **overrides},
            ).fit(
                tiny_corpus.X, tiny_corpus.meta, tiny_corpus.y,
                tiny_corpus.groups,
            )
        return cache[key]

    return fit


class TestFingerprintReference:
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("classifier", sorted(CLASSIFIER_PARAMS))
    def test_every_classifier_and_pipeline(self, fit_model, classifier, pipeline):
        model = fit_model(classifier, pipeline)
        assert model_fingerprint(model) == reference_fingerprint(model)

    def test_hist_forest(self, fit_model):
        model = fit_model("random_forest", "filter", tree_method="hist")
        assert model_fingerprint(model) == reference_fingerprint(model)

    def test_refit_challenger(self, fit_model):
        model = fit_model("random_forest", "filter")
        rng = np.random.default_rng(0)
        challenger = model.refit_classifier(
            rng.normal(size=(60, model.n_engineered_features_)),
            np.arange(60) % 2,
        )
        assert challenger.pipeline_ is model.pipeline_
        assert model_fingerprint(challenger) == reference_fingerprint(challenger)

    @pytest.mark.parametrize("classifier", ["random_forest", "xgboost", "adaboost"])
    def test_after_round_trip_and_predict(self, fit_model, tiny_corpus, classifier):
        model = fit_model(classifier, "pca")
        before = model_fingerprint(model)
        copy = pickle.loads(pickle.dumps(model))
        assert model_fingerprint(copy) == reference_fingerprint(copy) == before
        # predict compiles and caches the flat trees on the classifier.
        copy.predict(tiny_corpus.X[:50], tiny_corpus.meta)
        assert model_fingerprint(copy) == reference_fingerprint(copy) == before


class TestModelFiles:
    @pytest.fixture(scope="class")
    def model(self, tiny_corpus):
        return MonitorlessModel(
            pipeline_config=PIPELINES["filter"],
            classifier_params={"n_estimators": 3},
        ).fit(tiny_corpus.X, tiny_corpus.meta, tiny_corpus.y, tiny_corpus.groups)

    @pytest.fixture(scope="class")
    def saved(self, model, tmp_path_factory):
        """The path of ``model``'s file (a path, so that a failing
        example prints its name rather than its bytes)."""
        path = tmp_path_factory.mktemp("model") / "model.pkl"
        model.save(path)
        return path

    def test_save_writes_a_model_record(self, model, tmp_path, tiny_corpus):
        path = tmp_path / "nested" / "model.pkl"
        model.save(path)
        header = read_header(path)
        assert header["kind"] == "model"
        assert header["fingerprint"] == model_fingerprint(model)
        loaded = MonitorlessModel.load(path)
        assert model_fingerprint(loaded) == header["fingerprint"]
        np.testing.assert_array_equal(
            loaded.predict(tiny_corpus.X, tiny_corpus.meta),
            model.predict(tiny_corpus.X, tiny_corpus.meta),
        )

    def test_registry_record_loads(self, model, tmp_path):
        ModelRegistry(tmp_path).register(model, reason="bootstrap")
        loaded = MonitorlessModel.load(tmp_path / "v1.model")
        assert model_fingerprint(loaded) == model_fingerprint(model)

    def test_bare_pickle_is_refused(self, model, tmp_path):
        path = tmp_path / "old.pkl"
        path.write_bytes(pickle.dumps(model))
        with pytest.raises(CheckpointError, match="magic") as error:
            MonitorlessModel.load(path)
        assert str(path) in str(error.value)

    def test_checkpoint_record_is_refused(self, model, tmp_path):
        path = tmp_path / "state.ckpt"
        write_record(path, model, {"fingerprint": model_fingerprint(model)})
        with pytest.raises(CheckpointError, match="'checkpoint' record"):
            MonitorlessModel.load(path)

    def test_record_of_another_object_raises_type_error(self, model, tmp_path):
        path = tmp_path / "forest.pkl"
        forest = model.classifier_
        write_record(
            path, forest, {"fingerprint": model_fingerprint(forest)},
            kind="model",
        )
        with pytest.raises(TypeError, match="MonitorlessModel"):
            MonitorlessModel.load(path)

    def test_wrong_fingerprint_in_header_is_refused(self, saved, tmp_path):
        magic, header, payload = saved.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["fingerprint"] = "0" * 64
        path = tmp_path / "model.pkl"
        path.write_bytes(
            magic + b"\n" + json.dumps(fields, sort_keys=True).encode()
            + b"\n" + payload
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            MonitorlessModel.load(path)

    def test_half_truncated_file_is_refused(self, saved, tmp_path):
        blob = saved.read_bytes()
        path = tmp_path / "model.pkl"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            MonitorlessModel.load(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_truncated_or_flipped_model_file(
        self, tmp_path_factory, model, saved, data
    ):
        blob = saved.read_bytes()
        path = tmp_path_factory.getbasetemp() / "fuzz-model.pkl"
        # Half the offsets land in the magic and the header.
        offset = data.draw(
            st.one_of(st.integers(0, 300), st.integers(0, len(blob) - 1)),
            label="offset",
        )
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[:offset]
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            damaged = (
                blob[:offset] + bytes([blob[offset] ^ mask]) + blob[offset + 1:]
            )
        path.write_bytes(damaged)
        try:
            loaded = MonitorlessModel.load(path)
        except CheckpointError as error:
            assert str(path) in str(error)
            return
        # Only a flip the header's JSON reads past (a space turned into
        # a tab, say) may load, and then it loads the very same model.
        assert model_fingerprint(loaded) == model_fingerprint(model)
