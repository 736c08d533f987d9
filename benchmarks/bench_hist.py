"""Exact vs histogram-binned forest training wall-clock and accuracy.

Times the serial Table-1 forest fit under both tree-growth modes and
records the results to ``BENCH_hist.json`` at the repository root:

- ``exact``  -- the default mode (node-batched split search, one
  block sort per node; still bitwise identical to the historical
  trees, see ``tests/test_hist.py::TestExactFingerprint``);
- ``hist``   -- quantile-binned growth (``tree_method="hist"``),
  including the once-per-forest binning cost.

The headline stage trains on the *full* corpus (the paper trains on
all Table-1 samples; hist's per-tree advantage grows with sample
count).  A second exact-only stage repeats the 2000-sample workload
recorded as ``forest_fit`` in ``BENCH_parallel.json`` so the artifact
carries all three points for one comparable workload: ``exact_before``
(the committed pre-PR serial time), ``exact_after`` and -- scaled by
the headline ratio -- hist.

Accuracy is checked end to end: two full monitorless models (one per
mode) are trained on the corpus and scored on the unseen Elgg
application; the hist model's F1_2 must stay within ``MAX_F1_DELTA``
of exact.  The >= ``MIN_HIST_SPEEDUP`` serial-speedup floor is
asserted only on hosts with >= 4 usable cores (same convention as
``bench_parallel.py``: laptop-class CI runners record, big runners
enforce), while the F1 floor holds everywhere.

- ``BENCH_HIST_TREES``    forest size for the timing stages  (250)
- ``BENCH_HIST_SAMPLES``  sample cap, 0 = full corpus        (0)
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.model import MonitorlessModel
from repro.datasets.experiments import evaluate_detectors
from repro.ml.forest import RandomForestClassifier
from repro.parallel.jobs import available_cores

from conftest import N_TREES as MODEL_TREES
from conftest import SEED

N_TREES = int(os.environ.get("BENCH_HIST_TREES", "250"))
N_SAMPLES = int(os.environ.get("BENCH_HIST_SAMPLES", "0"))
REF_SAMPLES = 2000  # the BENCH_parallel.json forest_fit workload
MIN_HIST_SPEEDUP = 5.0
MAX_F1_DELTA = 0.01
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_hist.json"
PARALLEL_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"


def _fit_forest(X, y, tree_method: str) -> float:
    """Serial wall-clock of one Table-1 forest fit in ``tree_method``."""
    forest = RandomForestClassifier(
        n_estimators=N_TREES,
        min_samples_leaf=20,
        tree_method=tree_method,
        random_state=SEED,
        n_jobs=1,
    )
    started = time.perf_counter()
    forest.fit(X, y)
    return time.perf_counter() - started


def _exact_before_reference() -> dict | None:
    """The pre-PR serial forest-fit time from ``BENCH_parallel.json``."""
    if not PARALLEL_PATH.exists():
        return None
    stage = json.loads(PARALLEL_PATH.read_text())["stages"].get("forest_fit")
    if stage is None:
        return None
    return {
        "seconds": stage["seconds"]["1"],
        "trees": stage["trees"],
        "n_samples": stage["n_samples"],
        "source": PARALLEL_PATH.name,
    }


def _elgg_f1(corpus, elgg, tree_method: str) -> float:
    model = MonitorlessModel(
        classifier_params={
            "n_estimators": MODEL_TREES,
            "tree_method": tree_method,
        },
        random_state=SEED,
    )
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    comparison = evaluate_detectors(elgg, model, k=2)
    return float(comparison.rows["monitorless"].f1)


def test_hist_speedup(benchmark, corpus, elgg, table_printer):
    order = np.random.default_rng(SEED).permutation(len(corpus.y))
    keep = order[:N_SAMPLES] if N_SAMPLES else order
    X, y = corpus.X[keep], corpus.y[keep]
    cores = available_cores()

    seconds = {mode: _fit_forest(X, y, mode) for mode in ("exact", "hist")}
    speedup = seconds["exact"] / seconds["hist"]

    # The exact_before point in BENCH_parallel.json was recorded on a
    # 2000-sample slice; repeat exactly that workload in today's exact
    # mode so before/after are directly comparable.
    ref = order[:REF_SAMPLES]
    exact_after_ref = _fit_forest(corpus.X[ref], corpus.y[ref], "exact")

    f1 = {mode: _elgg_f1(corpus, elgg, mode) for mode in ("exact", "hist")}
    f1_delta = abs(f1["hist"] - f1["exact"])

    table_printer(
        f"Exact vs hist serial forest fit ({cores} usable cores, "
        f"{X.shape[0]} samples)",
        [
            {
                "mode": mode,
                "fit [s]": round(seconds[mode], 3),
                "speedup": round(seconds["exact"] / seconds[mode], 2),
                "elgg F1_2": round(f1[mode], 4),
            }
            for mode in ("exact", "hist")
        ],
    )

    enforce = cores >= 4
    record = {
        "cpu_count": cores,
        "trees": N_TREES,
        "n_samples": int(X.shape[0]),
        "n_features": int(X.shape[1]),
        "seconds": {mode: round(s, 3) for mode, s in seconds.items()},
        "hist_speedup": round(speedup, 2),
        "exact_before": _exact_before_reference(),
        "exact_after_ref": {
            "seconds": round(exact_after_ref, 3),
            "trees": N_TREES,
            "n_samples": int(min(REF_SAMPLES, len(order))),
        },
        "elgg_f1": {mode: round(score, 4) for mode, score in f1.items()},
        "f1_delta": round(f1_delta, 4),
        "model_trees": MODEL_TREES,
        "thresholds": {
            "hist_serial_speedup": MIN_HIST_SPEEDUP,
            "max_f1_delta": MAX_F1_DELTA,
        },
        "thresholds_enforced": enforce,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    # Accuracy must hold on every host; the wall-clock floor only where
    # the machine is big enough for timings to mean anything.
    assert f1_delta <= MAX_F1_DELTA, (
        f"hist F1 drifted by {f1_delta:.4f} (exact {f1['exact']:.4f}, "
        f"hist {f1['hist']:.4f})"
    )
    if enforce:
        assert speedup >= MIN_HIST_SPEEDUP, (
            f"hist serial speedup: {speedup:.2f}x "
            f"(exact {seconds['exact']:.1f}s, hist {seconds['hist']:.1f}s)"
        )

    # Benchmark target: one serial hist-mode forest fit.
    benchmark.pedantic(
        lambda: _fit_forest(X, y, "hist"), rounds=1, iterations=1
    )
