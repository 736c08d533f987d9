"""Flat-forest batched inference vs the per-tree predict loop.

Times single-thread ``predict_proba`` on full-corpus 250-tree forests
(exact and hist mode) across batch sizes -- from the 1-row serving
shape that bounds the per-container streaming tick up to the whole
engineered corpus -- and records the contract to ``BENCH_predict.json``
at the repository root:

- **correctness** (always asserted, both modes, every batch size): the
  flat kernel's probabilities are *bitwise identical* to the historical
  per-tree chunked vote loop, reproduced verbatim in this module over
  the per-tree walk kept in ``tests/tree_reference.py``;
- **throughput** (enforced only on >= 4-core hosts, the
  ``BENCH_parallel``/``BENCH_fleet`` gating convention): the flat path
  is >= 10x faster than the per-tree path at the serving batch shape.

The speedup is largest exactly where the fleet loop lives: at small
batches the per-tree path pays 250 Python-level walks + 250 vote
scatters per call, while the flat path runs one compacted traversal
over every (row, tree) lane.  Large batches are gather-bound in both
paths, so the recorded sweep is honest about the taper.

Environment knobs:

- ``BENCH_PREDICT_TREES``  forest size            (default 250)
- ``BENCH_PREDICT_BATCHES`` comma-separated batch sizes
  (default ``1,8,64,512,full``)
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.ml.base import check_array
from repro.ml.flatforest import _CHUNK_TREES
from repro.ml.forest import RandomForestClassifier
from repro.parallel.jobs import available_cores
from tests.tree_reference import tree_apply

from conftest import SEED

N_TREES = int(os.environ.get("BENCH_PREDICT_TREES", "250"))
BATCHES = os.environ.get("BENCH_PREDICT_BATCHES", "1,8,64,512,full")
SERVING_BATCH = 1  # the per-container streaming tick shape
MIN_FLAT_SPEEDUP = 10.0
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_predict.json"


def per_tree_proba(forest, X):
    """The historical public ``predict_proba``: one ``check_array``
    pass, then the chunked per-tree walk + vote-scatter loop."""
    X = check_array(X)
    k = len(forest.classes_)
    partials = []
    for start in range(0, len(forest.estimators_), _CHUNK_TREES):
        chunk = forest.estimators_[start:start + _CHUNK_TREES]
        votes = np.zeros((X.shape[0], k))
        for tree in chunk:
            leaves = tree_apply(
                tree.tree_feature_, tree.tree_threshold_,
                tree.tree_left_, tree.tree_right_, X,
            )
            votes[:, tree.classes_] += tree.tree_value_[leaves]
        partials.append(votes)
    accumulated = partials[0]
    for votes in partials[1:]:
        accumulated = accumulated + votes
    return accumulated / len(forest.estimators_)


def _time(fn, X, min_time=0.3, max_reps=500):
    fn(X)  # warm-up (compiles the flat representation on first call)
    reps = 0
    started = time.perf_counter()
    while True:
        fn(X)
        reps += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_time or reps >= max_reps:
            return elapsed / reps


def test_predict_speedup(benchmark, corpus, engineered, table_printer):
    _, X_all, _ = engineered
    y = corpus.y
    cores = available_cores()
    enforce = cores >= 4

    forests = {
        mode: RandomForestClassifier(
            n_estimators=N_TREES,
            min_samples_leaf=20,
            criterion="entropy",
            tree_method=mode,
            random_state=SEED,
            n_jobs=1,
        ).fit(X_all, y)
        for mode in ("exact", "hist")
    }

    batch_sizes = []
    for token in BATCHES.split(","):
        batch_sizes.append(
            X_all.shape[0] if token.strip() == "full"
            else min(int(token), X_all.shape[0])
        )
    order = np.random.default_rng(SEED).permutation(X_all.shape[0])

    rows = []
    sweep: dict[str, dict] = {mode: {} for mode in forests}
    serving_speedup: dict[str, float] = {}
    for mode, forest in forests.items():
        for n in batch_sizes:
            Xq = np.ascontiguousarray(X_all[order[:n]])
            reference = per_tree_proba(forest, Xq)
            flat = forest.predict_proba(Xq)
            assert np.array_equal(flat, reference), (
                f"flat path diverged from the per-tree reference "
                f"({mode}, batch {n})"
            )
            t_ref = _time(lambda Xq: per_tree_proba(forest, Xq), Xq)
            t_flat = _time(forest.predict_proba, Xq)
            speedup = t_ref / t_flat
            if n == SERVING_BATCH:
                serving_speedup[mode] = speedup
            sweep[mode][str(n)] = {
                "per_tree_ms": round(t_ref * 1e3, 3),
                "flat_ms": round(t_flat * 1e3, 3),
                "speedup": round(speedup, 2),
            }
            rows.append({
                "mode": mode,
                "batch": n,
                "per-tree [ms]": round(t_ref * 1e3, 3),
                "flat [ms]": round(t_flat * 1e3, 3),
                "speedup": round(speedup, 2),
                "rows/s (flat)": round(n / t_flat),
            })

    table_printer(
        f"Flat vs per-tree predict_proba ({N_TREES} trees, "
        f"{X_all.shape[1]} features, {cores} usable cores)",
        rows,
    )

    record = {
        "cpu_count": cores,
        "seed": SEED,
        "trees": N_TREES,
        "n_samples": int(X_all.shape[0]),
        "n_features": int(X_all.shape[1]),
        "bitwise_equal_all_batches": True,  # asserted above, both modes
        "serving_batch": SERVING_BATCH,
        "serving_speedup": {
            mode: round(value, 2) for mode, value in serving_speedup.items()
        },
        "batches": sweep,
        "floor_serving_speedup": MIN_FLAT_SPEEDUP,
        "thresholds_enforced": enforce,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if enforce:
        for mode, speedup in serving_speedup.items():
            assert speedup >= MIN_FLAT_SPEEDUP, (
                f"{mode} serving-shape speedup {speedup:.1f}x is below "
                f"the {MIN_FLAT_SPEEDUP:.0f}x floor"
            )

    # Benchmark target: one serving-shape flat predict on the exact
    # forest (the fleet tick's hot call).
    X_one = np.ascontiguousarray(X_all[order[:SERVING_BATCH]])
    benchmark.pedantic(
        lambda: forests["exact"].predict_proba(X_one), rounds=30, iterations=10
    )
