"""Command-line interface.

Twelve subcommands cover the common workflows:

- ``inventory``  -- print the Table-1 training-run inventory;
- ``dataset``    -- generate the training corpus (optionally save it);
- ``train``      -- generate the corpus, train a model, save it;
- ``gridsearch`` -- tune forest hyper-parameters by grouped CV;
- ``evaluate``   -- score a saved model on an evaluation scenario
  (``elgg`` / ``teastore`` / ``sockshop``) against the tuned
  threshold baselines;
- ``explain``    -- print a saved model's top features and surrogate
  scaling rules;
- ``stream``     -- drive the closed autoscaling loop tick by tick on
  the streaming (incremental) data path and report throughput;
- ``obs``        -- run a short instrumented closed loop and export the
  runtime's own metrics (JSON / Prometheus text) and span tree;
- ``chaos``      -- run the seeded chaos harness (dropout, failures,
  blackouts, node faults) against a clean run and report deltas;
- ``fleet``      -- drive many application cells through the vectorized
  fleet serving path (one matrix per tick, sharded over workers) and
  report tick throughput;
- ``interference`` -- build the neighbour-caused degradation corpus
  (victims at constant sub-knee load vs co-located antagonists) and run
  the solo->interference transfer evaluation;
- ``lifecycle`` -- run the seeded end-to-end drift scenario: a
  stationary TeaStore plateau, a mid-run workload step plus bursty
  membw antagonist, streaming drift detection, drift-triggered
  retraining and champion/challenger shadow promotion through the
  versioned model registry.

The generation/training paths accept ``--jobs N`` (``-1`` = all cores)
to fan session simulation, tree fitting and grid-search evaluation out
over worker processes; outputs are bitwise independent of ``--jobs``.
``train``/``evaluate``/``stream`` accept ``--trace`` to record the
run's internal spans and metrics (see :mod:`repro.obs`) and print them
on completion; results are identical with or without it.

Examples::

    python -m repro inventory
    python -m repro dataset --duration 120 --jobs -1
    python -m repro train --out model.pkl --duration 300 --jobs 4
    python -m repro gridsearch --duration 120 --jobs -1
    python -m repro evaluate --model model.pkl --scenario elgg
    python -m repro explain --model model.pkl --duration 150
    python -m repro stream --model model.pkl --duration 600 --trace
    python -m repro obs --duration 120 --format prom
    python -m repro chaos --duration 240 --dropout 0.15
    python -m repro chaos --duration 240 --antagonist cpu
    python -m repro fleet --model model.pkl --cells 32 --ticks 120 --jobs -1
    python -m repro interference --duration 150 --jobs -1 --report out.json
    python -m repro lifecycle --duration 360 --registry registry/
    python -m repro lifecycle --resume --checkpoint lc.ckpt --registry registry/
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _add_tree_method_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tree-method", choices=("exact", "hist"), default="exact",
        help="tree training mode: 'exact' (default, bitwise-stable) or "
             "'hist' (quantile-binned, ~an order of magnitude faster)",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default serial; -1 = all cores)",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="record runtime spans + metrics (repro.obs) and print the "
             "span tree, JSON snapshot and Prometheus exposition on exit",
    )


def _print_observability(out) -> None:
    """Span tree + metrics snapshot (JSON and Prometheus text)."""
    from repro import obs

    snapshot = obs.snapshot()
    print("\n== span tree ==", file=out)
    print(
        obs.render_span_tree(obs.span_roots(), dropped=obs.dropped_spans()),
        file=out,
    )
    print("\n== metrics (json) ==", file=out)
    print(obs.metrics_to_json(snapshot), file=out)
    print("\n== metrics (prometheus) ==", file=out)
    print(obs.metrics_to_prometheus(snapshot), file=out, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Monitorless (Middleware '19) reproduction toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("inventory", help="print the Table-1 run inventory")

    dataset = commands.add_parser(
        "dataset", help="generate the training corpus"
    )
    dataset.add_argument("--out", default=None,
                         help="save X/y/groups as .npz (default: print only)")
    dataset.add_argument("--duration", type=int, default=300,
                         help="seconds per training run (default 300)")
    dataset.add_argument("--runs", type=int, nargs="*", default=None,
                         help="Table-1 run ids (default: all 25)")
    dataset.add_argument("--seed", type=int, default=0)
    _add_jobs_argument(dataset)

    train = commands.add_parser("train", help="train and save a model")
    train.add_argument("--out", required=True, help="output model path (.pkl)")
    train.add_argument("--duration", type=int, default=300,
                       help="seconds per training run (default 300)")
    train.add_argument("--trees", type=int, default=60,
                       help="random-forest size (paper: 250)")
    train.add_argument("--runs", type=int, nargs="*", default=None,
                       help="Table-1 run ids (default: all 25)")
    train.add_argument("--seed", type=int, default=0)
    _add_tree_method_argument(train)
    _add_jobs_argument(train)
    _add_trace_argument(train)

    gridsearch = commands.add_parser(
        "gridsearch",
        help="tune forest hyper-parameters by run-grouped cross-validation",
    )
    gridsearch.add_argument("--duration", type=int, default=120,
                            help="seconds per training run (default 120)")
    gridsearch.add_argument("--trees", type=int, default=30,
                            help="forest size per candidate (paper: 250)")
    gridsearch.add_argument("--folds", type=int, default=5,
                            help="CV folds, grouped by run (default 5)")
    gridsearch.add_argument("--runs", type=int, nargs="*", default=None,
                            help="Table-1 run ids (default: all 25)")
    gridsearch.add_argument("--seed", type=int, default=0)
    _add_tree_method_argument(gridsearch)
    _add_jobs_argument(gridsearch)

    evaluate = commands.add_parser("evaluate", help="score a saved model")
    evaluate.add_argument("--model", required=True, help="path to a saved model")
    evaluate.add_argument(
        "--scenario", choices=("elgg", "teastore", "sockshop"), default="elgg"
    )
    evaluate.add_argument("--duration", type=int, default=1400,
                          help="evaluation-trace seconds")
    evaluate.add_argument("--k", type=int, default=2, help="lag tolerance")
    evaluate.add_argument("--seed", type=int, default=0)
    _add_trace_argument(evaluate)

    explain = commands.add_parser("explain", help="inspect a saved model")
    explain.add_argument("--model", required=True)
    explain.add_argument("--top", type=int, default=20)
    explain.add_argument("--duration", type=int, default=150,
                         help="corpus seconds for the surrogate's input")
    explain.add_argument("--seed", type=int, default=0)

    stream = commands.add_parser(
        "stream", help="run the per-tick streaming closed loop"
    )
    stream.add_argument("--model", required=True, help="path to a saved model")
    stream.add_argument("--duration", type=int, default=600,
                        help="trace seconds to stream (default 600, the "
                             "TeaStore trace minimum)")
    stream.add_argument("--batch", action="store_true",
                        help="use the batch data path instead, for comparison")
    stream.add_argument("--seed", type=int, default=0)
    _add_trace_argument(stream)

    observe = commands.add_parser(
        "obs",
        help="run a short instrumented closed loop and export runtime "
             "metrics + spans",
    )
    observe.add_argument("--duration", type=int, default=120,
                         help="closed-loop seconds to drive (default 120)")
    observe.add_argument("--model", default=None,
                         help="optional saved model for the monitorless "
                              "streaming policy (default: a static-threshold "
                              "policy, which needs no model)")
    observe.add_argument("--format", choices=("json", "prom", "text", "all"),
                         default="all",
                         help="metrics export format; 'text' = span tree "
                              "only, 'all' = span tree + JSON + Prometheus")
    observe.add_argument("--seed", type=int, default=0)

    chaos = commands.add_parser(
        "chaos",
        help="run the seeded chaos harness: closed loop under metric "
             "dropout, injected telemetry failures, blackouts and node "
             "faults, compared against a clean run",
    )
    chaos.add_argument("--model", default=None,
                       help="optional saved model (default: train a small "
                            "6-run, 15-tree model first)")
    chaos.add_argument("--duration", type=int, default=240,
                       help="closed-loop seconds per run (default 240)")
    chaos.add_argument("--dropout", type=float, default=0.15,
                       help="per-reading dropout probability (default 0.15)")
    chaos.add_argument("--budget", type=int, default=5,
                       help="staleness budget: consecutive lost ticks "
                            "bridged by imputation (default 5)")
    chaos.add_argument("--failsafe", choices=("hold", "scale-up"),
                       default="hold",
                       help="verdict when primary and fallback are both "
                            "unavailable (default hold)")
    chaos.add_argument("--report", default=None,
                       help="write the full ChaosReport as JSON here")
    chaos.add_argument("--antagonist", choices=("cpu", "membw", "disk"),
                       default=None,
                       help="co-locate a noisy-neighbour stressor of this "
                            "kind in the chaos run (clean run stays solo)")
    chaos.add_argument("--antagonist-rate", type=float, default=100.0,
                       help="antagonist requests/s once active (default 100)")
    chaos.add_argument("--seed", type=int, default=0)

    fleet = commands.add_parser(
        "fleet",
        help="run the vectorized fleet loop: many application cells as "
             "one (containers x features) matrix per tick, sharded over "
             "worker processes",
    )
    fleet.add_argument("--model", default=None,
                       help="optional saved model (default: train a small "
                            "6-run, 15-tree model first)")
    fleet.add_argument("--cells", type=int, default=8,
                       help="application cells in the fleet (default 8; "
                            "7 containers each)")
    fleet.add_argument("--ticks", type=int, default=60,
                       help="fleet seconds to drive (default 60)")
    fleet.add_argument("--kind",
                       choices=("teastore", "teastore-dropout",
                                "teastore-chaos"),
                       default="teastore",
                       help="cell recipe (default teastore; -chaos adds "
                            "the full fault stack + threshold fallback)")
    fleet.add_argument("--shards", type=int, default=None,
                       help="shards over the cell axis (default: one per "
                            "worker)")
    fleet.add_argument("--checkpoint-dir", default=None,
                       help="per-shard checkpoint directory (enables "
                            "crash rescue / resume)")
    fleet.add_argument("--checkpoint-interval", type=int, default=25,
                       help="ticks between per-shard checkpoints "
                            "(default 25)")
    fleet.add_argument("--seed", type=int, default=0)
    _add_jobs_argument(fleet)

    interference = commands.add_parser(
        "interference",
        help="build the neighbour-caused degradation corpus and run the "
             "solo->interference transfer evaluation",
    )
    interference.add_argument(
        "--model", default=None,
        help="optional saved solo-trained model (default: train a small "
             "6-run, 15-tree model first)")
    interference.add_argument(
        "--duration", type=int, default=150,
        help="seconds per interference scenario (default 150)")
    interference.add_argument(
        "--calibration-duration", type=int, default=100,
        help="seconds per victim calibration ramp (default 100)")
    interference.add_argument(
        "--report", default=None,
        help="write the transfer-eval result as JSON here")
    interference.add_argument("--seed", type=int, default=0)
    _add_jobs_argument(interference)

    lifecycle = commands.add_parser(
        "lifecycle",
        help="run the seeded drift scenario: stationary plateau, mid-run "
             "workload step + bursty membw antagonist, streaming drift "
             "detection, drift-triggered retraining and shadow promotion",
    )
    lifecycle.add_argument(
        "--model", default=None,
        help="optional saved model to serve as the bootstrap champion "
             "(default: train a small 6-run, 15-tree model first); with "
             "--resume, the model offered to the checkpoint's "
             "fingerprint guard")
    lifecycle.add_argument("--duration", type=int, default=360,
                           help="scenario ticks (default 360; the "
                                "shift onset lands at 45%%)")
    lifecycle.add_argument("--registry", default=None,
                           help="model-registry directory (default: a "
                                "temporary directory)")
    lifecycle.add_argument("--report", default=None,
                           help="write the DriftScenarioResult as JSON here")
    lifecycle.add_argument("--checkpoint", default=None,
                           help="checkpoint path; written every "
                                "--checkpoint-interval ticks, and the "
                                "resume source with --resume")
    lifecycle.add_argument("--checkpoint-interval", type=int, default=50,
                           help="ticks between checkpoints when "
                                "--checkpoint is given (default 50)")
    lifecycle.add_argument("--resume", action="store_true",
                           help="resume the scenario from --checkpoint "
                                "instead of starting fresh")
    lifecycle.add_argument("--interference", type=int, nargs="*",
                           default=None,
                           help="interference scenario ids mixed into "
                                "retrain corpora (default: stream-only "
                                "retraining)")
    lifecycle.add_argument("--seed", type=int, default=0)
    _add_jobs_argument(lifecycle)
    _add_trace_argument(lifecycle)
    return parser


def _cmd_inventory(args, out) -> int:
    from repro.datasets.configs import TABLE1_RUNS

    print(f"{'#':>2}  {'service':<10} {'CPU/MEM':<12} {'par':<4} "
          f"{'traffic':<18} bottleneck", file=out)
    for run in TABLE1_RUNS:
        limits = (
            f"{run.cpu_limit or '-'}/"
            f"{f'{run.mem_limit / 2**30:.0f}GB' if run.mem_limit else '-'}"
        )
        print(
            f"{run.run_id:>2}  {run.service:<10} {limits:<12} "
            f"{run.parallel_with or '-':<4} {run.traffic:<18} {run.bottleneck}",
            file=out,
        )
    return 0


def _cmd_dataset(args, out) -> int:
    import numpy as np

    from repro.datasets.configs import run_by_id
    from repro.datasets.generate import build_training_corpus

    runs = [run_by_id(i) for i in args.runs] if args.runs else None
    print(f"Generating corpus ({args.duration}s per run)...", file=out)
    corpus = build_training_corpus(
        duration=args.duration, seed=args.seed, runs=runs, n_jobs=args.jobs
    )
    print(
        f"  {corpus.X.shape[0]} samples x {corpus.X.shape[1]} metrics, "
        f"{corpus.saturated_fraction:.0%} saturated",
        file=out,
    )
    for row in corpus.summary():
        print("  ".join(f"{key}={value}" for key, value in row.items()), file=out)
    if args.out:
        np.savez_compressed(
            args.out, X=corpus.X, y=corpus.y, groups=corpus.groups
        )
        print(f"Saved to {args.out}.", file=out)
    return 0


def _cmd_train(args, out) -> int:
    from repro.core.model import MonitorlessModel
    from repro.datasets.configs import run_by_id
    from repro.datasets.generate import build_training_corpus

    runs = [run_by_id(i) for i in args.runs] if args.runs else None
    print(f"Generating corpus ({args.duration}s per run)...", file=out)
    corpus = build_training_corpus(
        duration=args.duration, seed=args.seed, runs=runs, n_jobs=args.jobs
    )
    print(
        f"  {corpus.X.shape[0]} samples x {corpus.X.shape[1]} metrics, "
        f"{corpus.saturated_fraction:.0%} saturated",
        file=out,
    )
    print(f"Training ({args.trees} trees)...", file=out)
    model = MonitorlessModel(
        classifier_params={
            "n_estimators": args.trees,
            "n_jobs": args.jobs,
            "tree_method": args.tree_method,
        },
        random_state=args.seed,
    )
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    model.save(args.out)
    print(f"Saved to {args.out} "
          f"({model.n_engineered_features_} engineered features).", file=out)
    return 0


def _cmd_gridsearch(args, out) -> int:
    import numpy as np

    from repro.datasets.configs import run_by_id
    from repro.datasets.generate import build_training_corpus
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.model_selection import GridSearchCV, GroupKFold

    runs = [run_by_id(i) for i in args.runs] if args.runs else None
    print(f"Generating corpus ({args.duration}s per run)...", file=out)
    corpus = build_training_corpus(
        duration=args.duration, seed=args.seed, runs=runs, n_jobs=args.jobs
    )
    n_groups = len(np.unique(corpus.groups))
    folds = min(args.folds, n_groups)
    # The paper's Table-2 forest axes (tree count fixed by --trees).
    grid = {
        "min_samples_leaf": [10, 20, 40],
        "criterion": ["gini", "entropy"],
    }
    print(
        f"Grid search: {len(grid['min_samples_leaf']) * len(grid['criterion'])}"
        f" candidates x {folds} run-grouped folds...",
        file=out,
    )
    search = GridSearchCV(
        RandomForestClassifier(
            n_estimators=args.trees,
            tree_method=args.tree_method,
            random_state=args.seed,
        ),
        grid,
        cv=GroupKFold(n_splits=folds),
        scoring="f1",
        n_jobs=args.jobs,
    )
    search.fit(corpus.X, corpus.y, groups=corpus.groups)
    for row in sorted(
        search.results_, key=lambda r: r["mean_score"], reverse=True
    ):
        params = ", ".join(f"{k}={v}" for k, v in row["params"].items())
        print(f"  F1={row['mean_score']:.4f}  {params}", file=out)
    best = ", ".join(f"{k}={v}" for k, v in search.best_params_.items())
    print(f"Best: {best} (F1={search.best_score_:.4f})", file=out)
    return 0


def _cmd_evaluate(args, out) -> int:
    from repro.core.model import MonitorlessModel
    from repro.datasets.experiments import (
        elgg_scenario,
        evaluate_detectors,
        multitenant_scenario,
        sockshop_windows,
    )

    model = MonitorlessModel.load(args.model)
    window = None
    if args.scenario == "elgg":
        scenario = elgg_scenario(duration=args.duration, seed=args.seed)
    else:
        teastore, sockshop = multitenant_scenario(
            duration=args.duration, seed=args.seed
        )
        scenario = teastore if args.scenario == "teastore" else sockshop
        if args.scenario == "sockshop":
            window = sockshop_windows(args.duration)
    comparison = evaluate_detectors(scenario, model, k=args.k, window=window)
    for row in comparison.table():
        print("  ".join(f"{key}={value}" for key, value in row.items()), file=out)
    return 0


def _cmd_explain(args, out) -> int:
    from repro.core.interpret import SurrogateTree
    from repro.core.model import MonitorlessModel
    from repro.datasets.generate import build_training_corpus

    model = MonitorlessModel.load(args.model)
    print(f"Top {args.top} features by importance:", file=out)
    for name, weight in model.feature_importances(top=args.top):
        print(f"  {weight:.4f}  {name}", file=out)

    corpus = build_training_corpus(duration=args.duration, seed=args.seed)
    features = model.transform(corpus.X, corpus.meta, corpus.groups)
    predictions = model.classifier_.predict(features)
    surrogate = SurrogateTree(max_depth=3, min_samples_leaf=30).fit(
        features, predictions, model.pipeline_.feature_names_
    )
    print(
        f"\nSurrogate scaling rules (depth {surrogate.depth}, "
        f"{surrogate.n_leaves} rules):",
        file=out,
    )
    for rule in surrogate.rules()[:8]:
        print(f"  {rule}", file=out)
    print(
        f"\n(surrogate fidelity: {surrogate.fidelity(features, predictions):.1%})",
        file=out,
    )
    return 0


def _cmd_stream(args, out) -> int:
    import time

    from repro.apps.sockshop import sockshop_application
    from repro.apps.teastore import teastore_application
    from repro.cluster.simulation import ClusterSimulation, Placement
    from repro.core.model import MonitorlessModel
    from repro.datasets.experiments import (
        evaluation_nodes,
        sockshop_placements,
        teastore_placements,
    )
    from repro.orchestrator.autoscaler import ScalingRules
    from repro.orchestrator.loop import Orchestrator
    from repro.orchestrator.policies import MonitorlessPolicy
    from repro.telemetry.agent import TelemetryAgent
    from repro.workloads.locust import staggered_locust_runs
    from repro.workloads.traces import teastore_trace

    model = MonitorlessModel.load(args.model)
    simulation = ClusterSimulation(evaluation_nodes(), seed=args.seed)
    simulation.deploy(teastore_application(), teastore_placements())
    simulation.deploy(sockshop_application(), sockshop_placements())
    agent = TelemetryAgent(seed=args.seed)
    policy = MonitorlessPolicy(
        model, agent, window=16, streaming=not args.batch
    )
    rules = ScalingRules(
        placements={
            "auth": Placement(node="M2", cpu_limit=2.0, memory_limit=4 * 2**30),
            "recommender": Placement(
                node="M2", cpu_limit=1.0, memory_limit=4 * 2**30
            ),
            "webui": Placement(node="M2", cpu_limit=1.0, memory_limit=4 * 2**30),
        },
        replica_lifespan=120,
        scale_groups=(("auth", "recommender"),),
    )
    orchestrator = Orchestrator(simulation, "teastore", policy, rules)

    duration = args.duration
    workloads = {
        "teastore": teastore_trace(duration=duration, seed=args.seed + 7),
        "sockshop": staggered_locust_runs(
            total_duration=duration,
            starts=tuple(int(duration * f) for f in (1 / 7, 3 / 7, 5 / 7)),
            run_duration=duration // 7,
            hatch_seconds=int(duration // 7 * 0.7),
        ),
    }
    mode = "batch" if args.batch else "streaming"
    print(f"Running the {mode} closed loop for {duration}s...", file=out)
    orchestrator.start()
    started = time.perf_counter()
    for t in range(duration):
        orchestrator.tick(
            {app: series[t] for app, series in workloads.items()}
        )
    elapsed = time.perf_counter() - started
    result = orchestrator.finish()
    print(
        "  ".join(f"{key}={value}" for key, value in result.as_row().items()),
        file=out,
    )
    print(
        f"{duration / elapsed:.0f} ticks/s ({elapsed:.2f}s wall, "
        f"{result.total_scale_outs} scale-outs)",
        file=out,
    )
    return 0


def _cmd_obs(args, out) -> int:
    from repro import obs
    from repro.apps.teastore import teastore_application
    from repro.cluster.simulation import ClusterSimulation, Placement
    from repro.core.thresholds import ThresholdBaseline
    from repro.datasets.experiments import evaluation_nodes, teastore_placements
    from repro.orchestrator.autoscaler import ScalingRules
    from repro.orchestrator.loop import Orchestrator
    from repro.orchestrator.policies import MonitorlessPolicy, ThresholdPolicy
    from repro.telemetry.agent import TelemetryAgent
    from repro.workloads.patterns import linear_ramp

    simulation = ClusterSimulation(evaluation_nodes(), seed=args.seed)
    simulation.deploy(teastore_application(), teastore_placements())
    agent = TelemetryAgent(seed=args.seed)
    if args.model:
        from repro.core.model import MonitorlessModel

        policy = MonitorlessPolicy(
            MonitorlessModel.load(args.model), agent, window=16, streaming=True
        )
    else:
        policy = ThresholdPolicy(
            ThresholdBaseline(
                kind="cpu-or-mem", cpu_threshold=80.0, mem_threshold=80.0
            ),
            agent,
        )
    rules = ScalingRules(
        placements={
            "auth": Placement(node="M2", cpu_limit=2.0, memory_limit=4 * 2**30),
            "recommender": Placement(
                node="M2", cpu_limit=1.0, memory_limit=4 * 2**30
            ),
            "webui": Placement(node="M2", cpu_limit=1.0, memory_limit=4 * 2**30),
        },
        replica_lifespan=120,
        scale_groups=(("auth", "recommender"),),
    )
    orchestrator = Orchestrator(simulation, "teastore", policy, rules)
    # A saturating ramp: enough load that the policy fires and the
    # autoscaler/fault counters have something to show at any duration.
    workload = linear_ramp(args.duration, 10, 240)

    obs.reset()
    obs.enable()
    try:
        result = orchestrator.run({"teastore": workload})
    finally:
        obs.disable()
    print(
        f"Drove {args.duration} instrumented ticks with the "
        f"{policy.name} policy ({result.total_scale_outs} scale-outs).",
        file=out,
    )
    snapshot = obs.snapshot()
    if args.format in ("text", "all"):
        print("\n== span tree ==", file=out)
        print(
            obs.render_span_tree(obs.span_roots(), dropped=obs.dropped_spans()),
            file=out,
        )
    if args.format in ("json", "all"):
        print("\n== metrics (json) ==", file=out)
        print(obs.metrics_to_json(snapshot), file=out)
    if args.format in ("prom", "all"):
        print("\n== metrics (prometheus) ==", file=out)
        print(obs.metrics_to_prometheus(snapshot), file=out, end="")
    return 0


def _small_solo_model(args, out):
    """Load ``--model`` or train the small 6-run, 15-tree stand-in.

    The stand-in is trained purely on solo-tenant Table-1 runs, which
    is exactly what the interference transfer eval needs as a baseline.
    """
    from repro.core.model import MonitorlessModel

    if args.model:
        return MonitorlessModel.load(args.model)
    print("No --model given; training a small 6-run model...", file=out)
    from repro.datasets.configs import run_by_id
    from repro.datasets.generate import build_training_corpus

    runs = [run_by_id(i) for i in (1, 2, 7, 9, 12, 24)]
    corpus = build_training_corpus(
        duration=80, calibration_duration=100, seed=3, runs=runs
    )
    model = MonitorlessModel(
        classifier_params={"n_estimators": 15}, random_state=args.seed
    )
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    return model


def _cmd_chaos(args, out) -> int:
    import json

    from repro.reliability.chaos import ChaosConfig, run_chaos

    model = _small_solo_model(args, out)
    config = ChaosConfig(
        dropout_probability=args.dropout,
        staleness_budget=args.budget,
        failsafe=args.failsafe,
        seed=args.seed,
        antagonist=args.antagonist,
        antagonist_rate=args.antagonist_rate,
    )
    report = run_chaos(
        model, duration=args.duration, seed=args.seed, config=config
    )
    width = max(len(row["quantity"]) for row in report.rows())
    for row in report.rows():
        print(f"  {row['quantity']:<{width}}  {row['value']}", file=out)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"Report written to {args.report}", file=out)
    if not report.within_bound:
        print(
            f"SLO-violation delta {report.violation_delta} exceeds the "
            f"documented bound {report.violation_bound:.0f}.",
            file=out,
        )
        return 1
    return 0


def _cmd_fleet(args, out) -> int:
    import time

    from repro.fleet.orchestrator import (
        FleetOrchestrator,
        default_fleet_workloads,
        make_fleet_specs,
    )

    model = _small_solo_model(args, out)
    specs = make_fleet_specs(args.cells, base_seed=args.seed, kind=args.kind)
    workloads = default_fleet_workloads(args.cells, args.ticks, seed=args.seed)
    orchestrator = FleetOrchestrator(
        specs, model,
        n_shards=args.shards,
        n_jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
    )
    n_containers = 7 * args.cells
    print(
        f"Driving {args.cells} {args.kind} cells ({n_containers} containers)"
        f" for {args.ticks} ticks over {orchestrator.n_shards} shard(s)...",
        file=out,
    )
    started = time.perf_counter()
    result = orchestrator.run(workloads)
    elapsed = time.perf_counter() - started
    decisions = sum(len(d) for d in result.decisions)
    violations = sum(
        float(cell.violations.sum()) for cell in result.cells.values()
    )
    print(
        f"  {decisions} saturation decisions, {result.total_scale_outs} "
        f"scale-outs, {violations:.0f} SLO violation-ticks",
        file=out,
    )
    if result.counters["demotions"] or result.counters["failsafe_ticks"]:
        counters = "  ".join(
            f"{key}={value}" for key, value in result.counters.items()
        )
        print(f"  fallback: {counters}", file=out)
    print(
        f"{args.ticks / elapsed:.1f} ticks/s "
        f"({n_containers * args.ticks / elapsed:,.0f} container-ticks/s, "
        f"{elapsed:.2f}s wall)",
        file=out,
    )
    return 0


def _cmd_interference(args, out) -> int:
    import json

    from repro.datasets.interference import (
        build_interference_corpus,
        transfer_eval,
    )

    model = _small_solo_model(args, out)
    print(
        f"Building interference corpus ({args.duration}s per scenario)...",
        file=out,
    )
    corpus = build_interference_corpus(
        duration=args.duration,
        calibration_duration=args.calibration_duration,
        seed=args.seed,
        n_jobs=args.jobs,
    )
    for row in corpus.summary():
        print("  ".join(f"{key}={value}" for key, value in row.items()), file=out)
    result = transfer_eval(model, corpus)
    print("Solo->interference transfer:", file=out)
    for key in (
        "interference_recall",
        "self_recall",
        "false_alarm_interference",
        "false_alarm_solo",
        "false_alarm_delta",
    ):
        value = result[key]
        shown = "n/a" if value is None else f"{value:.3f}"
        print(f"  {key:<26} {shown}", file=out)
    for row in result["per_scenario"]:
        print(
            "  " + "  ".join(f"{key}={value}" for key, value in row.items()),
            file=out,
        )
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"Report written to {args.report}", file=out)
    return 0


def _lifecycle_model(args, out):
    """Load ``--model`` or train the champion the scenario defaults
    are tuned for (the 6-run stand-in with (1, 5) temporal windows)."""
    from repro.core.model import MonitorlessModel

    if args.model:
        return MonitorlessModel.load(args.model)
    print("No --model given; training a small 6-run model...", file=out)
    from repro.core.features.pipeline import PipelineConfig
    from repro.datasets.configs import run_by_id
    from repro.datasets.generate import build_training_corpus

    runs = [run_by_id(i) for i in (1, 2, 7, 9, 12, 24)]
    corpus = build_training_corpus(
        duration=80, calibration_duration=100, seed=3, runs=runs
    )
    model = MonitorlessModel(
        pipeline_config=PipelineConfig(temporal_windows=(1, 5)),
        classifier_params={"n_estimators": 15},
        random_state=0,
    )
    model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)
    return model


def _cmd_lifecycle(args, out) -> int:
    import contextlib
    import json
    import tempfile

    from repro.lifecycle import DriftScenarioConfig, DriftScenarioRunner

    config = DriftScenarioConfig(
        duration=args.duration,
        seed=args.seed,
        interference_scenario_ids=tuple(args.interference or ()),
        n_jobs=args.jobs,
    )
    with contextlib.ExitStack() as stack:
        if args.resume:
            if not args.checkpoint:
                print("--resume needs --checkpoint.", file=out)
                return 2
            model = None
            if args.model:
                from repro.core.model import MonitorlessModel

                model = MonitorlessModel.load(args.model)
            runner = DriftScenarioRunner.resume(
                args.checkpoint, config, model=model
            )
            print(f"Resumed from tick {runner.t}.", file=out)
        else:
            model = _lifecycle_model(args, out)
            registry_dir = args.registry
            if registry_dir is None:
                registry_dir = stack.enter_context(
                    tempfile.TemporaryDirectory()
                )
            runner = DriftScenarioRunner(model, registry_dir, config)
        print(
            f"Driving the drift scenario for {config.duration} ticks "
            f"(onset at {config.onset_tick})...",
            file=out,
        )
        runner.run_until(
            checkpoint_path=args.checkpoint,
            checkpoint_interval=(
                args.checkpoint_interval if args.checkpoint else 0
            ),
        )
        result = runner.finish()
    for entry in result.history:
        version = f" v{entry['version']}" if entry["version"] else ""
        print(
            f"  t={entry['tick']:>4}  {entry['event']:<16}{version}  "
            f"{entry['reason']}",
            file=out,
        )
    print(
        f"onset={result.onset_tick}  detection={result.detection_tick}  "
        f"retrain={result.retrain_tick}  promotion={result.promotion_tick}  "
        f"champion=v{result.champion_version}",
        file=out,
    )
    print(
        f"{result.violations} SLO violation-ticks, "
        f"{result.scale_outs} scale-outs",
        file=out,
    )
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"Report written to {args.report}", file=out)
    return 0


_COMMANDS = {
    "inventory": _cmd_inventory,
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "gridsearch": _cmd_gridsearch,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "stream": _cmd_stream,
    "obs": _cmd_obs,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "interference": _cmd_interference,
    "lifecycle": _cmd_lifecycle,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    tracing = getattr(args, "trace", False)
    if tracing:
        from repro import obs

        obs.reset()
        obs.enable()
    try:
        code = _COMMANDS[args.command](args, out)
    finally:
        if tracing:
            from repro import obs

            obs.disable()
    if tracing and code == 0:
        _print_observability(out)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
