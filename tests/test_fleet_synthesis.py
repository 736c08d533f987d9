"""Property tests: batched fleet synthesis vs the per-instance reference.

The fleet's struct-of-arrays kernel promises bitwise equality with
``TelemetryAgent.instance_matrix`` for every emitted row -- across
history-window boundaries, for rows added mid-window (scale-out),
after row retirement/reuse, and in fleets mixing plain and wrapped
agents.  The one documented exception is counter *rates* on a
stream's very first tick, which the batch matrix back-fills
non-causally (see ``tests/serving_reference.py``); first-tick
comparisons therefore skip the counter columns.

The fault layer (dropout, chaos and resilient imputation as row masks)
is checked against the per-container wrapper stack
``ResilientInstanceStream(ChaosInstanceStream(DropoutInstanceStream(
InstanceTelemetryStream)))`` of ``tests/serving_reference.py`` row by
row and tick by tick.

A stream that delivers a column subset is checked against the
full-width stream and the reference stack at once: the same cells at
those columns, the full row's completeness, faults and counters, and
every generator left in the same state.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster.faults import MetricDropout
from repro.core.features.pipeline import PipelineConfig
from repro.core.model import MonitorlessModel
from repro.fleet.orchestrator import build_cell, make_fleet_specs
from repro.fleet.policy import FleetPolicy
from repro.fleet.telemetry import FleetTelemetryStream
from repro.reliability.chaos import ChaosAgent, ChaosConfig, TelemetryBlackout
from repro.reliability.telemetry import ResilientTelemetry, TelemetryFault
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.catalog import default_catalog
from tests.serving_reference import open_reference_stream


def _build(base_seed):
    spec = make_fleet_specs(1, base_seed=base_seed)[0]
    cell = build_cell(spec)
    deployment = cell.simulation.deployments[cell.application]
    containers = [
        instance.container
        for replicas in deployment.instances.values()
        for instance in replicas
    ]
    return spec, cell, containers


def _counter_columns(catalog):
    return np.concatenate([
        catalog.spec_arrays(catalog.host).counters,
        catalog.spec_arrays(catalog.container).counters,
    ])


def _advance(fleet, expected_rows):
    """One synthesis round; returns ``{row: raw-row copy}``."""
    fleet.begin_tick()
    emitted = fleet.advance_round()
    assert sorted(emitted.tolist()) == sorted(expected_rows)
    return {row: fleet.raw[row].copy() for row in emitted}


def _assert_rows_match_matrix(agent, container, nodes, rows, counter_cols):
    """``rows`` are the container's emissions in tick order, starting
    at its creation tick."""
    reference = agent.instance_matrix(container, nodes)
    assert len(rows) <= reference.shape[0]
    for k, values in enumerate(rows):
        if k == 0:
            # First-tick counter rates are back-filled non-causally by
            # the batch converter; everything else must match bitwise.
            assert np.array_equal(
                values[~counter_cols], reference[0][~counter_cols]
            )
        else:
            assert np.array_equal(values, reference[k]), f"tick {k}"


class TestBatchedSynthesisProperties:
    @given(seed=st.integers(0, 2**16), ticks=st.integers(17, 24))
    @settings(max_examples=5, deadline=None)
    def test_rows_match_instance_matrix_across_windows(self, seed, ticks):
        """Full-fleet emission crossing the 16-tick history window."""
        spec, cell, containers = _build(seed)
        agent = cell.agent
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=len(containers),
        )
        for row, container in enumerate(containers):
            fleet.add_row(
                row, spec.namespace, agent, container, cell.simulation.nodes
            )
        per_row = {row: [] for row in range(len(containers))}
        for _ in range(ticks):
            cell.simulation.step({cell.application: 40.0})
            for row, values in _advance(
                fleet, range(len(containers))
            ).items():
                per_row[row].append(values)
        counter_cols = _counter_columns(agent.catalog)
        for row, container in enumerate(containers):
            _assert_rows_match_matrix(
                agent, container, cell.simulation.nodes,
                per_row[row], counter_cols,
            )

    @given(seed=st.integers(0, 2**16), scale_tick=st.integers(1, 6))
    @settings(max_examples=5, deadline=None)
    def test_scale_out_mid_window(self, seed, scale_tick):
        """A row added after tick 0 joins its own (namespace, node,
        start) host group and still matches its reference matrix."""
        spec, cell, containers = _build(seed)
        agent = cell.agent
        nodes = cell.simulation.nodes
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=16,
        )
        for row, container in enumerate(containers):
            fleet.add_row(row, spec.namespace, agent, container, nodes)
        live = list(range(len(containers)))
        per_row = {row: [] for row in live}
        extra_row = None
        for t in range(scale_tick + 6):
            if t == scale_tick:
                service, placement = next(
                    iter(cell.autoscaler.rules.placements.items())
                )
                extra = cell.simulation.add_replica(
                    cell.application, service, placement
                )
                extra_row = len(containers)
                fleet.add_row(extra_row, spec.namespace, agent, extra, nodes)
                containers.append(extra)
                live.append(extra_row)
                per_row[extra_row] = []
            cell.simulation.step({cell.application: 55.0})
            for row, values in _advance(fleet, live).items():
                per_row[row].append(values)
        assert extra_row is not None
        counter_cols = _counter_columns(agent.catalog)
        for row, container in zip(live, containers):
            _assert_rows_match_matrix(
                agent, container, nodes, per_row[row], counter_cols
            )

    @given(seed=st.integers(0, 2**16), retire_tick=st.integers(1, 4))
    @settings(max_examples=5, deadline=None)
    def test_row_retirement_and_reuse(self, seed, retire_tick):
        """Retiring a row and reusing its index for a new container
        leaves every surviving stream bitwise intact."""
        spec, cell, containers = _build(seed)
        agent = cell.agent
        nodes = cell.simulation.nodes
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=16,
        )
        for row, container in enumerate(containers):
            fleet.add_row(row, spec.namespace, agent, container, nodes)
        live = list(range(len(containers)))
        per_row = {row: [] for row in live}
        reused = False
        for t in range(retire_tick + 6):
            if t == retire_tick:
                victim = live.pop(0)
                fleet.retire_row(victim)
                per_row.pop(victim)
                containers.pop(0)
                service, placement = next(
                    iter(cell.autoscaler.rules.placements.items())
                )
                extra = cell.simulation.add_replica(
                    cell.application, service, placement
                )
                fleet.add_row(victim, spec.namespace, agent, extra, nodes)
                containers.append(extra)
                live.append(victim)
                per_row[victim] = []
                reused = True
            cell.simulation.step({cell.application: 60.0})
            for row, values in _advance(fleet, live).items():
                per_row[row].append(values)
        assert reused
        counter_cols = _counter_columns(agent.catalog)
        for row, container in zip(live, containers):
            _assert_rows_match_matrix(
                agent, container, nodes, per_row[row], counter_cols
            )

    @given(seed=st.integers(0, 2**16), ticks=st.integers(3, 10))
    @settings(max_examples=5, deadline=None)
    def test_mixed_plain_and_wrapped_fleet(self, seed, ticks):
        """Plain and wrapped agents share one batched pass per round
        and both emit the same bits as the reference matrix."""
        spec, cell, containers = _build(seed)
        agent = cell.agent
        nodes = cell.simulation.nodes
        wrapped = ResilientTelemetry(agent, staleness_budget=2)
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=len(containers),
        )
        for row, container in enumerate(containers):
            row_agent = wrapped if row % 2 else agent
            fleet.add_row(row, spec.namespace, row_agent, container, nodes)
        per_row = {row: [] for row in range(len(containers))}
        for _ in range(ticks):
            cell.simulation.step({cell.application: 45.0})
            for row, values in _advance(
                fleet, range(len(containers))
            ).items():
                per_row[row].append(values)
            assert not fleet.faulted
            assert np.all(fleet.completeness[: len(containers)] == 1.0)
            assert np.all(fleet.staleness[: len(containers)] == 0)
        counter_cols = _counter_columns(agent.catalog)
        for row, container in enumerate(containers):
            _assert_rows_match_matrix(
                agent, container, nodes, per_row[row], counter_cols
            )


# ----------------------------------------------------------------------
# The fault layer against the per-stream wrapper stack
# ----------------------------------------------------------------------
#: obs counters both paths must total identically.
_FAULT_COUNTERS = ("faults.", "chaos.", "resilience.", "telemetry.rows_")


def _fault_counters(run):
    """``run()``'s increments of the fault-layer obs counters."""
    before = obs.snapshot()["counters"]
    run()
    after = obs.snapshot()["counters"]
    return {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if name.startswith(_FAULT_COUNTERS) and value != before.get(name, 0.0)
    }


def _add_totals(totals, delta):
    for name, value in delta.items():
        totals[name] = totals.get(name, 0.0) + value


def _reference_tick(streams, containers, outcome, columns=slice(None)):
    """The reference chain's catch-up loop over every stream; each
    delivered row is recorded at ``columns``."""
    for row, stream in streams.items():
        container = containers[row]
        end = container.created_at + len(container.history)
        delivered, fault = [], None
        while stream.clock < end:
            try:
                values = stream.emit()
            except TelemetryFault as error:
                fault = type(error).__name__
                break
            delivered.append(
                (values[columns].tobytes(), stream.tail.last_completeness())
            )
        outcome[row] = (
            delivered, fault, getattr(stream, "staleness", 0), stream.clock
        )


def _fleet_tick(fleet, rows, outcome, columns=slice(None)):
    """One policy tick of ``fleet``'s rounds; each delivered row is
    recorded at ``columns`` of its ``raw`` row."""
    fleet.begin_tick()
    delivered = {row: [] for row in rows}
    while True:
        emitted = fleet.advance_round()
        if emitted.size == 0:
            break
        for row in emitted.tolist():
            delivered[row].append(
                (
                    fleet.raw[row, columns].tobytes(),
                    float(fleet.completeness[row]),
                )
            )
    assert set(np.flatnonzero(fleet.faulted_mask).tolist()) == set(
        fleet.faulted
    )
    for row in rows:
        fault = fleet.faulted.get(row)
        outcome[row] = (
            delivered[row],
            None if fault is None else type(fault).__name__,
            int(fleet.staleness[row]),
            fleet.clock(row),
        )


def _fault_stack(base, layers, probability, budget, retries, blackout, seed):
    agent = base
    if "dropout" in layers:
        agent = MetricDropout(agent, probability=probability, seed=seed + 1)
    if "chaos" in layers:
        agent = ChaosAgent(agent, ChaosConfig(
            hard_failure_probability=0.08,
            transient_failure_probability=0.12,
            nan_probability=0.1,
            blackouts=(blackout,),
            seed=seed,
        ))
    if "resilient" in layers:
        agent = ResilientTelemetry(
            agent, staleness_budget=budget, max_retries=retries
        )
    return agent


class TestFaultMaskParity:
    @given(
        seed=st.integers(0, 2**16),
        layers=st.sampled_from([
            ("resilient", "chaos", "dropout"),
            ("chaos", "dropout"),
            ("resilient", "dropout"),
            ("resilient", "chaos"),
        ]),
        probability=st.sampled_from([0.0, 0.1, 1.0]),
        budget=st.sampled_from([0, 2]),
        retries=st.sampled_from([0, 2]),
        blackout_start=st.integers(2, 12),
        blackout_length=st.integers(1, 6),
        scale_tick=st.integers(1, 14),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_per_stream_wrappers(
        self, seed, layers, probability, budget, retries,
        blackout_start, blackout_length, scale_tick,
    ):
        """Delivered bits, completeness, faults, staleness, clocks and
        fault-layer obs counters equal the wrapper stack's, row by row
        and tick by tick, across a blackout and a mid-window scale-out."""
        spec, cell, containers = _build(seed)
        nodes = cell.simulation.nodes
        blackout = TelemetryBlackout(
            blackout_start, blackout_start + blackout_length
        )
        agent = _fault_stack(
            cell.agent, layers, probability, budget, retries, blackout, seed
        )
        fleet = FleetTelemetryStream(
            agent.catalog, np.arange(agent.catalog.n_metrics),
            capacity=16,
        )
        streams = {}

        def add(row, container):
            fleet.add_row(row, spec.namespace, agent, container, nodes)
            streams[row] = open_reference_stream(
                agent, container, nodes, history=16
            )

        for row, container in enumerate(containers):
            add(row, container)
        totals = {"fleet": {}, "reference": {}}
        obs.reset()
        obs.enable()
        try:
            for t in range(22):
                if t == scale_tick:
                    service, placement = next(
                        iter(cell.autoscaler.rules.placements.items())
                    )
                    containers.append(cell.simulation.add_replica(
                        cell.application, service, placement
                    ))
                    add(len(containers) - 1, containers[-1])
                cell.simulation.step({cell.application: 50.0})
                rows = sorted(streams)
                mine, reference = {}, {}
                _add_totals(totals["fleet"], _fault_counters(
                    lambda: _fleet_tick(fleet, rows, mine)
                ))
                _add_totals(totals["reference"], _fault_counters(
                    lambda: _reference_tick(streams, containers, reference)
                ))
                for row in rows:
                    assert mine[row] == reference[row], f"row {row} tick {t}"
        finally:
            obs.disable()
            obs.reset()
        assert totals["fleet"] == totals["reference"]
        if "chaos" in layers:
            assert totals["reference"].get("chaos.hard_failures", 0) > 0


class TestUnsupportedStacks:
    def _fleet_and_container(self):
        _, cell, containers = _build(0)
        fleet = FleetTelemetryStream(
            cell.agent.catalog, np.arange(cell.agent.catalog.n_metrics),
            capacity=4,
        )
        return cell, fleet, containers[0]

    @pytest.mark.parametrize("make", [
        lambda a: MetricDropout(ChaosAgent(a, ChaosConfig()), probability=0.1),
        lambda a: ChaosAgent(ResilientTelemetry(a), ChaosConfig()),
        lambda a: ResilientTelemetry(ResilientTelemetry(a)),
        lambda a: TelemetryAgent(catalog=copy.copy(a.catalog), seed=a.seed),
    ], ids=[
        "wrong-order", "resilient-inside-chaos", "repeated", "foreign-catalog",
    ])
    def test_unsupported_stack_raises_type_error(self, make):
        cell, fleet, container = self._fleet_and_container()
        with pytest.raises(TypeError, match="Unsupported telemetry agent stack"):
            fleet.add_row(
                0, "ns", make(cell.agent), container, cell.simulation.nodes
            )
        assert fleet.advance_round().size == 0  # nothing was attached

    def test_unknown_wrapper_is_named(self):
        class Recorder:
            def __init__(self, agent):
                self.agent = agent
                self.catalog = agent.catalog

        cell, fleet, container = self._fleet_and_container()
        with pytest.raises(TypeError, match="Recorder -> TelemetryAgent"):
            fleet.add_row(
                0, "ns", Recorder(cell.agent), container, cell.simulation.nodes
            )


# ----------------------------------------------------------------------
# Delivered columns: a narrow stream against the full width
# ----------------------------------------------------------------------
def _column_kinds(catalog):
    """Per scope, the catalog columns of each kind a subset must hold."""
    host = catalog.spec_arrays(catalog.host)
    container = catalog.spec_arrays(catalog.container)
    n_host = catalog.n_host
    return {
        "host": (
            host.counter_idx,
            host.complement_idx,
            host.nonneg_idx,
            np.flatnonzero(~host.noisy),
        ),
        "container": (
            n_host + container.counter_idx,
            n_host + np.flatnonzero(~container.noisy),
        ),
    }


_CATALOG = default_catalog()
_KINDS = _column_kinds(_CATALOG)
_SCOPE_RANGE = {
    "host": (0, _CATALOG.n_host),
    "container": (_CATALOG.n_host, _CATALOG.n_metrics),
}


@st.composite
def _column_subsets(draw):
    """A sorted subset of the host columns, the container columns or
    both, holding a counter, complement, clamped and noise-free column
    of each scope it covers (the noise-free host columns 8, 15 and 20
    always) plus up to 24 more."""
    scopes = draw(st.sampled_from(
        [("host",), ("container",), ("host", "container")]
    ))
    columns = set()
    for scope in scopes:
        for pool in _KINDS[scope]:
            columns.add(draw(st.sampled_from(pool.tolist())))
        lo, hi = _SCOPE_RANGE[scope]
        columns.update(draw(st.lists(st.integers(lo, hi - 1), max_size=24)))
    if "host" in scopes:
        columns.update((8, 15, 20))
    return np.asarray(sorted(columns), dtype=np.intp)


def _generator_states(fleet):
    """Every synthesis and dropout generator's state, keyed by row or
    host-group key."""
    return (
        {row: rng.bit_generator.state for row, rng in fleet._row_rng.items()},
        {
            key: fleet._grp_rng[slot].bit_generator.state
            for key, slot in fleet._group_slots.items()
        },
        {row: rng.bit_generator.state for row, rng in fleet._drop_rng.items()},
    )


class TestDeliveredColumns:
    @given(
        seed=st.integers(0, 2**16),
        columns=_column_subsets(),
        layers=st.sampled_from([
            (),
            ("dropout",),
            ("chaos", "dropout"),
            ("resilient", "chaos", "dropout"),
            ("resilient", "chaos"),
        ]),
        probability=st.sampled_from([0.1, 1.0]),
        blackout_start=st.integers(2, 12),
        scale_tick=st.integers(1, 14),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_narrow_stream_matches_full_width_and_reference(
        self, seed, columns, layers, probability, blackout_start, scale_tick,
    ):
        """A stream delivering ``columns`` emits the full-width stream's
        and the reference stack's cells there, with the full row's
        completeness, staleness, faults, samples and obs counters, and
        leaves every generator where the full-width stream leaves it,
        tick by tick, across a blackout and a mid-window scale-out."""
        spec, cell, containers = _build(seed)
        nodes = cell.simulation.nodes
        blackout = TelemetryBlackout(blackout_start, blackout_start + 3)
        agent = _fault_stack(
            cell.agent, layers, probability, 2, 1, blackout, seed
        )
        catalog = agent.catalog
        narrow = FleetTelemetryStream(catalog, columns, capacity=16)
        full = FleetTelemetryStream(
            catalog, np.arange(catalog.n_metrics), capacity=16
        )
        streams = {}

        def add(row, container):
            narrow.add_row(row, spec.namespace, agent, container, nodes)
            full.add_row(row, spec.namespace, agent, container, nodes)
            streams[row] = open_reference_stream(
                agent, container, nodes, history=16
            )

        for row, container in enumerate(containers):
            add(row, container)
        obs.reset()
        obs.enable()
        try:
            for t in range(22):
                if t == scale_tick:
                    service, placement = next(
                        iter(cell.autoscaler.rules.placements.items())
                    )
                    containers.append(cell.simulation.add_replica(
                        cell.application, service, placement
                    ))
                    add(len(containers) - 1, containers[-1])
                cell.simulation.step({cell.application: 50.0})
                rows = sorted(streams)
                outcomes = {"narrow": {}, "full": {}, "reference": {}}
                counters = {
                    "narrow": _fault_counters(
                        lambda: _fleet_tick(narrow, rows, outcomes["narrow"])
                    ),
                    "full": _fault_counters(lambda: _fleet_tick(
                        full, rows, outcomes["full"], columns
                    )),
                    "reference": _fault_counters(lambda: _reference_tick(
                        streams, containers, outcomes["reference"], columns
                    )),
                }
                assert outcomes["narrow"] == outcomes["full"], f"tick {t}"
                assert outcomes["narrow"] == outcomes["reference"], f"tick {t}"
                assert counters["narrow"] == counters["full"], f"tick {t}"
                assert counters["narrow"] == counters["reference"], f"tick {t}"
                for name in (
                    "completeness", "staleness", "faulted_mask", "sampled_mask"
                ):
                    assert np.array_equal(
                        getattr(narrow, name), getattr(full, name)
                    ), f"{name} at tick {t}"
                assert _generator_states(narrow) == _generator_states(full)
        finally:
            obs.disable()
            obs.reset()

    @pytest.mark.parametrize("columns", [
        np.array([], dtype=np.intp),
        np.array([[0, 1]]),
        np.array([0.0, 1.0]),
        np.array([True, False]),
        np.array([5, 3]),
        np.array([3, 3]),
        np.array([-1, 3]),
        np.array([0, _CATALOG.n_metrics]),
    ], ids=[
        "empty", "2-d", "float", "bool", "unsorted", "duplicated",
        "negative", "past-the-end",
    ])
    def test_bad_columns_raise_value_error(self, columns):
        with pytest.raises(ValueError, match="columns"):
            FleetTelemetryStream(_CATALOG, columns)


class _Champion:
    """A lifecycle stand-in: the fleet serves whatever ``champion`` is."""

    def __init__(self, champion):
        self.champion = champion

    def observe(self, t, features, flags, completeness=None):
        pass


def _serve(policy, cell, ticks, start=0):
    for t in range(start, start + ticks):
        cell.simulation.step({cell.application: 40.0 + 8.0 * t})
        policy.saturated_services(t)


class TestPolicyColumns:
    def test_filter_model_delivers_its_plan_through_a_promotion(
        self, tiny_model
    ):
        spec = make_fleet_specs(1)[0]
        cell = build_cell(spec)
        manager = _Champion(tiny_model)
        policy = FleetPolicy(tiny_model, lifecycle=manager)
        policy.add_cell(
            spec.namespace, cell.simulation, cell.application, cell.agent
        )
        columns = policy.telemetry.columns
        assert np.array_equal(columns, policy.features.raw_columns)
        assert 0 < columns.size < _CATALOG.n_metrics
        _serve(policy, cell, 4)
        rng = np.random.default_rng(0)
        manager.champion = tiny_model.refit_classifier(
            rng.normal(size=(40, tiny_model.n_engineered_features_)),
            np.arange(40) % 2,
        )
        _serve(policy, cell, 4, start=4)
        assert policy.model is manager.champion
        assert policy.telemetry.columns is columns
        assert np.array_equal(columns, policy.features.raw_columns)
        assert policy.telemetry.raw.shape[1] == columns.size

    def test_pca_model_delivers_every_column(self, tiny_corpus):
        model = MonitorlessModel(
            pipeline_config=PipelineConfig(
                reduction1="pca", interactions=False, reduction2=None,
                temporal_windows=(1,),
            ),
            classifier_params={"n_estimators": 3},
            random_state=0,
        )
        model.fit(
            tiny_corpus.X, tiny_corpus.meta, tiny_corpus.y, tiny_corpus.groups
        )
        policy = FleetPolicy(model)
        assert np.array_equal(
            policy.telemetry.columns, np.arange(_CATALOG.n_metrics)
        )
        assert np.array_equal(
            policy.telemetry.columns, policy.features.raw_columns
        )
