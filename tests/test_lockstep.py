"""The batched cluster tick (:class:`repro.cluster.simulation.Lockstep`)
against its reference, :meth:`ClusterSimulation.step`.

Every test steps the same inputs through both paths and compares all
the state a tick writes -- every container's whole log (all
``N_COLUMNS`` columns), queue backlogs, last concurrencies, cgroup
period totals, application KPIs and the clock -- as bits, so that a
last-ulp difference or a ``-0.0`` fails.  The kernel's tick frame is
checked against the log rows it appended, row by row.  Also here: the
arrival-rate checks both paths share, and kill-and-resume of a fleet
shard.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.base import ApplicationModel, ServiceSpec
from repro.cluster.container import F_LIMIT_UTIL, F_NR_THROTTLED, N_COLUMNS
from repro.cluster.node import NodeSpec
from repro.cluster.simulation import ClusterSimulation, Lockstep, Placement
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    FleetShardRunner,
    build_cell,
    default_fleet_workloads,
    make_fleet_specs,
)
from repro.reliability.checkpoint import load_checkpoint, save_checkpoint


def _bits(value):
    """A recorded number in comparable form: its IEEE-754 bytes."""
    return struct.pack("<d", value)


def _instances(simulation):
    return [
        instance
        for deployment in simulation.deployments.values()
        for replicas in deployment.instances.values()
        for instance in replicas
    ]


def snapshot(simulation) -> dict:
    """Everything a tick writes, as bits."""
    return {
        "clock": simulation.clock,
        "kpis": {
            app: {key: [_bits(v) for v in values] for key, values in kpis.items()}
            for app, kpis in simulation._kpis.items()
        },
        "instances": [
            (
                instance.container.name,
                instance.container.node,
                instance.container.history.tobytes(),
                _bits(instance.runtime.queue.backlog),
                _bits(instance.runtime.last_concurrency),
                instance.container.cpu_cgroup.total_periods,
                instance.container.cpu_cgroup.total_throttled,
            )
            for instance in _instances(simulation)
        ],
    }


def assert_plain_values(simulation) -> None:
    """The kernel leaves Python numbers in the queues, runtimes, cgroups
    and KPIs, never numpy scalars."""
    for instance in _instances(simulation):
        values = [
            instance.runtime.queue.backlog,
            instance.runtime.last_concurrency,
        ]
        assert all(type(value) is float for value in values), values
        cgroup = instance.container.cpu_cgroup
        assert type(cgroup.total_throttled) is int, cgroup.total_throttled
    for kpis in simulation._kpis.values():
        assert all(type(values[-1]) is float for values in kpis.values())


def _compare(reference, lockstep) -> None:
    for expected, actual in zip(reference, lockstep.simulations):
        assert snapshot(actual) == snapshot(expected)


def assert_frame_matches_logs(lockstep) -> None:
    """Every instance's row of the tick frame is, bit for bit, the row
    the step just appended to its container's log, and the last row is
    the +0.0 sentinel."""
    frame = lockstep.frame
    instances = [
        instance
        for simulation in lockstep.simulations
        for instance in _instances(simulation)
    ]
    assert frame.tick == lockstep.simulations[0].clock - 1
    assert frame.fields.shape == (len(instances) + 1, N_COLUMNS)
    assert frame.fields.dtype == np.float64
    assert frame.fields[-1].tobytes() == bytes(8 * N_COLUMNS)
    assert sorted(frame.rows.values()) == list(range(len(instances)))
    for instance in instances:
        container = instance.container
        row = container.tick_at(frame.tick)
        assert row.tobytes() == container.history[-1].tobytes()
        assert frame.fields[frame.row(container)].tobytes() == row.tobytes(), (
            container.name
        )


# ---------------------------------------------------------------------------
# Randomised recipes: nodes, applications, placements, rates and events
# ---------------------------------------------------------------------------
_positive = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _service(draw, name: str) -> ServiceSpec:
    return ServiceSpec(
        name=name,
        cpu_seconds=draw(st.floats(1e-4, 0.05, **_positive)),
        base_latency=draw(st.floats(0.0, 0.05, **_positive)),
        mem_base_bytes=draw(st.floats(1e6, 2e9, **_positive)),
        mem_per_connection_bytes=draw(st.floats(0.0, 8e6, **_positive)),
        # Zero, or up to above what any limit leaves after the base.
        working_set_bytes=draw(
            st.one_of(st.just(0.0), st.floats(1e6, 6e9, **_positive))
        ),
        ws_access_bytes=draw(st.floats(0.0, 2e5, **_positive)),
        thrash_amplification=draw(st.floats(1.0, 64.0, **_positive)),
        paged_io_random_fraction=draw(st.floats(0.0, 1.0, **_positive)),
        disk_read_bytes=draw(st.floats(0.0, 1e5, **_positive)),
        disk_write_bytes=draw(st.floats(0.0, 1e5, **_positive)),
        serial_io_seconds=draw(
            st.one_of(st.just(0.0), st.floats(0.0, 0.01, **_positive))
        ),
        net_in_bytes=draw(st.floats(0.0, 1e5, **_positive)),
        net_out_bytes=draw(st.floats(0.0, 2e5, **_positive)),
        mem_bandwidth_bytes=draw(st.floats(0.0, 2e6, **_positive)),
        visits=draw(st.floats(0.1, 2.0, **_positive)),
    )


def _node(name: str, cores: int, disk: float, network: float, membw: float):
    return NodeSpec(
        name=name, cores=cores, memory_bytes=64e9, disk_bandwidth=disk,
        network_bandwidth=network, memory_bandwidth=membw,
    )


def _placements(nodes):
    return st.builds(
        Placement,
        node=st.sampled_from(nodes),
        # Quota and limit each unset or set; a limit can fall below the
        # service's base footprint.
        cpu_limit=st.one_of(st.none(), st.floats(0.1, 8.0, **_positive)),
        memory_limit=st.one_of(st.none(), st.floats(1e6, 8e9, **_positive)),
    )


@st.composite
def _simulation_recipe(draw) -> dict:
    names = [f"node-{index}" for index in range(draw(st.integers(1, 3)))]
    nodes = {
        name: _node(
            name,
            draw(st.integers(1, 16)),
            draw(st.floats(5e6, 5e8, **_positive)),
            draw(st.floats(1e6, 2e9, **_positive)),
            draw(st.floats(1e7, 2e10, **_positive)),
        )
        for name in names
    }
    applications = []
    for app in range(draw(st.integers(1, 3))):
        services = [
            draw(_service(f"svc-{index}")) for index in range(draw(st.integers(1, 4)))
        ]
        placements = {
            spec.name: draw(st.lists(_placements(names), min_size=1, max_size=4))
            for spec in services
        }
        applications.append((f"app-{app}", services, placements))
    return {"nodes": nodes, "applications": applications}


def _build(recipe) -> ClusterSimulation:
    simulation = ClusterSimulation(dict(recipe["nodes"]), seed=0)
    for name, services, placements in recipe["applications"]:
        application = ApplicationModel(name=name)
        for spec in services:
            application.add_service(spec)
        simulation.deploy(application, placements)
    return simulation


_rates = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(0.0, 300.0, **_positive),
    st.floats(1e3, 5e4, **_positive),  # bursts above capacity
)


@st.composite
def _event(draw, recipe, index: int):
    kind = draw(st.sampled_from(("add", "remove", "swap")))
    if kind == "swap":
        node = draw(st.sampled_from(sorted(recipe["nodes"])))
        return ("swap", index, node, draw(st.floats(0.2, 2.0, **_positive)))
    app, services, _ = draw(st.sampled_from(recipe["applications"]))
    service = draw(st.sampled_from([spec.name for spec in services]))
    if kind == "remove":
        return ("remove", index, app, service)
    placement = draw(_placements(sorted(recipe["nodes"])))
    return ("add", index, app, service, placement)


@st.composite
def _scenario(draw):
    recipes = draw(st.lists(_simulation_recipe(), min_size=1, max_size=3))
    ticks = []
    for _ in range(draw(st.integers(1, 10))):
        events = draw(
            st.lists(
                st.integers(0, len(recipes) - 1).flatmap(
                    lambda index: _event(recipes[index], index)
                ),
                max_size=2,
            )
        )
        arrivals = [
            {
                name: rate
                for name, _, _ in recipe["applications"]
                if (rate := draw(st.one_of(st.none(), _rates))) is not None
            }
            for recipe in recipes
        ]
        ticks.append((events, arrivals))
    return recipes, ticks


def _apply(event, simulations) -> None:
    kind, index = event[:2]
    simulation = simulations[index]
    if kind == "swap":
        node, factor = event[2:]
        spec = simulation.nodes[node].spec
        simulation.nodes[node].spec = dataclasses.replace(
            spec,
            cores=max(1, round(spec.cores * factor)),
            disk_bandwidth=spec.disk_bandwidth * factor,
            network_bandwidth=spec.network_bandwidth / factor,
            memory_bandwidth=spec.memory_bandwidth * factor,
        )
    elif kind == "remove":
        app, service = event[2:]
        if simulation.deployments[app].replicas(service) > 1:
            simulation.remove_replica(app, service)
    else:
        app, service, placement = event[2:]
        simulation.add_replica(app, service, placement)


class TestLockstepMatchesScalarStep:
    @given(_scenario())
    @settings(
        max_examples=40, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_random_simulations_are_bitwise_equal(self, scenario):
        recipes, ticks = scenario
        reference = [_build(recipe) for recipe in recipes]
        lockstep = Lockstep([_build(recipe) for recipe in recipes])
        for events, arrivals in ticks:
            for event in events:
                _apply(event, reference)
                _apply(event, lockstep.simulations)
            for simulation, rates in zip(reference, arrivals):
                simulation.step(rates)
            lockstep.step(arrivals)
            _compare(reference, lockstep)
            for simulation in lockstep.simulations:
                assert_plain_values(simulation)
            assert_frame_matches_logs(lockstep)

    def test_crowded_nodes_sum_like_the_scalar_branches(self):
        """Nodes of 1 to more than 12 members, crossing the 8-member
        switch from sequential to numpy pairwise sums, with replicas
        added out of ``node.containers`` order, oversubscribed and idle
        ticks."""
        rng = np.random.default_rng(7)

        def recipe():
            services = [
                ServiceSpec(
                    name=f"svc-{index}",
                    cpu_seconds=float(rng.uniform(1e-3, 2e-2)),
                    mem_base_bytes=float(rng.uniform(1e8, 1e9)),
                    working_set_bytes=float(rng.uniform(0, 2e9)),
                    ws_access_bytes=float(rng.uniform(0, 5e4)),
                    disk_write_bytes=float(rng.uniform(0, 5e4)),
                    mem_bandwidth_bytes=float(rng.uniform(1e4, 1e6)),
                    visits=float(rng.uniform(0.2, 1.5)),
                )
                for index in range(4)
            ]
            placements = {
                "svc-0": [Placement("big", 1.5, 3e9)] * 5 + [Placement("small")],
                "svc-1": [Placement("big", None, 1e9)] * 3,
                "svc-2": [Placement("big")] * 2 + [Placement("small", 2.0)],
                "svc-3": [Placement("lone", 0.5, 5e8)],
            }
            return {
                "nodes": {
                    "big": _node("big", 4, 2e8, 1e9, 5e9),
                    "small": _node("small", 8, 4e8, 1e9, 1e10),
                    "lone": _node("lone", 2, 1e8, 1e9, 1e10),
                },
                "applications": [("app-0", services, placements)],
            }

        recipes = [recipe(), recipe()]
        reference = [_build(r) for r in recipes]
        lockstep = Lockstep([_build(r) for r in recipes])
        seen, throttled, unlimited = set(), set(), set()
        for t in range(60):
            for simulation in (reference[0], lockstep.simulations[0]):
                if t % 7 == 3:
                    simulation.add_replica("app-0", "svc-1", Placement("big", 1.0))
                if t % 11 == 10:
                    simulation.remove_replica("app-0", "svc-0")
            rates = [0.0 if t % 13 == 0 else float(rng.uniform(0, 3000)), 50.0 * t]
            for simulation, rate in zip(reference, rates):
                simulation.step({"app-0": rate})
            lockstep.step([{"app-0": rate} for rate in rates])
            _compare(reference, lockstep)
            assert_frame_matches_logs(lockstep)
            for instance in _instances(lockstep.simulations[0]):
                row = instance.container.history[-1]
                throttled.add(float(row[F_NR_THROTTLED]))
                if instance.container.memory_cgroup.limit_bytes is None:
                    unlimited.add(float(row[F_LIMIT_UTIL]))
            seen.update(
                len(node.containers) for node in reference[0].nodes.values()
            )
        assert min(seen) == 1 and max(seen) >= 12
        # The rows held throttled counts above 0 and unlimited
        # containers' 0.0 limit utilization.
        assert max(throttled) > 0
        assert unlimited == {0.0}

    def test_layout_is_rebuilt_only_for_changed_simulations(self):
        cells = [build_cell(spec) for spec in make_fleet_specs(3)]
        lockstep = Lockstep([cell.simulation for cell in cells])
        lockstep.step([{"teastore": 50.0}] * 3)
        parts = list(lockstep._parts)
        lockstep.step([{"teastore": 60.0}] * 3)
        assert all(a is b for a, b in zip(parts, lockstep._parts))
        cells[1].simulation.add_replica(
            "teastore", "auth", Placement("M2", 2.0, 4e9)
        )
        lockstep.step([{"teastore": 70.0}] * 3)
        assert [a is b for a, b in zip(parts, lockstep._parts)] == [True, False, True]

    def test_pickled_lockstep_drops_its_cache_and_steps_identically(self):
        cells = [build_cell(spec) for spec in make_fleet_specs(2)]
        lockstep = Lockstep([cell.simulation for cell in cells])
        for rate in (20.0, 400.0, 900.0):
            lockstep.step([{"teastore": rate}] * 2)
        copy = pickle.loads(pickle.dumps(lockstep))
        assert copy._parts == [None, None]
        assert copy.frame is None
        for rate in (900.0, 0.0, 150.0):
            lockstep.step([{"teastore": rate}] * 2)
            copy.step([{"teastore": rate}] * 2)
        for original, restored in zip(lockstep.simulations, copy.simulations):
            assert snapshot(restored) == snapshot(original)

    def test_frame_layout_changes_only_with_membership(self):
        cells = [build_cell(spec) for spec in make_fleet_specs(2)]
        lockstep = Lockstep([cell.simulation for cell in cells])
        assert lockstep.frame is None
        lockstep.step([{"teastore": 50.0}] * 2)
        first = lockstep.frame
        lockstep.step([{"teastore": 60.0}] * 2)
        assert (lockstep.frame.tick, first.tick) == (1, 0)
        assert lockstep.frame.layout == first.layout
        assert lockstep.frame.fields is not first.fields
        added = cells[0].simulation.add_replica(
            "teastore", "auth", Placement("M2", 2.0, 4e9)
        )
        assert first.row(added) is None
        lockstep.step([{"teastore": 70.0}] * 2)
        assert lockstep.frame.layout != first.layout
        assert lockstep.frame.row(added) is not None
        assert_frame_matches_logs(lockstep)

    def test_simulations_at_different_clocks_publish_no_frame(self):
        cells = [build_cell(spec) for spec in make_fleet_specs(2)]
        cells[1].simulation.step({"teastore": 50.0})
        lockstep = Lockstep([cell.simulation for cell in cells])
        lockstep.step([{"teastore": 50.0}] * 2)
        assert lockstep.frame is None
        assert [cell.simulation.clock for cell in cells] == [1, 2]

    def test_rejects_misaligned_and_duplicate_inputs(self):
        simulation = build_cell(make_fleet_specs(1)[0]).simulation
        with pytest.raises(ValueError, match="at least one"):
            Lockstep([])
        with pytest.raises(ValueError, match="only once"):
            Lockstep([simulation, simulation])
        lockstep = Lockstep([simulation])
        with pytest.raises(ValueError, match="one arrivals dict per simulation"):
            lockstep.step([{"teastore": 1.0}, {"teastore": 1.0}])
        with pytest.raises(ValueError, match="undeployed"):
            lockstep.step([{"elgg": 1.0}])
        assert simulation.clock == 0


# ---------------------------------------------------------------------------
# Arrival-rate checks, shared by both paths
# ---------------------------------------------------------------------------
def _teastore_pair():
    """Two TeaStore cells, warmed up into a queue backlog."""
    simulations = [build_cell(spec).simulation for spec in make_fleet_specs(2)]
    for rate in (100.0, 100.0, 2000.0):
        for simulation in simulations:
            simulation.step({"teastore": rate})
    return simulations


class TestArrivalRates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
    def test_scalar_step_rejects_before_any_change(self, bad):
        simulation = _teastore_pair()[0]
        before = snapshot(simulation)
        with pytest.raises(ValueError, match=r"'teastore'.*finite and non-negative"):
            simulation.step({"teastore": bad})
        assert snapshot(simulation) == before

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
    def test_lockstep_rejects_before_any_simulation_changes(self, bad):
        simulations = _teastore_pair()
        lockstep = Lockstep(simulations)
        lockstep.step([{"teastore": 300.0}] * 2)
        before = [snapshot(simulation) for simulation in simulations]
        # The bad rate is the second cell's: the first must not move either.
        with pytest.raises(ValueError, match=r"'teastore'.*finite and non-negative"):
            lockstep.step([{"teastore": 300.0}, {"teastore": bad}])
        assert [snapshot(simulation) for simulation in simulations] == before

    @pytest.mark.parametrize(
        "service, backlog, message",
        [
            ("db", -1e3, "Memory quantities"),
            ("auth", -1e3, "Demands must be non-negative"),
            # Within the demand tolerance, so only the cgroup objects.
            ("auth", -1e-12, "demand_cores must be non-negative"),
        ],
    )
    def test_corrupt_state_raises_like_the_scalar_step(self, service, backlog, message):
        """A negative backlog (set from outside) makes both paths raise
        the same error; the kernel raises it before changing anything."""
        reference, simulations = _teastore_pair(), _teastore_pair()
        for simulation in (reference[1], simulations[1]):
            runtime = simulation.deployments["teastore"].instances[service][0].runtime
            runtime.queue.backlog = backlog
        with pytest.raises(ValueError, match=message):
            reference[1].step({"teastore": 0.0})
        before = [snapshot(simulation) for simulation in simulations]
        with pytest.raises(ValueError, match=message):
            Lockstep(simulations).step([{"teastore": 0.0}] * 2)
        assert [snapshot(simulation) for simulation in simulations] == before

    def test_signed_zero_rates_stay_valid(self):
        reference = _teastore_pair()
        lockstep = Lockstep(_teastore_pair())
        for rate in (0.0, -0.0, np.float64(-0.0)):
            for simulation in reference:
                simulation.step({"teastore": rate})
            lockstep.step([{"teastore": rate}] * 2)
        _compare(reference, lockstep)
        assert reference[0].clock == 6


# ---------------------------------------------------------------------------
# The fleet shard: rate vectors and kill-and-resume
# ---------------------------------------------------------------------------
class TestFleetShard:
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_tick_rejects_a_rate_vector_of_the_wrong_length(self, tiny_model, delta):
        runner = FleetShardRunner(0, make_fleet_specs(3), tiny_model)
        runner.start()
        with pytest.raises(ValueError, match="one rate per cell"):
            runner.tick(np.full(3 + delta, 50.0))
        assert [cell.simulation.clock for cell in runner.cells] == [0, 0, 0]
        assert runner._t == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_run_rejects_bad_workload_entries_before_the_fan_out(
        self, tiny_model, bad
    ):
        specs = make_fleet_specs(2)
        workloads = default_fleet_workloads(2, 5)
        workloads[1, 3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            FleetOrchestrator(specs, tiny_model, n_shards=1).run(workloads)

    def test_kill_and_resume_is_bitwise_identical(self, tiny_model, tmp_path):
        """A shard checkpointed mid-run resumes with a cold Lockstep
        cache, no tick frame and no telemetry round plan, and ends
        bitwise where the uninterrupted shard ends."""
        ticks, kill = 30, 13
        specs = make_fleet_specs(3, base_seed=4)
        workloads = default_fleet_workloads(3, ticks, seed=4, high=400.0)

        def run(runner, start, stop):
            for t in range(start, stop):
                runner.tick(workloads[:, t])

        uninterrupted = FleetShardRunner(0, specs, tiny_model)
        uninterrupted.start()
        run(uninterrupted, 0, ticks)

        killed = FleetShardRunner(0, specs, tiny_model)
        killed.start()
        run(killed, 0, kill)
        save_checkpoint(killed, tmp_path / "shard.ckpt")
        resumed = load_checkpoint(tmp_path / "shard.ckpt")
        assert resumed.lockstep._parts == [None] * len(specs)
        assert resumed.lockstep.frame is None
        assert killed.policy.telemetry._plan is not None
        assert resumed.policy.telemetry._plan is None
        run(resumed, kill, ticks)

        assert resumed.decisions == uninterrupted.decisions
        assert any(resumed.decisions)
        for expected, actual in zip(uninterrupted.cells, resumed.cells):
            assert snapshot(actual.simulation) == snapshot(expected.simulation)
