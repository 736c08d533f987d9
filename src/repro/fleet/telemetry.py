"""Struct-of-arrays telemetry for a whole fleet.

:class:`FleetTelemetryStream` emits every container's instance row
``M_{I,t}`` tick by tick into one ``(n_rows, len(columns))`` float64
matrix written in place, plus a per-row completeness vector.

**Delivered columns.**  A stream delivers a fixed, sorted set of
catalog ``columns``, given when it is built: the fleet policy passes
the raw columns its feature plan reads
(:attr:`~repro.fleet.features.FleetPipelineStream.raw_columns`, 81 of
the 1 040 for the benchmark's serving model), and every column for a
PCA-reduced model.  The delivered cells are bitwise the full row's at
those columns: synthesis computes the driver, complement, noise
scaling, non-negative clamp and counter/rate recurrences of delivered
columns only, and each of them is elementwise per column.  Everything
that moves a generator or a full-row quantity still runs at full
width, so a stream is indistinguishable from a full-width one except
for the columns it leaves out:

- every host and container stream draws its full normal vector per
  tick (936 per host group, 83 per container) and scales only the
  delivered entries;
- dropout draws one uniform per catalog metric, and a dropped row's
  completeness is the fraction of all its metrics held;
- a ``nan`` read draws its full ``ChaosAgent.nan_columns`` set, NaNs
  the delivered members, and a resilient row's completeness and the
  ``resilience.nan_masked_values`` counter count the whole set.

The last count is exact without the full row because synthesized
values are finite -- node capacities, CPU quotas and memory limits are
validated positive, so no driver divides by zero, and arrival rates
are validated finite -- and the held row dropout restores from is
clean, so the only NaNs in a full row are the ``nan_columns`` just
set.  Completeness, staleness, faults and the ``faults.*``,
``chaos.*`` and ``resilience.*`` counters are therefore those of the
full row.

**Synthesis.**  Synthesis state lives in struct-of-arrays buffers --
per-row RNG streams, counter accumulators and previous-cumulative rows
aligned with the matrix row axis, and per *host group* (rows sharing
``(namespace, node, start)``) the shared host stream state.  Each round
runs one kernel over ``(fields, plan)``.  ``fields`` is a float64
matrix of container log rows (the ``F_*`` layout of
:mod:`repro.cluster.container`, the last row all zeros for an
unrecorded tick); the plan is a set of index arrays: the round's
groups, their host *entries* (one per unique ``(namespace, node,
tick)``), each entry's members in ``node.containers`` order, and each
emitted row's field row, generator, counter flag, CPU allocation and
node cores.  The kernel accumulates every host state one member
position at a time over all the entries that have that position,
synthesizes every stream's metrics through
:meth:`~repro.telemetry.catalog.MetricCatalog.synthesize_rows`, and
converts counters to rates across the whole row axis.

The fields come from one of two sources.  A fleet shard passes the
:class:`~repro.cluster.simulation.TickFrame` its ``Lockstep`` step
published: groups due to emit the frame's tick read their rows of it,
through a plan compiled only when the active groups, the row
membership or the frame's layout change (a swapped node ``spec`` only
re-reads the capacities) and never pickled.  Everything else takes the
rows from the containers' logs (``Container.tick_at``) with a plan
built for the round: cells stepped by ``ClusterSimulation.step`` (the
one-cell policy views) and groups catching up behind the frame's tick
after a fault.  The frame's rows are the ones ``Lockstep`` appended to
the logs, so both sources give the same rows.  The result is
bitwise-exact against the per-container reference streams of
``tests/serving_reference.py``: the state math replicates the scalar
arithmetic op for op
(:mod:`repro.telemetry.synthesis`), each stream's RNG draws happen in
its own generator in the exact per-tick order, and the counter/rate
recurrences are elementwise per stream.

**Fault injection.**  An agent stack ``ResilientTelemetry ->
ChaosAgent -> MetricDropout -> TelemetryAgent`` (or any subsequence of
it) is unwrapped at :meth:`FleetTelemetryStream.add_row` into per-row
fault settings and state: the dropout probability, generator and held
row; the chaos agent (config and blackouts) and delayed-tick marker;
the resilience settings (staleness budget and retry count), last real
row and staleness.  Such a row gets its own host group, because a lost
tick desynchronises its host stream from its group-mates; host *state*
is still shared per ``(namespace, node, tick)``.  Each round then runs
in five steps:

1. decide every faultable row's chaos mode for its tick (blackout,
   hard, transient, nan, ok) from the keyed blake2b hash, with the
   retry budget applied (each retry's ``BACKOFF_BASE * 2**k`` backoff
   is recorded in ``obs``, never slept); a lost tick skips synthesis
   and advances the row's clock, like a missed scrape;
2. synthesize every remaining row through the kernel, once per field
   source the round reads;
3. apply dropout sample-and-hold and NaN corruption to the emitted
   rows;
4. mask NaNs with each resilient row's last real reading and set its
   completeness;
5. impute lost ticks by last-observation-carried-forward, or mark the
   row faulted with :class:`~repro.reliability.telemetry.TelemetryUnavailable`
   once it has no reading or its staleness budget is exhausted.

The outcome is :attr:`~FleetTelemetryStream.faulted_mask` plus the
:attr:`~FleetTelemetryStream.staleness` array.  Every step reproduces
the per-container reference wrappers of ``tests/serving_reference.py``
bit for bit, including their ``obs`` counters.  Any other agent stack -- another
wrapper, a wrong wrapper order, or a catalog other than the fleet's --
raises :class:`TypeError` at :meth:`~FleetTelemetryStream.add_row`.

Emission is *rounds-based*, mirroring the per-container catch-up loop
of the reference chain in ``tests/serving_reference.py``: each
:meth:`~FleetTelemetryStream.advance_round` advances every behind,
unfaulted row by exactly one tick (normally the only round per policy
tick); a fault marks the row faulted for the remainder of the tick,
exactly like the catch-up loop aborting.  Per-row pipeline state is
independent, so pushing rounds through the feature pipeline preserves
each row's tick order, which is all the reference semantics require.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import is_not

import numpy as np
from numpy.random import PCG64, Generator

from repro import obs
from repro.cluster.container import N_COLUMNS
from repro.cluster.faults import MetricDropout, _dropout_seed
from repro.reliability.chaos import ChaosAgent, InjectedTelemetryError
from repro.reliability.telemetry import (
    BACKOFF_BASE,
    ResilientTelemetry,
    TelemetryFault,
    TelemetryUnavailable,
)
from repro.telemetry import synthesis
from repro.telemetry.agent import TelemetryAgent, _stream_seed
from repro.telemetry.catalog import MetricCatalog

__all__ = ["FleetTelemetryStream"]

#: The supported wrapper order, outermost first, above a TelemetryAgent.
_WRAPPERS = (ResilientTelemetry, ChaosAgent, MetricDropout)


def _describe(agent) -> str:
    names = []
    while agent is not None and len(names) < 8:
        names.append(type(agent).__name__)
        agent = getattr(agent, "agent", None)
    return " -> ".join(names)


def _checked_columns(columns, n_metrics: int) -> np.ndarray:
    """``columns`` as a sorted, duplicate-free ``intp`` array of catalog
    columns, or :class:`ValueError`."""
    columns = np.asarray(columns)
    if columns.ndim != 1:
        raise ValueError(
            f"columns must be 1-D, got an array of shape {columns.shape}."
        )
    if columns.size == 0:
        raise ValueError("columns must name at least one catalog column.")
    if not np.issubdtype(columns.dtype, np.integer):
        raise ValueError(
            f"columns must be integers, got dtype {columns.dtype}."
        )
    if columns.min() < 0 or columns.max() >= n_metrics:
        raise ValueError(f"columns must lie in [0, {n_metrics}).")
    columns = columns.astype(np.intp)
    if np.any(np.diff(columns) <= 0):
        raise ValueError("columns must be sorted and free of duplicates.")
    return columns


class FleetTelemetryStream:
    """One raw-metric matrix per tick for the whole fleet.

    ``columns`` are the sorted catalog columns (host columns first,
    then ``n_host +`` container columns) the stream delivers:
    :attr:`raw` holds them in that order.
    """

    def __init__(self, catalog: MetricCatalog, columns,
                 capacity: int = 64):
        self.columns = _checked_columns(columns, catalog.n_metrics)
        self.catalog = catalog
        self.n_metrics = catalog.n_metrics
        in_host = self.columns < catalog.n_host
        # Delivered host columns, which lead every row.
        self._n_host = int(in_host.sum())
        self._host_arrays = catalog.spec_arrays(catalog.host).restrict(
            self.columns[in_host]
        )
        self._container_arrays = catalog.spec_arrays(
            catalog.container
        ).restrict(self.columns[~in_host] - catalog.n_host)
        # Each catalog column's position in a delivered row, -1 if it
        # is not delivered.
        self._position = np.full(self.n_metrics, -1, dtype=np.intp)
        self._position[self.columns] = np.arange(self.columns.size)
        self.raw = np.zeros((capacity, self.columns.size))
        self.completeness = np.ones(capacity)
        self._containers: dict[int, object] = {}
        #: Rows whose emission faulted during the current tick, mapped
        #: to the fault (cleared by :meth:`begin_tick`).
        self.faulted: dict[int, TelemetryFault] = {}
        self.faulted_mask = np.zeros(capacity, dtype=bool)
        #: Rows known to have recorded samples (a recorded emission, a
        #: lost tick or a fault).  Group-mates are created on one node
        #: at one tick and stepped together, so a row's own history
        #: covers every tick its group emits.
        self.sampled_mask = np.zeros(capacity, dtype=bool)
        #: Consecutive lost ticks per resilient row (0 elsewhere).
        self.staleness = np.zeros(capacity, dtype=np.int64)

        # --- row axis (aligned with ``raw``) ---------------------------
        n_ctr_c = self._container_arrays.counter_idx.size
        self._row_group = np.full(capacity, -1, dtype=np.int64)
        self._row_rng: dict[int, np.random.Generator] = {}
        self._row_accum = np.zeros((capacity, n_ctr_c))
        self._row_prev = np.zeros((capacity, n_ctr_c))
        self._row_has_prev = np.zeros(capacity, dtype=bool)
        self._row_convert = np.zeros(capacity, dtype=bool)

        # --- per-row fault state (rows with a wrapped agent) -----------
        self._wrapped = np.zeros(capacity, dtype=bool)
        self._drop_p = np.zeros(capacity)
        self._drop_rng: dict[int, np.random.Generator] = {}
        self._has_held = np.zeros(capacity, dtype=bool)
        self._chaos: dict[int, ChaosAgent] = {}
        self._delayed = np.full(capacity, -1, dtype=np.int64)
        self._resilient: dict[int, ResilientTelemetry] = {}
        self._is_resilient = np.zeros(capacity, dtype=bool)
        self._has_last_real = np.zeros(capacity, dtype=bool)
        # Delivered rows, shaped like ``raw``, allocated with the first
        # wrapped row so clean fleets pay nothing for them.
        self._held: np.ndarray | None = None
        self._last_real: np.ndarray | None = None

        # --- host-group axis (slot-indexed) ----------------------------
        self._n_ctr_host = self._host_arrays.counter_idx.size
        self._group_slots: dict[tuple, int] = {}
        self._grp_key: list[tuple | None] = []
        self._grp_node: list[object | None] = []
        self._grp_rng: list[np.random.Generator | None] = []
        self._grp_members: list[list[int]] = []
        self._grp_containers: list[list] = []
        self._grp_clock: list[int] = []
        self._grp_convert: list[bool] = []
        #: The wrapped row owning a singleton group, -1 for shared ones.
        self._grp_row: list[int] = []
        self._grp_accum = np.zeros((0, self._n_ctr_host))
        self._grp_prev = np.zeros((0, self._n_ctr_host))
        self._grp_has_prev = np.zeros(0, dtype=bool)
        self._grp_free: list[int] = []
        # Sorted (key, slot) scan order, rebuilt lazily after group
        # creation/retirement (key order fixes the cross-group RNG-free
        # iteration order deterministically).
        self._scan: list[tuple] | None = None

        # Reused per-tick scratch buffers (reallocated only when the
        # active batch size changes).
        self._scratch: dict[str, np.ndarray] = {}
        #: Bumped by every add_row/retire_row; a round plan compiled
        #: for another membership is stale.
        self._membership = 0
        # The frame source's compiled round plan (never pickled).
        self._plan: _RoundPlan | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    @property
    def capacity(self) -> int:
        return self.raw.shape[0]

    def grow(self, capacity: int) -> None:
        if capacity <= self.capacity:
            return
        old = self.capacity
        for name, fill in (
            ("completeness", 1.0),
            ("faulted_mask", False),
            ("sampled_mask", False),
            ("staleness", 0),
            ("_row_group", -1),
            ("_row_has_prev", False),
            ("_row_convert", False),
            ("_wrapped", False),
            ("_drop_p", 0.0),
            ("_has_held", False),
            ("_delayed", -1),
            ("_is_resilient", False),
            ("_has_last_real", False),
        ):
            current = getattr(self, name)
            fresh = np.full(capacity, fill, dtype=current.dtype)
            fresh[:old] = current
            setattr(self, name, fresh)
        for name in ("raw", "_row_accum", "_row_prev", "_held", "_last_real"):
            current = getattr(self, name)
            if current is None:
                continue
            fresh = np.zeros((capacity, current.shape[1]))
            fresh[:old] = current
            setattr(self, name, fresh)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_row(self, row: int, namespace: str, agent, container,
                nodes: dict) -> None:
        """Attach synthesis and fault state for ``container`` to ``row``.

        ``agent`` is a :class:`TelemetryAgent` sharing this stream's
        catalog, optionally wrapped as ``ResilientTelemetry ->
        ChaosAgent -> MetricDropout`` (any subsequence, in that order).
        Any other stack raises :class:`TypeError`.
        """
        if row in self._containers:
            raise ValueError(f"Row {row} is already occupied.")
        resilient, chaos, dropout, base = self._unwrap(agent)
        wrapped = resilient is not None or chaos is not None or dropout is not None
        self._containers[row] = container
        start = container.created_at
        node = nodes[container.node]
        key = (namespace, node.name, start)
        if wrapped:
            # A lost tick skips this row's host draws, so it keeps its
            # own host stream instead of sharing the group's.
            key += (row,)
        slot = self._group_slots.get(key)
        if slot is None:
            slot = self._new_group(key, base, node, start, row if wrapped else -1)
        members = self._grp_members[slot]
        position = bisect_left(members, row)
        members.insert(position, row)
        self._grp_containers[slot].insert(position, container)
        self._row_group[row] = slot
        # Generator(PCG64(seed)) is the same construction
        # default_rng(seed) performs, minus dispatch overhead; the
        # bit streams are identical.
        self._row_rng[row] = Generator(PCG64(
            _stream_seed(base.seed, f"container:{container.name}:{start}")
        ))
        self._row_accum[row] = 0.0
        self._row_prev[row] = 0.0
        self._row_has_prev[row] = False
        self._row_convert[row] = base.convert_counters
        self._membership += 1
        self.completeness[row] = 1.0
        self.faulted_mask[row] = False
        self.sampled_mask[row] = False
        self.staleness[row] = 0
        self._wrapped[row] = wrapped
        self._drop_p[row] = 0.0
        self._has_held[row] = False
        self._delayed[row] = -1
        self._is_resilient[row] = resilient is not None
        self._has_last_real[row] = False
        if not wrapped:
            return
        if self._held is None:
            self._held = np.zeros_like(self.raw)
            self._last_real = np.zeros_like(self.raw)
        # A row with no prior reading masks NaNs with zeros.
        self._last_real[row] = 0.0
        if dropout is not None and dropout.probability > 0.0:
            self._drop_p[row] = dropout.probability
            self._drop_rng[row] = Generator(PCG64(
                _dropout_seed(dropout.seed, container.name)
            ))
        if chaos is not None:
            self._chaos[row] = chaos
        if resilient is not None:
            self._resilient[row] = resilient

    def _unwrap(self, agent):
        """``(resilient, chaos, dropout, base)`` layers of ``agent``."""
        layers: dict[type, object] = {}
        current = agent
        depth = 0
        while type(current) is not TelemetryAgent:
            kind = type(current)
            if kind not in _WRAPPERS[depth:]:
                raise TypeError(
                    f"Unsupported telemetry agent stack {_describe(agent)}: "
                    "the fleet takes a TelemetryAgent optionally wrapped as "
                    "ResilientTelemetry -> ChaosAgent -> MetricDropout "
                    "(any subsequence, in that order)."
                )
            depth = _WRAPPERS.index(kind) + 1
            layers[kind] = current
            current = current.agent
        if current.catalog is not self.catalog:
            raise TypeError(
                f"Unsupported telemetry agent stack {_describe(agent)}: its "
                "metric catalog is not the fleet's."
            )
        return (
            layers.get(ResilientTelemetry),
            layers.get(ChaosAgent),
            layers.get(MetricDropout),
            current,
        )

    def _new_group(self, key, agent, node, start: int, owner: int) -> int:
        rng = Generator(PCG64(
            _stream_seed(agent.seed, f"host:{node.name}:{start}")
        ))
        if self._grp_free:
            slot = self._grp_free.pop()
            self._grp_key[slot] = key
            self._grp_node[slot] = node
            self._grp_rng[slot] = rng
            self._grp_members[slot] = []
            self._grp_containers[slot] = []
            self._grp_clock[slot] = start
            self._grp_convert[slot] = agent.convert_counters
            self._grp_row[slot] = owner
        else:
            slot = len(self._grp_key)
            self._grp_key.append(key)
            self._grp_node.append(node)
            self._grp_rng.append(rng)
            self._grp_members.append([])
            self._grp_containers.append([])
            self._grp_clock.append(start)
            self._grp_convert.append(agent.convert_counters)
            self._grp_row.append(owner)
            if slot >= self._grp_accum.shape[0]:
                cap = max(16, 2 * self._grp_accum.shape[0])
                for name in ("_grp_accum", "_grp_prev"):
                    fresh = np.zeros((cap, self._n_ctr_host))
                    fresh[: getattr(self, name).shape[0]] = getattr(self, name)
                    setattr(self, name, fresh)
                has_prev = np.zeros(cap, dtype=bool)
                has_prev[: self._grp_has_prev.shape[0]] = self._grp_has_prev
                self._grp_has_prev = has_prev
        self._grp_accum[slot] = 0.0
        self._grp_prev[slot] = 0.0
        self._grp_has_prev[slot] = False
        self._group_slots[key] = slot
        self._scan = None
        return slot

    def retire_row(self, row: int) -> None:
        self._containers.pop(row)
        self._membership += 1
        slot = int(self._row_group[row])
        self._row_group[row] = -1
        self._row_rng.pop(row, None)
        self._drop_rng.pop(row, None)
        self._chaos.pop(row, None)
        self._resilient.pop(row, None)
        members = self._grp_members[slot]
        position = members.index(row)
        members.pop(position)
        self._grp_containers[slot].pop(position)
        if not members:
            del self._group_slots[self._grp_key[slot]]
            self._grp_key[slot] = None
            self._grp_node[slot] = None
            self._grp_rng[slot] = None
            self._grp_free.append(slot)
            self._scan = None
        self.faulted.pop(row, None)
        self.faulted_mask[row] = False

    # ------------------------------------------------------------------
    # Per-row introspection (used by the fleet policy)
    # ------------------------------------------------------------------
    def container_at(self, row: int):
        return self._containers[row]

    def clock(self, row: int) -> int:
        """Next tick the row will emit."""
        return self._grp_clock[int(self._row_group[row])]

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def begin_tick(self) -> None:
        """Reset per-tick fault state before the first round."""
        self.faulted.clear()
        self.faulted_mask[:] = False

    def advance_round(self, frame=None) -> np.ndarray:
        """Advance every behind, unfaulted row by exactly one tick.

        Writes the emitted rows -- synthesized or imputed -- into
        :attr:`raw` / :attr:`completeness` and returns their indices
        (ascending).  An empty result means the whole fleet is caught
        up for this tick.

        ``frame`` is the :class:`~repro.cluster.simulation.TickFrame`
        of the tick just stepped, or ``None``.  Groups due to emit the
        frame's tick read their fields from it through a cached round
        plan; groups behind it (catching up after a fault) and, without
        a frame, every group read them from the containers' logs.
        The rows are the same.  A group due past the frame's tick, or
        a container that recorded the frame's tick but has no row in
        it, raises :class:`ValueError`.
        """
        scan = self._scan
        if scan is None:
            scan = self._scan = sorted(self._group_slots.items())
        clocks = self._grp_clock
        grp_containers = self._grp_containers
        due: list[int] = []
        for _key, slot in scan:
            anchor = grp_containers[slot][0]
            t = clocks[slot]
            if anchor.tick_at(t) is None:
                if t < anchor.created_at:
                    raise ValueError(
                        f"Container {anchor.name} has no recorded tick {t}; "
                        "advance the simulation before emitting."
                    )
                continue
            if frame is not None and t > frame.tick:
                raise ValueError(
                    f"The tick frame holds tick {frame.tick}, but container "
                    f"{anchor.name} is due to emit tick {t}; pass the frame "
                    "of the tick just stepped."
                )
            due.append(slot)
        if self._held is None:  # no row has a wrapped agent
            active, corrupt, lost = due, [], []
        else:
            active, corrupt, lost = self._read_due(due)
        emitted: list[int] = []
        if active:
            with obs.trace("fleet.synthesize"):
                current: list[int] = []
                behind = active
                if frame is not None:
                    current = [s for s in active if clocks[s] == frame.tick]
                    behind = [s for s in active if clocks[s] < frame.tick]
                if current:
                    emitted += self._synthesize(*self._frame_source(current, frame))
                if behind:
                    emitted += self._synthesize(*self._history_source(behind))
                for slot in active:
                    clocks[slot] += 1
            obs.inc("telemetry.rows_emitted", float(len(emitted)))
            if self._held is not None:  # some row has a wrapped agent
                self._apply_faults(emitted, corrupt)
        if lost:
            emitted += self._impute(sorted(lost))
        emitted.sort()
        return np.asarray(emitted, dtype=np.intp)

    def _read_due(self, due: list[int]):
        """Step 1 over the due groups: ``(active, corrupt, lost)``."""
        active: list[int] = []
        corrupt: list[tuple[int, int]] = []
        lost: list[int] = []
        clocks = self._grp_clock
        grp_row = self._grp_row
        faulted = self.faulted_mask
        for slot in due:
            row = grp_row[slot]
            if row >= 0:
                if faulted[row]:
                    continue
                t = clocks[slot]
                read = self._read(row, self._grp_containers[slot][0].name, t)
                if read == "lost":
                    clocks[slot] = t + 1
                    lost.append(row)
                    continue
                if read == "fault":
                    continue
                if read == "nan":
                    corrupt.append((row, t))
            active.append(slot)
        return active, corrupt, lost

    # ------------------------------------------------------------------
    # Fault injection on the row matrix
    # ------------------------------------------------------------------
    def _read(self, row: int, name: str, t: int) -> str:
        """Step 1: the outcome of one wrapped row's read of tick ``t``.

        ``"ok"`` / ``"nan"`` synthesize (``"nan"`` then corrupts),
        ``"lost"`` skips the tick, ``"fault"`` leaves the row behind.
        Mirrors a chaos read under the resilience layer's retry loop.
        """
        chaos = self._chaos.get(row)
        if chaos is None:
            return "ok"
        mode = chaos.stream_mode(name, t)
        if mode == "ok" or mode == "nan":
            return mode
        resilient = self._resilient.get(row)
        retries = resilient.max_retries if resilient is not None else 0
        if mode == "hard":
            # Every attempt of the tick fails.
            obs.inc("chaos.hard_failures", float(retries + 1))
            message = f"chaos: telemetry read for {name} failed at tick {t}."
        else:
            if self._delayed[row] == t:
                return "ok"  # the delayed reading arrived
            self._delayed[row] = t
            obs.inc("chaos.transient_failures")
            message = f"chaos: telemetry read for {name} delayed at tick {t}."
            retries = min(retries, 1)  # the first retry succeeds
        if resilient is None:
            self._fault(row, InjectedTelemetryError(message))
            return "fault"
        for attempt in range(retries):
            obs.inc("resilience.retries")
            obs.observe(
                "resilience.retry_backoff_seconds",
                BACKOFF_BASE * (2.0 ** attempt),
            )
        if mode == "transient" and retries:
            return "ok"
        return "lost"

    def _apply_faults(self, emitted: list[int],
                      corrupt: list[tuple[int, int]]) -> None:
        """Steps 3 and 4 on the synthesized rows."""
        rows = np.asarray(emitted, dtype=np.intp)
        rows = rows[self._wrapped[rows]]
        if rows.size == 0:
            return
        dropping = rows[self._drop_p[rows] > 0.0]
        if dropping.size:
            self._dropout(dropping)
        # Full-row NaN count of each corrupted row: the size of its
        # whole nan_columns draw (synthesized values are finite).
        nan_counts: dict[int, int] = {}
        for row, t in corrupt:
            # Corrupt the delivered row only: the held row and the
            # synthesis state stay clean.
            name = self._containers[row].name
            columns = self._chaos[row].nan_columns(name, t, self.n_metrics)
            positions = self._position[columns]
            self.raw[row, positions[positions >= 0]] = np.nan
            nan_counts[row] = columns.size
            obs.inc("chaos.nan_rows")
        resilient = rows[self._is_resilient[rows]]
        if resilient.size:
            self._mask_nans(resilient, nan_counts)

    def _dropout(self, rows: np.ndarray) -> None:
        """Sample-and-hold: each row draws one uniform per catalog
        metric, delivered or not, and loses the fraction it drops."""
        uniforms = self._tick_scratch("dropout", rows.size, self.n_metrics)
        for i, row in enumerate(rows.tolist()):
            self._drop_rng[row].random(out=uniforms[i])
        dropped = uniforms < self._drop_p[rows][:, None]
        dropped[~self._has_held[rows]] = False  # the first sample always exists
        block = self.raw[rows]
        hit = dropped.any(axis=1)
        if hit.any():
            np.copyto(block, self._held[rows], where=dropped[:, self.columns])
            self.raw[rows] = block
            self.completeness[rows[hit]] = 1.0 - dropped[hit].mean(axis=1)
            if obs.enabled():
                obs.inc("faults.readings_dropped", float(dropped.sum()))
        self._held[rows] = block
        self._has_held[rows] = True

    def _mask_nans(self, rows: np.ndarray, nan_counts: dict[int, int]) -> None:
        """NaNs take the row's last real value; the row becomes real.

        A corrupted row's completeness and masked-value count are those
        of its full row, ``nan_counts[row]`` NaNs of ``n_metrics``.
        """
        block = self.raw[rows]
        for i, row in enumerate(rows.tolist()):
            count = nan_counts.get(row)
            if count is None:
                continue
            mask = np.isnan(block[i])
            block[i, mask] = self._last_real[row, mask]
            self.raw[row] = block[i]
            self.completeness[row] = 1.0 - count / self.n_metrics
            obs.inc("resilience.nan_masked_values", float(count))
        self._last_real[rows] = block
        self._has_last_real[rows] = True
        self.staleness[rows] = 0

    def _impute(self, lost: list[int]) -> list[int]:
        """Step 5: carry the last real row forward, within budget."""
        imputed: list[int] = []
        for row in lost:
            obs.inc("telemetry.rows_skipped")
            obs.inc("resilience.ticks_lost")
            self.sampled_mask[row] = True
            self.staleness[row] += 1
            staleness = int(self.staleness[row])
            budget = self._resilient[row].staleness_budget
            name = self._containers[row].name
            if not self._has_last_real[row]:
                tick = self.clock(row) - 1
                self._unavailable(row, (
                    f"Telemetry for {name} lost at tick {tick} with no prior "
                    "observation to impute from."
                ))
            elif staleness > budget:
                self._unavailable(row, (
                    f"Telemetry for {name} stale for {staleness} "
                    f"consecutive ticks (budget {budget})."
                ))
            else:
                self.raw[row] = self._last_real[row]
                self.completeness[row] = 0.0
                obs.inc("resilience.imputed_ticks")
                obs.set_gauge("resilience.staleness", float(staleness))
                imputed.append(row)
        return imputed

    def _unavailable(self, row: int, message: str) -> None:
        obs.inc("resilience.unavailable")
        self._fault(row, TelemetryUnavailable(message))

    def _fault(self, row: int, fault: TelemetryFault) -> None:
        self.faulted[row] = fault
        self.faulted_mask[row] = True
        self.sampled_mask[row] = True

    # ------------------------------------------------------------------
    # The batched synthesis kernel and its two field sources
    # ------------------------------------------------------------------
    def _frame_source(self, active: list[int], frame):
        """``(fields, plan)`` of a round that reads ``frame``.

        The plan is cached: it is recompiled when the active groups, the
        row membership or the frame's layout change, and a node whose
        ``spec`` object was swapped only has its capacities re-read.
        """
        plan = self._plan
        if (
            plan is None
            or plan.layout != frame.layout
            or plan.membership != self._membership
            or plan.active != active
        ):

            def locate(container, t):
                row = frame.row(container)
                if row is None and container.tick_at(t) is not None:
                    raise ValueError(
                        f"The tick frame of tick {frame.tick} has no row for "
                        f"container {container.name}, which recorded that "
                        "tick."
                    )
                return row

            plan = self._plan = _RoundPlan(self, active, locate, frame.layout)
        elif any(map(is_not, [node.spec for node in plan.nodes], plan.specs)):
            plan.read_specs()
        return frame.fields, plan

    def _history_source(self, active: list[int]):
        """``(fields, plan)`` of a round gathered from the containers'
        logs (rows of unrecorded ticks read the zero sentinel, the last
        row)."""
        gathered: list[np.ndarray] = []
        found: dict[tuple[int, int], int] = {}

        def locate(container, t):
            key = (id(container), t)
            index = found.get(key)
            if index is None:
                row = container.tick_at(t)
                if row is None:
                    return None
                index = found[key] = len(gathered)
                gathered.append(row)
            return index

        plan = _RoundPlan(self, active, locate, None)
        gathered.append(np.zeros(N_COLUMNS))
        return np.array(gathered), plan

    def _synthesize(self, fields: np.ndarray, plan: "_RoundPlan") -> list[int]:
        """Synthesize one round's rows from ``fields`` as ``plan`` lays
        them out; returns the emitted rows."""
        catalog = self.catalog

        # --- host states: baseline + ordered accumulation, one member
        # position at a time over the entries that have it ------------
        host_states = synthesis.host_baseline(len(plan.nodes), plan.memory)
        contributions = synthesis.host_additive_contributions(
            fields[plan.member_fields], *plan.member_specs
        )
        start = 0
        for count in plan.position_counts:
            host_states[:count] += contributions[start:start + count]
            start += count
        synthesis.host_derived(
            host_states, plan.cores, plan.memory, plan.random_disk
        )

        # --- host metric rows: one per active group --------------------
        host = self._host_arrays
        host_values = catalog.synthesize_rows(
            host,
            host_states[plan.entry_of_group],
            plan.host_rngs,
            self._tick_scratch("host_noise", len(plan.active), host.n_draws),
        )
        self._counters_and_rates(
            host_values, host.counter_idx, plan.slots, plan.group_convert,
            self._grp_accum, self._grp_prev, self._grp_has_prev,
        )

        # --- container metric rows -------------------------------------
        rows = plan.rows
        container_states = synthesis.container_state_from_fields(
            fields[plan.row_fields], plan.row_alloc, plan.row_cores
        )
        container = self._container_arrays
        container_values = catalog.synthesize_rows(
            container,
            container_states,
            plan.row_rngs,
            self._tick_scratch("container_noise", rows.size, container.n_draws),
        )
        self._counters_and_rates(
            container_values, container.counter_idx,
            rows, plan.row_convert,
            self._row_accum, self._row_prev, self._row_has_prev,
        )

        # --- scatter into the fleet matrix -----------------------------
        self.raw[rows, : self._n_host] = host_values[plan.row_group]
        self.raw[rows, self._n_host:] = container_values
        self.completeness[rows] = 1.0
        self.sampled_mask[plan.sampled] = True
        return list(plan.row_list)

    def _tick_scratch(self, name: str, n: int, k: int) -> np.ndarray:
        buffer = self._scratch.get(name)
        if buffer is None or buffer.shape != (n, k):
            buffer = self._scratch[name] = np.empty((n, k))
        return buffer

    @staticmethod
    def _counters_and_rates(values, counter_idx, state_rows, convert,
                            accum, prev, has_prev) -> None:
        """Counter accumulation + rate conversion across the row axis.

        Replicates a per-container stream's running accumulator and
        rate recurrence: row *i*'s
        accumulator/prev live in ``accum[state_rows[i]]`` /
        ``prev[state_rows[i]]``.  ``convert`` masks rows whose agent
        converts counters to rates; unconverted rows keep the raw
        cumulative values, exactly like a ``convert_counters=False``
        reference stream.
        """
        if counter_idx.size == 0:
            return
        increments = np.maximum(values[:, counter_idx], 0.0)
        cumulative = accum[state_rows] + increments
        accum[state_rows] = cumulative
        values[:, counter_idx] = cumulative
        if not convert.any():
            return
        conv_rows = np.flatnonzero(convert)
        state_conv = state_rows[conv_rows]
        cum_conv = cumulative[conv_rows]
        deltas = cum_conv - prev[state_conv]
        np.maximum(deltas, 0.0, out=deltas)
        first = ~has_prev[state_conv]
        if first.any():
            deltas[first] = 0.0
        values[conv_rows[:, None], counter_idx] = deltas
        prev[state_conv] = cum_conv
        has_prev[state_conv] = True


class _RoundPlan:
    """One synthesis round of ``stream`` as index arrays over its field
    matrix; ``locate(container, t)`` is the field row of a recorded
    tick, ``None`` for an unrecorded one.

    Groups are the round's active host groups, *entries* its unique
    ``(namespace, node, tick)`` host states: rows of different groups
    share a node's host *state* (not its host RNG stream) when their
    namespaces and clocks match, as the reference path does.  Entries
    are ordered by member count (most first), so the entries with an
    ``i``-th member are a prefix: :attr:`member_fields` lists the
    members' field rows one position at a time, in ``node.containers``
    order within each entry, and :attr:`position_counts` how many
    entries each position has.  Rows are the matrix rows the round
    emits, in group-member order, with their field row (-1, the zero
    sentinel, for an unrecorded tick), group, generator, counter flag,
    CPU allocation and node cores.  The capacities come from the entry
    nodes' specs when the plan is built or :meth:`read_specs` runs.
    """

    def __init__(self, stream, active: list[int], locate, layout):
        self.active = active
        self.layout = layout
        self.membership = stream._membership
        clocks = stream._grp_clock
        entries: dict[tuple, int] = {}
        nodes: list = []
        members: list[list[int]] = []
        entry_of_group: list[int] = []
        rows: list[int] = []
        row_fields: list[int] = []
        row_group: list[int] = []
        self._quotas: list = []
        for group, slot in enumerate(active):
            key = stream._grp_key[slot]
            t = clocks[slot]
            entry = entries.setdefault((key[0], key[1], t), len(nodes))
            if entry == len(nodes):
                node = stream._grp_node[slot]
                nodes.append(node)
                found = (locate(container, t) for container in node.containers)
                members.append([index for index in found if index is not None])
            entry_of_group.append(entry)
            for row, container in zip(
                stream._grp_members[slot], stream._grp_containers[slot]
            ):
                index = locate(container, t)
                rows.append(row)
                row_fields.append(-1 if index is None else index)
                row_group.append(group)
                self._quotas.append(container.cpu_cgroup.quota_cores)

        self.slots = np.asarray(active, dtype=np.intp)
        self.host_rngs = [stream._grp_rng[slot] for slot in active]
        self.group_convert = np.array(
            [stream._grp_convert[slot] for slot in active], dtype=bool
        )
        order = sorted(range(len(nodes)), key=lambda entry: -len(members[entry]))
        rank = np.empty(len(nodes), dtype=np.intp)
        rank[order] = np.arange(len(nodes))
        self.nodes = [nodes[entry] for entry in order]
        members = [members[entry] for entry in order]
        self.entry_of_group = rank[np.asarray(entry_of_group, dtype=np.intp)]
        self.position_counts: list[int] = []
        member_fields: list[int] = []
        member_entry: list[int] = []
        while members and len(members[0]) > len(self.position_counts):
            position = len(self.position_counts)
            count = sum(1 for fields in members if len(fields) > position)
            member_fields.extend(fields[position] for fields in members[:count])
            member_entry.extend(range(count))
            self.position_counts.append(count)
        self.member_fields = np.asarray(member_fields, dtype=np.intp)
        self.member_entry = np.asarray(member_entry, dtype=np.intp)
        self.row_list = rows
        self.rows = np.asarray(rows, dtype=np.intp)
        self.row_fields = np.asarray(row_fields, dtype=np.intp)
        self.row_group = np.asarray(row_group, dtype=np.intp)
        self.row_rngs = [stream._row_rng[row] for row in rows]
        self.row_convert = stream._row_convert[self.rows]
        self.sampled = self.rows[self.row_fields >= 0]
        self.read_specs()

    def read_specs(self) -> None:
        """(Re-)read the capacities of the entry nodes' current specs."""
        self.specs = [node.spec for node in self.nodes]
        self.cores, self.memory, disk, network, self.random_disk, membw = (
            np.array(
                [
                    (
                        float(spec.cores),
                        float(spec.memory_bytes),
                        float(spec.disk_bandwidth),
                        float(spec.network_bandwidth),
                        float(spec.disk_random_bandwidth),
                        float(spec.memory_bandwidth),
                    )
                    for spec in self.specs
                ],
                dtype=np.float64,
            )
            .reshape(-1, 6)
            .T
        )
        at = self.member_entry
        self.member_specs = (
            self.cores[at], self.memory[at], disk[at], network[at], membw[at]
        )
        self.row_cores = self.cores[self.entry_of_group[self.row_group]]
        # An unlimited container is allocated its node's cores.
        self.row_alloc = np.array([
            cores if quota is None else quota
            for quota, cores in zip(self._quotas, self.row_cores.tolist())
        ])
