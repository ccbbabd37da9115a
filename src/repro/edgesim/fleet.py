"""Fleet-scale edge simulation: SoA node state + batched calendar kernel.

:class:`FleetSimulator` is the open-loop fleet engine (the testbed epoch
runs on :class:`~repro.edgesim.simulator.EdgeSimulator`): 10k–1M nodes
in hierarchical :class:`~repro.edgesim.network.RegionalNetwork`
topologies, open-loop arrivals from :mod:`repro.serve.samplers`, node
churn with the re-dispatch semantics of the epoch simulator (lost work is
re-shipped to a surviving node), and streaming metrics through
:class:`~repro.telemetry.timeseries.TimeSeriesAggregator`. Node state
lives in preallocated numpy columns; homogeneous event cohorts
(arrivals, transfer completions, execution completions) are popped from
the calendar as batches and applied with vectorized kernels, so
throughput is dominated by numpy, not the interpreter, and memory is
O(nodes + in-flight tasks + windows) — never O(events). Cohorts never
span calendar buckets, so the only relaxation versus strict per-event
interleaving is bounded by ``bucket_s`` and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.edgesim.events import CalendarQueue
from repro.edgesim.network import RegionalNetwork
from repro.edgesim.node import NODE_PRESETS
from repro.edgesim.workload import FleetWorkload
from repro.errors import ConfigurationError
from repro.serve.samplers import make_sampler
from repro.telemetry import get_registry, span
from repro.telemetry.bridge import sim_time_aggregator
from repro.telemetry.instruments import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.telemetry.timeseries import TimeSeriesAggregator, estimate_quantile
from repro.utils.rng import as_rng, derive_seeds

# Fleet-engine event kinds.
_F_ARRIVAL = 0
_F_XFER_DONE = 1
_F_EXEC_DONE = 2
_F_FAIL = 3
_F_RECOVER = 4
_F_REFILL = 5


def _segments(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal keys in a sorted key column.

    Returns ``(starts, lengths, seg, col)``: each run's first index and
    length, and for every element its run (segment) index and its column
    within that run.
    """
    n = len(sorted_keys)
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    starts = head.nonzero()[0]
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = n - starts[-1]
    seg = np.cumsum(head) - 1
    return starts, lengths, seg, np.arange(n) - starts[seg]


def _segmented_fifo(
    seg: np.ndarray, col: np.ndarray, lengths: np.ndarray, ready: np.ndarray,
    durations: np.ndarray, busy: np.ndarray,
) -> np.ndarray:
    """Completion times of one FIFO resource per segment, all at once.

    Segment ``k`` is the ``lengths[k]`` elements with ``seg == k`` in
    ``col`` order (a key-sorted cohort, see :func:`_segments`), served by
    a resource that is busy until ``busy[k]``. Each segment solves
    ``end_i = max(ready_i, end_{i-1}) + d_i`` (``end_{-1} = busy[k]``)
    without a Python loop: with ``s = cumsum(d)``, ``end_i = s_i +
    max_{j<=i} max(busy[k], ready_j - s_{j-1})``.

    Segments are the rows of a padded ``(segments, width)`` layout, and
    ``cumsum`` / ``maximum.accumulate`` run along ``axis=1``. Along a row
    these are the same left-to-right IEEE-754 operations the 1-D
    recurrence performs on that segment alone, and padding sits after
    each row's last element (zero for the sum, ``-inf`` for the max), so
    every result is bitwise what a per-segment pass would give. A
    one-element segment reduces to ``d + max(ready, busy)``.
    """
    shape = (len(busy), int(lengths.max()))
    cum = np.zeros(shape)
    cum[seg, col] = durations
    np.cumsum(cum, axis=1, out=cum)
    s = cum[seg, col]
    slack = np.full(shape, -np.inf)
    slack[seg, col] = ready - (s - durations)
    np.maximum(slack, busy[:, None], out=slack)
    return s + np.maximum.accumulate(slack, axis=1)[seg, col]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _pick_nodes(
    members: np.ndarray,
    member_start: np.ndarray,
    member_count: np.ndarray,
    pointer: np.ndarray,
    alive: np.ndarray,
    seg_regions: np.ndarray,
    lengths: np.ndarray,
    seg: np.ndarray,
    col: np.ndarray,
) -> np.ndarray:
    """Round-robin node picks for a region-sorted cohort, every region at once.

    Region ``r`` owns ``members[member_start[r]:][:member_count[r]]`` and a
    round-robin ``pointer[r]``; its segment of ``lengths[k]`` tasks takes
    the next members in turn and advances the pointer (in place). A pick
    that lands on a dead node is replaced by the alive member at the same
    round-robin offset among the region's alive members; a region with no
    alive member returns ``-1`` for all its tasks.
    """
    regions = seg_regions[seg]
    base = pointer[regions]
    count = member_count[regions]
    chosen = members[member_start[regions] + (base + col) % count]
    pointer[seg_regions] = (pointer[seg_regions] + lengths) % member_count[seg_regions]
    dead = (~alive[chosen]).nonzero()[0]
    if len(dead) == 0:
        return chosen
    # Rare: only regions where a dead node came up gather their alive members.
    hit = np.unique(seg[dead])
    hit_count = member_count[seg_regions[hit]]
    pool = members[_ranges(member_start[seg_regions[hit]], hit_count)]
    live = alive[pool]
    n_live = np.add.reduceat(live.astype(np.int64), np.cumsum(hit_count) - hit_count)
    live_pool = pool[live]
    h = np.searchsorted(hit, seg[dead])
    k = n_live[h]
    up = k > 0
    offset = (np.cumsum(n_live) - n_live)[h] + (base[dead] + col[dead]) % np.maximum(k, 1)
    chosen[dead[up]] = live_pool[offset[up]]
    chosen[dead[~up]] = -1
    return chosen


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of one open-loop fleet run.

    Attributes
    ----------
    n_nodes:
        Fleet size; nodes cycle through ``node_presets`` and are
        partitioned round-robin into ``n_regions`` regions.
    duration_s:
        Arrival horizon (simulated seconds); in-flight work drains after.
    arrival_rate_hz:
        Fleet-wide open-loop arrival rate (tasks/second).
    sampler / burst_sigma:
        Inter-arrival family from :mod:`repro.serve.samplers`.
    mean_input_mbit / result_mbit:
        Workload sizes in megabits (see :mod:`repro.edgesim.network`).
    churn_rate_hz:
        Fleet-wide node-failure rate; each failed node recovers after
        ``recovery_s``. Work lost to a failure is re-dispatched to a
        surviving node in the same region (the epoch simulator's
        reassignment semantics); with a whole region down, its tasks drop.
    window_s / max_windows:
        Tumbling-window geometry of the streaming metrics ring.
    chunk:
        Arrivals generated per refill batch — the O(chunk) arrival buffer.
    bucket_s:
        Calendar-queue bucket width; also the bound on cohort batching
        skew.
    """

    n_nodes: int = 1000
    n_regions: int = 8
    duration_s: float = 60.0
    # Defaults sit at ~60% access-radio utilization (the binding resource:
    # ~0.165 s of radio per mean task, 8 radios) so the open-loop system
    # is stable and in-flight work stays bounded.
    arrival_rate_hz: float = 30.0
    sampler: str = "poisson"
    burst_sigma: float = 0.4
    mean_input_mbit: float = 8.0
    result_mbit: float = 0.1
    churn_rate_hz: float = 0.0
    recovery_s: float = 5.0
    window_s: float = 10.0
    max_windows: int = 240
    chunk: int = 8192
    bucket_s: float = 1.0
    seed: int = 0
    node_presets: tuple[str, ...] = ("rpi-a+", "rpi-b", "rpi-b+")
    network: RegionalNetwork | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_regions < 1 or self.n_regions > self.n_nodes:
            raise ConfigurationError(
                f"n_regions must be in [1, n_nodes], got {self.n_regions}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {self.duration_s}")
        if self.arrival_rate_hz <= 0:
            raise ConfigurationError(
                f"arrival_rate_hz must be > 0, got {self.arrival_rate_hz}"
            )
        if self.churn_rate_hz < 0:
            raise ConfigurationError(
                f"churn_rate_hz must be >= 0, got {self.churn_rate_hz}"
            )
        if self.recovery_s <= 0:
            raise ConfigurationError(f"recovery_s must be > 0, got {self.recovery_s}")
        if self.chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {self.chunk}")
        if not self.node_presets:
            raise ConfigurationError("node_presets must not be empty")
        for preset in self.node_presets:
            if preset not in NODE_PRESETS:
                raise ConfigurationError(f"unknown node preset {preset!r}")
        if self.network is not None and self.network.n_regions != self.n_regions:
            raise ConfigurationError(
                f"network has {self.network.n_regions} regions, config says {self.n_regions}"
            )


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one open-loop fleet run.

    ``timeseries`` is the streaming aggregator (flushed): its bounded
    window ring is the run's full metric trajectory; latency percentiles
    are bucket-interpolated estimates from a run-wide histogram, so no
    per-task record survives the run.

    ``latency_state`` is the raw run-wide latency histogram as plain
    picklable data ``(edges, bucket_counts, overflow, count, sum)``. The
    sharded runner sums these states across region groups and re-derives
    the merged percentiles from the summed buckets — exactly what a
    single group covering the whole fleet would have computed.
    """

    n_nodes: int
    n_regions: int
    duration_s: float
    arrivals: int
    completed: int
    dropped: int
    redispatched: int
    failures: int
    recoveries: int
    events: int
    peak_in_flight: int
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    timeseries: TimeSeriesAggregator = field(repr=False)
    latency_state: tuple | None = field(default=None, repr=False)

    @property
    def windows(self) -> list:
        return list(self.timeseries.windows)


class _SlotPool:
    """Preallocated columnar store for in-flight tasks, with a free list.

    Columns are indexed by *slot id*; slots are recycled on completion so
    capacity tracks peak in-flight tasks, not total arrivals. Growth
    doubles the columns (amortized O(1) per task).
    """

    __slots__ = (
        "capacity", "arrival_t", "size_mbit", "node", "incarnation",
        "_free", "_top", "peak_in_use",
    )

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = int(capacity)
        self.arrival_t = np.zeros(self.capacity, dtype=np.float64)
        self.size_mbit = np.zeros(self.capacity, dtype=np.float64)
        self.node = np.full(self.capacity, -1, dtype=np.int64)
        self.incarnation = np.zeros(self.capacity, dtype=np.int64)
        self._free = np.arange(self.capacity - 1, -1, -1, dtype=np.int64)
        self._top = self.capacity
        self.peak_in_use = 0

    @property
    def in_use(self) -> int:
        return self.capacity - self._top

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        self.arrival_t = np.concatenate([self.arrival_t, np.zeros(old)])
        self.size_mbit = np.concatenate([self.size_mbit, np.zeros(old)])
        self.node = np.concatenate([self.node, np.full(old, -1, dtype=np.int64)])
        self.incarnation = np.concatenate(
            [self.incarnation, np.zeros(old, dtype=np.int64)]
        )
        free = np.empty(new, dtype=np.int64)
        free[:old] = np.arange(new - 1, old - 1, -1, dtype=np.int64)
        free[old : old + self._top] = self._free[: self._top]
        self._free = free
        self._top += old
        self.capacity = new

    def alloc(self, k: int) -> np.ndarray:
        while self._top < k:
            self._grow()
        ids = self._free[self._top - k : self._top].copy()
        self._top -= k
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        return ids

    def free(self, ids: np.ndarray) -> None:
        k = len(ids)
        self._free[self._top : self._top + k] = ids
        self._top += k


class FleetSimulator:
    """SoA discrete-event engine for open-loop fleets.

    Construct with :meth:`build` from a :class:`FleetConfig`; the engine
    never materializes per-node objects.
    """

    # ------------------------------------------------------------------
    # Fleet construction: columns only, no EdgeNode objects.
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: FleetConfig,
        *,
        s_per_bit: np.ndarray | None = None,
        region: np.ndarray | None = None,
    ) -> "FleetSimulator":
        """A simulator whose node state is numpy columns.

        ``s_per_bit`` and ``region`` override the default round-robin
        preset/region columns; the sharded runner passes slices of the
        whole-fleet columns (attached zero-copy from shared memory) so
        each region group sees exactly the node population it would own
        in a single-process run. A ``region`` column must be 0-based and
        give every one of ``config.n_regions`` regions at least one node;
        anything else raises :class:`ConfigurationError`.
        """
        sim = cls.__new__(cls)
        sim.network = config.network or RegionalNetwork(n_regions=config.n_regions)
        sim._config = config
        n = config.n_nodes
        if s_per_bit is None:
            rates = np.asarray(
                [NODE_PRESETS[p][0] for p in config.node_presets], dtype=np.float64
            )
            s_per_bit = rates[np.arange(n) % len(rates)]
        else:
            s_per_bit = np.ascontiguousarray(s_per_bit, dtype=np.float64)
            if len(s_per_bit) != n:
                raise ConfigurationError(
                    f"s_per_bit column has {len(s_per_bit)} entries, config says {n}"
                )
        if region is None:
            region = np.arange(n, dtype=np.int64) % config.n_regions
        else:
            region = np.ascontiguousarray(region, dtype=np.int64)
            if len(region) != n:
                raise ConfigurationError(
                    f"region column has {len(region)} entries, config says {n}"
                )
        if region.min() < 0 or region.max() >= config.n_regions:
            raise ConfigurationError(
                f"region ids must lie in [0, {config.n_regions}), got "
                f"[{region.min()}, {region.max()}]"
            )
        counts = np.bincount(region, minlength=config.n_regions)
        if not counts.all():
            raise ConfigurationError(
                f"regions {np.flatnonzero(counts == 0).tolist()} have no nodes"
            )
        sim._c_s_per_bit = s_per_bit
        sim._c_region = region
        # Member table: region r's nodes (ascending ids) are
        # _m_nodes[_m_start[r] : _m_start[r] + _m_count[r]].
        sim._m_nodes = np.argsort(region, kind="stable")
        sim._m_count = counts
        sim._m_start = np.cumsum(counts) - counts
        return sim

    # ------------------------------------------------------------------
    # Open-loop arrivals, churn, streaming metrics.
    # ------------------------------------------------------------------
    def run_fleet(self, *, trace=None) -> FleetResult:
        """Run the open-loop fleet simulation described by the config.

        ``trace`` is an optional event sink with an ``add(TraceEvent)``
        method — a bounded :class:`~repro.edgesim.trace.Trace` ring or a
        streaming :class:`~repro.edgesim.trace.JsonlTraceSink` — which
        receives one completion span per finished task (slot id as the
        task id). Tracing costs a Python loop over completions, so it is
        off by default; memory stays bounded by the sink, never O(events).
        """
        config = self._config
        with span(
            "edgesim.fleet_run", nodes=config.n_nodes, duration_s=config.duration_s
        ):
            result = self._run_fleet(config, trace=trace)
        registry = get_registry()
        registry.counter(
            "repro_edgesim_fleet_runs_total", help="Open-loop fleet simulations"
        ).inc()
        registry.counter(
            "repro_edgesim_fleet_events_total",
            help="DES events processed by fleet runs",
        ).inc(result.events)
        return result

    def _run_fleet(self, config: FleetConfig, *, trace=None) -> FleetResult:
        network: RegionalNetwork = self.network
        n_regions = config.n_regions
        arrival_seed, workload_seed, churn_seed, churn_node_seed = derive_seeds(
            config.seed, 4
        )
        sampler = make_sampler(
            config.sampler,
            config.arrival_rate_hz,
            burst_sigma=config.burst_sigma,
            seed=arrival_seed,
        )
        workload = FleetWorkload(
            config.mean_input_mbit, result_mbit=config.result_mbit, seed=workload_seed
        )
        registry, aggregator, sim_clock = sim_time_aggregator(
            window_s=config.window_s, max_windows=config.max_windows
        )
        arrivals_counter = registry.counter(
            "repro_fleet_arrivals_total", help="Open-loop task arrivals"
        )
        completions_counter = registry.counter(
            "repro_fleet_completions_total", help="Tasks whose results returned"
        )
        dropped_counter = registry.counter(
            "repro_fleet_dropped_total", help="Tasks lost to fully-failed regions"
        )
        redispatch_counter = registry.counter(
            "repro_fleet_redispatch_total", help="Tasks re-shipped after node churn"
        )
        failure_counter = registry.counter(
            "repro_fleet_failures_total", help="Node failures"
        )
        recovery_counter = registry.counter(
            "repro_fleet_recoveries_total", help="Node recoveries"
        )
        latency_hist = registry.histogram(
            "repro_fleet_latency_seconds",
            help="Arrival-to-result latency (simulated seconds)",
        )
        overall_latency = Histogram(DEFAULT_LATENCY_BUCKETS)

        calendar = CalendarQueue(config.bucket_s)
        slots = _SlotPool(min(4096, max(64, config.chunk)))
        # Per-run node and radio state, fresh each run so repeated runs of
        # one simulator give identical results.
        alive = np.ones(config.n_nodes, dtype=bool)
        incarnation = np.zeros(config.n_nodes, dtype=np.int64)
        busy_until = np.zeros(config.n_nodes, dtype=np.float64)
        rr_pointer = np.zeros(n_regions, dtype=np.int64)
        radio_busy = np.zeros(n_regions, dtype=np.float64)
        backhaul_latency = network.backhaul.latency_s
        backhaul_bw = network.backhaul.bandwidth_mbps
        access_latency = network.access.latency_s
        access_bw = network.access.bandwidth_mbps
        result_return_tt = network.transfer_time(config.result_mbit)

        arrivals = completed = dropped = redispatched = 0
        failures = recoveries = 0
        events = 0
        region_counter = 0
        in_flight = peak_in_flight = 0

        # Churn schedule, drawn up front: O(churn events) — independent of
        # the task-event count and tiny at realistic rates.
        if config.churn_rate_hz > 0:
            churn_rng = as_rng(churn_seed)
            node_rng = as_rng(churn_node_seed)
            fail_times: list[np.ndarray] = []
            clock = 0.0
            while clock < config.duration_s:
                gaps = churn_rng.exponential(
                    1.0 / config.churn_rate_hz, size=max(16, config.chunk // 64)
                )
                # Carry the chunk boundary *inside* the cumsum so the
                # absolute times come out bitwise-identical for any chunk
                # size (left-to-right summation never restarts).
                chunk_times = np.cumsum(np.concatenate(([clock], gaps)))[1:]
                fail_times.append(chunk_times[chunk_times < config.duration_s])
                clock = float(chunk_times[-1])
            times = np.concatenate(fail_times) if fail_times else np.empty(0)
            if len(times):
                victims = node_rng.integers(0, config.n_nodes, size=len(times))
                calendar.schedule_batch(
                    times,
                    np.full(len(times), _F_FAIL, dtype=np.int32),
                    victims.astype(np.int64),
                    np.zeros(len(times), dtype=np.int64),
                )

        # The arrival-stream carry lives outside the calendar: the refill
        # event's *stored* time may be clamped forward to `now` by cohort
        # batching (`schedule_batch` clamps to the clock), so restarting
        # the cumsum from the event time would drift the stream by up to
        # `bucket_s` per refill — making the arrival process a function of
        # `chunk` and able to cross `duration_s` early. The carry always
        # holds the true last drawn arrival time.
        refill_carry = 0.0

        def refill() -> None:
            nonlocal refill_carry
            gaps = sampler.gap_chunk(config.chunk)
            # Same carry trick as the churn schedule: arrival times are a
            # pure function of the sampler stream, not of `config.chunk`.
            times = np.cumsum(np.concatenate(([refill_carry], gaps)))[1:]
            refill_carry = float(times[-1])
            exhausted = times >= config.duration_s
            times = times[~exhausted]
            if len(times) == 0:
                return
            sizes, _memory, _importance = workload.draw_chunk(len(times))
            slot_ids = slots.alloc(len(times))
            slots.arrival_t[slot_ids] = times
            slots.size_mbit[slot_ids] = sizes
            calendar.schedule_batch(
                times,
                np.full(len(times), _F_ARRIVAL, dtype=np.int32),
                slot_ids,
                np.zeros(len(times), dtype=np.int64),
            )
            if not exhausted.any():
                # More stream to come: refill once the scheduled arrivals
                # run out (equal time, later sequence — pops after them).
                calendar.schedule(float(times[-1]), _F_REFILL)

        def route(times: np.ndarray, slot_ids: np.ndarray, regions: np.ndarray) -> None:
            """Assign nodes and push transfers through each region's radio.

            One stable argsort groups the cohort by region (preserving
            per-region time order for the radio FIFO); node picks and the
            radio FIFOs of all regions then run as one vectorized pass,
            and all transfer completions go back to the calendar as one
            batch in region-sorted order.
            """
            nonlocal dropped, in_flight
            order = np.argsort(regions, kind="stable")
            times, slot_ids, regions = times[order], slot_ids[order], regions[order]
            starts, lengths, seg, col = _segments(regions)
            nodes = _pick_nodes(
                self._m_nodes, self._m_start, self._m_count, rr_pointer, alive,
                regions[starts], lengths, seg, col,
            )
            down = nodes < 0
            if down.any():
                lost = slot_ids[down]
                dropped += len(lost)
                dropped_counter.inc(len(lost))
                in_flight -= len(lost)
                slots.free(lost)
                keep = ~down
                if not keep.any():
                    return
                times, slot_ids, regions, nodes = (
                    times[keep], slot_ids[keep], regions[keep], nodes[keep]
                )
                starts, lengths, seg, col = _segments(regions)
            slots.node[slot_ids] = nodes
            slots.incarnation[slot_ids] = incarnation[nodes]
            sizes = slots.size_mbit[slot_ids]
            ready = times + (backhaul_latency + sizes / backhaul_bw)
            access_durations = access_latency + sizes / access_bw
            seg_regions = regions[starts]
            ends = _segmented_fifo(
                seg, col, lengths, ready, access_durations, radio_busy[seg_regions]
            )
            radio_busy[seg_regions] = ends[starts + lengths - 1]
            calendar.schedule_batch(
                ends,
                np.full(len(ends), _F_XFER_DONE, dtype=np.int32),
                slot_ids,
                np.zeros(len(ends), dtype=np.int64),
            )

        def redispatch(times: np.ndarray, slot_ids: np.ndarray) -> None:
            """Churn-lost work: fresh transfer to a survivor (same region)."""
            nonlocal redispatched
            redispatched += len(slot_ids)
            redispatch_counter.inc(len(slot_ids))
            stale_nodes = slots.node[slot_ids]
            route(times, slot_ids, self._c_region[stale_nodes])

        refill()
        while True:
            cohort = calendar.pop_cohort()
            if cohort is None:
                break
            kind, times, a, _b = cohort
            events += len(times)
            sim_clock[0] = calendar.now
            aggregator.maybe_tick()
            if kind == _F_ARRIVAL:
                # Counted as the events fire (not at chunk generation) so
                # the windowed arrival rate tracks simulated time.
                arrivals += len(a)
                arrivals_counter.inc(len(a))
                in_flight += len(a)
                if in_flight > peak_in_flight:
                    peak_in_flight = in_flight
                regions = (region_counter + np.arange(len(a))) % n_regions
                region_counter += len(a)
                route(times, a, regions)
            elif kind == _F_XFER_DONE:
                nodes = slots.node[a]
                valid = alive[nodes] & (slots.incarnation[a] == incarnation[nodes])
                if not valid.all():
                    redispatch(times[~valid], a[~valid])
                    times, a, nodes = times[valid], a[valid], nodes[valid]
                if len(a) == 0:
                    continue
                durations = (slots.size_mbit[a] * 1e6) * self._c_s_per_bit[nodes]
                # Each node's FIFO, all nodes in one segmented pass.
                order = np.argsort(nodes, kind="stable")
                sorted_nodes = nodes[order]
                starts, lengths, seg, col = _segments(sorted_nodes)
                seg_nodes = sorted_nodes[starts]
                sorted_ends = _segmented_fifo(
                    seg, col, lengths, times[order], durations[order],
                    busy_until[seg_nodes],
                )
                busy_until[seg_nodes] = sorted_ends[starts + lengths - 1]
                ends = np.empty_like(sorted_ends)
                ends[order] = sorted_ends
                calendar.schedule_batch(
                    ends,
                    np.full(len(ends), _F_EXEC_DONE, dtype=np.int32),
                    a,
                    np.zeros(len(ends), dtype=np.int64),
                )
            elif kind == _F_EXEC_DONE:
                nodes = slots.node[a]
                valid = alive[nodes] & (slots.incarnation[a] == incarnation[nodes])
                if not valid.all():
                    redispatch(times[~valid], a[~valid])
                    times, a = times[valid], a[valid]
                if len(a) == 0:
                    continue
                # Result return: uncontended backhaul + access delay for a
                # tiny control frame (documented fleet-mode simplification).
                latencies = (times + result_return_tt) - slots.arrival_t[a]
                latency_hist.observe_batch(latencies)
                overall_latency.observe_batch(latencies)
                completed += len(a)
                completions_counter.inc(len(a))
                in_flight -= len(a)
                if trace is not None:
                    from repro.edgesim.trace import TraceEvent

                    arrival_times = slots.arrival_t[a]
                    for i in range(len(a)):
                        trace.add(
                            TraceEvent(
                                "result",
                                int(a[i]),
                                int(nodes[i]),
                                float(arrival_times[i]),
                                float(times[i]) + result_return_tt,
                            )
                        )
                slots.free(a)
            elif kind == _F_FAIL:
                # A node fails at its first occurrence in the cohort if it
                # is up; repeats (and nodes already down) are no-ops.
                first = np.zeros(len(a), dtype=bool)
                first[np.unique(a, return_index=True)[1]] = True
                hit = np.flatnonzero(first & alive[a])
                if len(hit) == 0:
                    continue
                victims = a[hit]
                alive[victims] = False
                incarnation[victims] += 1
                failures += len(hit)
                failure_counter.inc(len(hit))
                calendar.schedule_batch(
                    times[hit] + config.recovery_s,
                    np.full(len(hit), _F_RECOVER, dtype=np.int32),
                    victims,
                    np.zeros(len(hit), dtype=np.int64),
                )
            elif kind == _F_RECOVER:
                # A node has at most one pending recovery, so a cohort
                # holds distinct nodes.
                alive[a] = True
                busy_until[a] = times
                recoveries += len(a)
                recovery_counter.inc(len(a))
            elif kind == _F_REFILL:
                refill()
            else:
                raise ConfigurationError(f"unknown fleet event kind {kind}")
        sim_clock[0] = calendar.now
        aggregator.flush()

        def quantile(q: float) -> float:
            return estimate_quantile(
                overall_latency.edges,
                overall_latency.bucket_counts,
                overall_latency.overflow,
                q,
            )

        mean = (
            overall_latency.sum / overall_latency.count if overall_latency.count else 0.0
        )
        return FleetResult(
            n_nodes=config.n_nodes,
            n_regions=n_regions,
            duration_s=config.duration_s,
            arrivals=arrivals,
            completed=completed,
            dropped=dropped,
            redispatched=redispatched,
            failures=failures,
            recoveries=recoveries,
            events=events,
            peak_in_flight=peak_in_flight,
            latency_mean_s=float(mean),
            latency_p50_s=quantile(50.0),
            latency_p95_s=quantile(95.0),
            latency_p99_s=quantile(99.0),
            timeseries=aggregator,
            latency_state=(
                tuple(overall_latency.edges),
                tuple(int(c) for c in overall_latency.bucket_counts),
                int(overall_latency.overflow),
                int(overall_latency.count),
                float(overall_latency.sum),
            ),
        )
