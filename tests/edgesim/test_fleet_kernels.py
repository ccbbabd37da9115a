"""The fleet engine's cohort kernels equal their scalar references bitwise.

``_segmented_fifo`` must give, for every segment of a key-sorted cohort,
exactly the floats the one-resource ``fifo_ends`` gives on that segment
alone; ``_pick_nodes`` must pick exactly the nodes the per-region
round-robin rule picks, dead-node fallback and fully-down regions
included. Exact equality (``assert_array_equal``) is the contract: the
fleet's golden digests depend on it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.edgesim.fleet import _pick_nodes, _segmented_fifo, _segments

from tests.edgesim.fleet_oracle import fifo_ends, pick_nodes

_floats = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_durations = st.floats(min_value=1e-3, max_value=5.0, allow_nan=False)
_job = st.tuples(_floats, _durations)
# A segment: its resource's busy horizon and its jobs in FIFO order.
_segment = st.tuples(_floats, st.lists(_job, min_size=1, max_size=12))


def _cohort(segments):
    keys = np.repeat(np.arange(len(segments)), [len(jobs) for _, jobs in segments])
    ready = np.array([r for _, jobs in segments for r, _ in jobs])
    durations = np.array([d for _, jobs in segments for _, d in jobs])
    busy = np.array([b for b, _ in segments])
    return keys, ready, durations, busy


def _expected_fifo(segments):
    return np.concatenate(
        [
            fifo_ends(np.array([r for r, _ in jobs]), np.array([d for _, d in jobs]), busy)
            for busy, jobs in segments
        ]
    )


@given(st.lists(_segment, min_size=1, max_size=20))
@example([(0.0, [(1.0, 0.5)])])  # one one-element segment
@example([(3.0, [(1.0, 0.5)]), (0.0, [(2.0, 1.0), (2.0, 1.0)]), (9.0, [(0.5, 2.0)])])
@settings(max_examples=300, deadline=None)
def test_segmented_fifo_equals_per_segment_fifo(segments):
    keys, ready, durations, busy = _cohort(segments)
    _starts, lengths, seg, col = _segments(keys)
    expected = _expected_fifo(segments)
    got = _segmented_fifo(seg, col, lengths, ready, durations, busy)
    np.testing.assert_array_equal(got, expected)


def test_one_element_segments_reduce_to_max_plus_duration():
    rng = np.random.default_rng(0)
    ready = rng.uniform(0.0, 10.0, size=64)
    durations = rng.uniform(0.01, 2.0, size=64)
    busy = rng.uniform(0.0, 10.0, size=64)
    _starts, lengths, seg, col = _segments(np.arange(64))
    got = _segmented_fifo(seg, col, lengths, ready, durations, busy)
    np.testing.assert_array_equal(got, np.maximum(ready, busy) + durations)


# ----------------------------------------------------------------------
# Node picks
# ----------------------------------------------------------------------
@st.composite
def _regions(draw):
    """A fleet (members per region, liveness, pointers) and a cohort."""
    n_regions = draw(st.integers(min_value=1, max_value=6))
    sizes = draw(st.lists(st.integers(1, 8), min_size=n_regions, max_size=n_regions))
    region = np.repeat(np.arange(n_regions), sizes)
    # Interleave node ids across regions like the fleet's round-robin layout.
    region = region[draw(st.permutations(range(len(region))))]
    alive = np.array(draw(st.lists(st.booleans(), min_size=len(region), max_size=len(region))))
    pointers = [draw(st.integers(0, size - 1)) for size in sizes]
    demand = draw(st.lists(st.integers(0, 10), min_size=n_regions, max_size=n_regions))
    return region, alive, pointers, demand


def _member_table(region, n_regions):
    counts = np.bincount(region, minlength=n_regions)
    return np.argsort(region, kind="stable"), np.cumsum(counts) - counts, counts


@given(_regions())
@settings(max_examples=300, deadline=None)
def test_pick_nodes_equals_per_region_round_robin(fleet_state):
    region, alive, pointers, demand = fleet_state
    n_regions = len(pointers)
    if sum(demand) == 0:
        demand = [1] + demand[1:]
    members, member_start, member_count = _member_table(region, n_regions)
    cohort = np.repeat(np.arange(n_regions), demand)
    starts, lengths, seg, col = _segments(cohort)
    pointer = np.array(pointers, dtype=np.int64)
    got = _pick_nodes(
        members, member_start, member_count, pointer, alive,
        cohort[starts], lengths, seg, col,
    )
    expected = []
    expected_pointer = list(pointers)
    for r in range(n_regions):
        if demand[r] == 0:
            continue
        chosen, expected_pointer[r] = pick_nodes(
            np.flatnonzero(region == r), pointers[r], alive, demand[r]
        )
        expected.append(chosen)
    np.testing.assert_array_equal(got, np.concatenate(expected))
    np.testing.assert_array_equal(pointer, expected_pointer)


def test_pick_nodes_dead_pick_and_region_down():
    # Region 0: nodes 0, 2, 4 with node 2 dead. Region 1: nodes 1, 3, 5,
    # all dead. Region 2: node 6 alone, alive.
    region = np.array([0, 1, 0, 1, 0, 1, 2])
    alive = np.array([True, False, False, False, True, False, True])
    members, member_start, member_count = _member_table(region, 3)
    cohort = np.array([0, 0, 0, 1, 1, 2])
    starts, lengths, seg, col = _segments(cohort)
    pointer = np.array([1, 0, 0], dtype=np.int64)
    got = _pick_nodes(
        members, member_start, member_count, pointer, alive,
        cohort[starts], lengths, seg, col,
    )
    # Region 0 round-robin from pointer 1 picks 2, 4, 0; the dead node 2
    # (offset 0) falls back to alive members [0, 4] at (1 + 0) % 2 -> 4.
    np.testing.assert_array_equal(got, [4, 4, 0, -1, -1, 6])
    np.testing.assert_array_equal(pointer, [1, 2, 0])
