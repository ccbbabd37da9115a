"""Identity tier: the epoch kernel IS the per-event reference simulator.

:meth:`EdgeSimulator.run` drains a tuple heap over precomputed timing
columns and stops at the gate crossing; ``epoch_oracle.run_epoch`` is the
per-event loop it replaced. They must agree exactly, not approximately:
the same ``SimResult`` (bitwise-equal floats) and the same derived energy
accounting, across seeds, topologies, thresholds, allocation times, node
failures and task dependencies.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.dependencies import TaskDependencyGraph, dependency_aware_plan
from repro.edgesim.energy import energy_of_run
from repro.edgesim.network import StarNetwork, SwitchedNetwork
from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan
from repro.edgesim.testbed import paper_testbed, scaled_testbed
from repro.edgesim.workload import WorkloadGenerator
from repro.errors import ConfigurationError
from tests.edgesim import epoch_oracle


def _plan(tasks, n_nodes, *, allocation_time=0.0):
    ordered = sorted(tasks, key=lambda t: t.true_importance, reverse=True)
    return ExecutionPlan(
        assignments=tuple(
            (task.task_id, i % n_nodes) for i, task in enumerate(ordered)
        ),
        allocation_time=allocation_time,
    )


def _assert_identical(simulator, tasks, plan, **kwargs):
    expected = epoch_oracle.run_epoch(simulator, tasks, plan, **kwargs)
    got = simulator.run(tasks, plan, **kwargs)
    assert got == expected  # dataclass equality: every float bitwise-equal
    return got


NETWORKS = [
    StarNetwork(),
    StarNetwork(bandwidth_mbps=10.0),
    SwitchedNetwork(bandwidth_mbps=200.0, latency_s=0.001),
]


@pytest.mark.parametrize("network", NETWORKS, ids=["star", "star10", "switched"])
@pytest.mark.parametrize("threshold", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_exact_simresult_identity(network, threshold, seed):
    nodes, _ = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=40, seed=seed).draw()
    simulator = EdgeSimulator(nodes, network, quality_threshold=threshold)
    _assert_identical(simulator, tasks, _plan(tasks, len(nodes)))


@pytest.mark.parametrize("allocation_time", [0.0, 1.5, 120.0])
def test_allocation_time_offsets_identically(allocation_time):
    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=30, seed=3).draw()
    plan = _plan(tasks, len(nodes), allocation_time=allocation_time)
    _assert_identical(EdgeSimulator(nodes, network), tasks, plan)


def test_energy_accounting_identity():
    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=40, seed=11).draw()
    plan = _plan(tasks, len(nodes))
    simulator = EdgeSimulator(nodes, network)
    expected = energy_of_run(
        nodes, tasks, plan, epoch_oracle.run_epoch(simulator, tasks, plan), network
    )
    got = energy_of_run(nodes, tasks, plan, simulator.run(tasks, plan), network)
    assert got == expected


def test_gate_miss_is_identical():
    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=30, seed=5).draw()
    # Plan only a sliver of the workload so the importance gate can never
    # be crossed; both engines must report the same unreachable result.
    ordered = sorted(tasks, key=lambda t: t.true_importance)
    plan = ExecutionPlan(assignments=((ordered[0].task_id, 0),))
    got = _assert_identical(EdgeSimulator(nodes, network), tasks, plan)
    assert not got.gate_crossed
    assert math.isinf(got.processing_time)


def test_empty_plan_identity():
    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=10, seed=2).draw()
    _assert_identical(EdgeSimulator(nodes, network), tasks, ExecutionPlan(assignments=()))


def test_failures_match_oracle():
    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=30, seed=9).draw()
    plan = _plan(tasks, len(nodes))
    failures = {nodes[0].node_id: 5.0, nodes[3].node_id: 20.0}
    _assert_identical(EdgeSimulator(nodes, network), tasks, plan, failures=failures)


def test_rejects_bad_configuration_like_reference():
    nodes, network = paper_testbed()
    with pytest.raises(ConfigurationError):
        EdgeSimulator([], network)
    with pytest.raises(ConfigurationError):
        EdgeSimulator(nodes, network, quality_threshold=0.0)


# ---------------------------------------------------------------------------
# Drawn failure maps and dependency DAGs.
# ---------------------------------------------------------------------------
# Failure times: at the start, anywhere mid-run, or long after any gate.
_fail_times = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
    st.just(1e6),
)


@st.composite
def _epochs(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=10))
    nodes, _ = scaled_testbed(n_nodes)
    network = draw(st.sampled_from(NETWORKS))
    n_tasks = draw(st.integers(min_value=1, max_value=24))
    tasks = WorkloadGenerator(
        n_tasks=n_tasks, seed=draw(st.integers(min_value=0, max_value=2**16))
    ).draw()
    threshold = draw(st.sampled_from([0.5, 0.8, 1.0]))
    # Mostly a few failures, sometimes every node.
    n_failed = draw(st.one_of(st.integers(0, min(2, n_nodes)), st.just(n_nodes)))
    failed = draw(st.permutations([node.node_id for node in nodes]))[:n_failed]
    failures = {node_id: draw(_fail_times) for node_id in failed}
    dependencies = None
    if draw(st.booleans()):
        pairs = [(u, v) for u in range(n_tasks) for v in range(u + 1, n_tasks)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
        dependencies = TaskDependencyGraph([t.task_id for t in tasks], edges)
    allocation_time = draw(st.sampled_from([0.0, 2.5]))
    if dependencies is not None and draw(st.booleans()):
        scores = [t.true_importance for t in tasks]
        plan = dependency_aware_plan(
            tasks, nodes, scores, dependencies, time_limit_s=1e9,
            allocation_time=allocation_time,
        )
    else:
        # Any order and any placement, including dependents queued ahead of
        # their prerequisites and tasks left out of the plan.
        order = draw(st.permutations([t.task_id for t in tasks]))
        if draw(st.booleans()):
            order = order[: draw(st.integers(min_value=0, max_value=n_tasks))]
        placement = [
            draw(st.sampled_from([node.node_id for node in nodes])) for _ in order
        ]
        plan = ExecutionPlan(
            assignments=tuple(zip(order, placement)), allocation_time=allocation_time
        )
    simulator = EdgeSimulator(nodes, network, quality_threshold=threshold)
    return simulator, tasks, plan, failures, dependencies


@given(_epochs())
@settings(max_examples=300, deadline=None)
def test_drawn_failures_and_dependencies_match_oracle(epoch):
    simulator, tasks, plan, failures, dependencies = epoch
    _assert_identical(
        simulator, tasks, plan, failures=failures, dependencies=dependencies
    )


def test_failure_with_stranded_results_and_running_task_matches_oracle():
    # On two nodes the laptop fails at t=50 s holding both a finished result
    # still waiting for the shared radio and a running task: the lost work
    # must be re-dispatched stranded results first, then the running task.
    nodes, network = scaled_testbed(2)
    tasks = WorkloadGenerator(n_tasks=20, seed=16).draw()
    simulator = EdgeSimulator(nodes, network, quality_threshold=1.0)
    _assert_identical(simulator, tasks, _plan(tasks, len(nodes)), failures={0: 50.0})
