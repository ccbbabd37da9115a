import numpy as np
import pytest

from repro.edgesim.network import StarNetwork
from repro.edgesim.node import make_node
from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan, SimResult
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError


@pytest.fixture
def two_nodes():
    return [make_node("laptop", 0, is_controller=True), make_node("rpi-b", 1)]


@pytest.fixture
def tasks():
    return [
        SimTask(0, input_mb=10.0, memory_mb=10.0, true_importance=0.6),
        SimTask(1, input_mb=10.0, memory_mb=10.0, true_importance=0.3),
        SimTask(2, input_mb=10.0, memory_mb=10.0, true_importance=0.1),
    ]


class TestExecutionPlan:
    def test_duplicate_task_rejected(self):
        with pytest.raises(DataError):
            ExecutionPlan(((0, 0), (0, 1)))

    def test_negative_allocation_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(((0, 0),), allocation_time=-1.0)

    def test_len(self):
        assert len(ExecutionPlan(((0, 0), (1, 0)))) == 2


class TestEdgeSimulator:
    def test_gate_crossing_stops_early(self, two_nodes, tasks):
        simulator = EdgeSimulator(two_nodes, StarNetwork(), quality_threshold=0.6)
        plan = ExecutionPlan(((0, 0), (1, 0), (2, 0)))
        result = simulator.run(tasks, plan)
        assert result.gate_crossed
        assert result.tasks_executed == 1  # task 0 alone reaches 0.6 share
        assert result.importance_achieved == pytest.approx(0.6)

    def test_all_tasks_needed_when_threshold_high(self, two_nodes, tasks):
        simulator = EdgeSimulator(two_nodes, StarNetwork(), quality_threshold=1.0)
        plan = ExecutionPlan(((0, 0), (1, 1), (2, 0)))
        result = simulator.run(tasks, plan)
        assert result.tasks_executed == 3

    def test_incomplete_plan_never_crosses_gate(self, two_nodes, tasks):
        simulator = EdgeSimulator(two_nodes, StarNetwork(), quality_threshold=0.95)
        plan = ExecutionPlan(((2, 0),))  # only the least important task
        result = simulator.run(tasks, plan)
        assert not result.gate_crossed
        assert result.processing_time == float("inf")

    def test_allocation_time_shifts_pt(self, two_nodes, tasks):
        simulator = EdgeSimulator(two_nodes, StarNetwork(), quality_threshold=0.5)
        fast = simulator.run(tasks, ExecutionPlan(((0, 0),), allocation_time=0.0))
        slow = simulator.run(tasks, ExecutionPlan(((0, 0),), allocation_time=10.0))
        assert slow.processing_time == pytest.approx(fast.processing_time + 10.0)

    def test_faster_node_lower_pt(self, tasks):
        laptop = [make_node("laptop", 0)]
        pi = [make_node("rpi-a+", 0)]
        network = StarNetwork()
        pt_laptop = EdgeSimulator(laptop, network, quality_threshold=0.5).run(
            tasks, ExecutionPlan(((0, 0),))
        )
        pt_pi = EdgeSimulator(pi, network, quality_threshold=0.5).run(
            tasks, ExecutionPlan(((0, 0),))
        )
        assert pt_laptop.processing_time < pt_pi.processing_time

    def test_higher_bandwidth_lower_pt(self, two_nodes, tasks):
        plan = ExecutionPlan(((0, 1), (1, 1)))
        slow = EdgeSimulator(two_nodes, StarNetwork(bandwidth_mbps=5.0), quality_threshold=0.9).run(tasks, plan)
        fast = EdgeSimulator(two_nodes, StarNetwork(bandwidth_mbps=100.0), quality_threshold=0.9).run(tasks, plan)
        assert fast.processing_time < slow.processing_time

    def test_channel_serializes_transfers(self):
        """Two inputs to two different nodes cannot overlap on the channel."""
        nodes = [make_node("laptop", 0), make_node("laptop", 1)]
        network = StarNetwork(bandwidth_mbps=10.0, latency_s=0.0)
        tasks = [
            SimTask(0, input_mb=100.0, memory_mb=1.0, true_importance=0.5),
            SimTask(1, input_mb=100.0, memory_mb=1.0, true_importance=0.5),
        ]
        simulator = EdgeSimulator(nodes, network, quality_threshold=1.0)
        result = simulator.run(tasks, ExecutionPlan(((0, 0), (1, 1))))
        # Each transfer is 10 s; the second input cannot start before 10 s,
        # so the second result cannot arrive before 20 s.
        assert result.processing_time > 20.0

    def test_unknown_node_in_plan(self, two_nodes, tasks):
        simulator = EdgeSimulator(two_nodes, StarNetwork())
        with pytest.raises(DataError):
            simulator.run(tasks, ExecutionPlan(((0, 99),)))

    def test_unknown_task_in_plan(self, two_nodes, tasks):
        simulator = EdgeSimulator(two_nodes, StarNetwork())
        with pytest.raises(DataError):
            simulator.run(tasks, ExecutionPlan(((99, 0),)))

    def test_invalid_threshold(self, two_nodes):
        with pytest.raises(ConfigurationError):
            EdgeSimulator(two_nodes, StarNetwork(), quality_threshold=0.0)

    def test_duplicate_node_ids_rejected(self):
        nodes = [make_node("rpi-b", 0), make_node("rpi-b+", 0)]
        with pytest.raises(ConfigurationError):
            EdgeSimulator(nodes, StarNetwork())

    def test_deterministic(self, two_nodes, tasks):
        simulator = EdgeSimulator(two_nodes, StarNetwork(), quality_threshold=0.9)
        plan = ExecutionPlan(((0, 0), (1, 1), (2, 0)))
        a = simulator.run(tasks, plan)
        b = simulator.run(tasks, plan)
        assert a.processing_time == b.processing_time
        assert a.completion_times == b.completion_times


def test_plans_share_equal_assignment_pairs():
    first = ExecutionPlan(assignments=((0, 1), (1, 2)))
    second = ExecutionPlan(assignments=tuple([(0, 1), (1, 2)]))
    assert first.assignments == second.assignments
    assert all(a is b for a, b in zip(first.assignments, second.assignments))
    numpy_pairs = ExecutionPlan(assignments=((np.int64(0), 1),))
    assert type(numpy_pairs.assignments[0][0]) is np.int64
