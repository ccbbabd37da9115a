"""The edge discrete-event simulator and its Processing Time metric.

Execution model of one decision epoch:

1. The controller spends ``allocation_time`` seconds computing the plan
   (measured or modeled by the allocator — exact solvers pay here, trained
   data-driven policies barely do).
2. Task inputs are shipped to their nodes over the shared WiFi channel in
   plan order (transfers serialize — WiFi is one medium).
3. Each node executes its queued tasks serially at its per-bit rate.
4. Results return to the controller over the same channel.
5. After every completed task the controller checks the **quality gate**:
   once the cumulative *true* importance of completed tasks reaches
   ``quality_threshold`` × (total true importance of the epoch), the
   aggregated decision is credible and is made. Pending work is cancelled.

Processing Time PT = allocation time + time of the gate-crossing result
(+ a fixed aggregation overhead) — the paper's PT = t_s − t_c.

A plan that orders truly important tasks first crosses the gate after a
handful of transfers and executions; an importance-blind plan ships most
of the input data before the gate opens. That, plus device matching, is
the entire mechanism behind the paper's Figs. 9-11 gaps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.edgesim.network import StarNetwork
from repro.edgesim.node import EdgeNode
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError
from repro.telemetry import get_registry, span

# Epoch-kernel event kinds.
_K_INPUT = 0
_K_EXEC = 1
_K_RESULT = 2
_K_FAIL = 3

#: One shared tuple per distinct (task_id, node_id) pair of plain ints, so
#: a retained plan (allocation caches, per-epoch histories) costs a pointer
#: per assignment rather than a fresh pair tuple. Bounded: past the cap,
#: new pairs are kept as given.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}
_MAX_SHARED_PAIRS = 1 << 16


def _shared_pair(pair):
    if type(pair) is not tuple or not all(type(v) is int for v in pair):
        return pair
    shared = _PAIRS.get(pair)
    if shared is None:
        if len(_PAIRS) >= _MAX_SHARED_PAIRS:
            return pair
        shared = _PAIRS[pair] = pair
    return shared


@dataclass(frozen=True)
class ExecutionPlan:
    """Ordered dispatch plan: (task_id, node_id) pairs plus planning cost.

    Order matters: it is the priority in which inputs are shipped. Tasks
    may appear at most once; tasks absent from the plan are never run.
    """

    assignments: tuple[tuple[int, int], ...]
    allocation_time: float = 0.0
    label: str = "plan"

    def __post_init__(self) -> None:
        assignments = tuple(_shared_pair(pair) for pair in self.assignments)
        object.__setattr__(self, "assignments", assignments)
        seen = set()
        for task_id, _node_id in assignments:
            if task_id in seen:
                raise DataError(f"task {task_id} appears twice in the plan")
            seen.add(task_id)
        if self.allocation_time < 0:
            raise ConfigurationError(
                f"allocation_time must be >= 0, got {self.allocation_time}"
            )

    def __len__(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated epoch.

    Attributes
    ----------
    processing_time:
        PT = t_s − t_c in seconds (inf if the gate was never crossed).
    tasks_executed:
        Number of tasks whose results reached the controller before t_s.
    importance_achieved:
        Cumulative true importance at t_s.
    gate_crossed:
        Whether the credibility threshold was reached.
    completion_times:
        task_id -> result-arrival time for completed tasks.
    """

    processing_time: float
    tasks_executed: int
    importance_achieved: float
    gate_crossed: bool
    completion_times: dict[int, float] = field(default_factory=dict)


class EdgeSimulator:
    """Deterministic DES over a node set and a shared-channel network."""

    #: Fixed decision-aggregation overhead once the gate is crossed.
    AGGREGATION_TIME = 0.05

    def __init__(
        self,
        nodes: Sequence[EdgeNode],
        network: StarNetwork,
        *,
        quality_threshold: float = 0.8,
    ) -> None:
        if not nodes:
            raise ConfigurationError("simulator needs at least one node")
        if not 0.0 < quality_threshold <= 1.0:
            raise ConfigurationError(
                f"quality_threshold must be in (0, 1], got {quality_threshold}"
            )
        self.nodes = {node.node_id: node for node in nodes}
        if len(self.nodes) != len(nodes):
            raise ConfigurationError("node ids must be unique")
        self.network = network
        self.quality_threshold = float(quality_threshold)

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SimTask],
        plan: ExecutionPlan,
        *,
        failures: dict[int, float] | None = None,
        dependencies=None,
    ) -> SimResult:
        """Simulate one epoch under ``plan``; returns the PT result.

        ``failures`` maps node id -> absolute failure time (seconds). A
        failed node loses its queued and in-flight work; the controller
        re-dispatches those tasks (a fresh input transfer) to the fastest
        surviving node, at the head of the transfer queue since they were
        already prioritized. With every node failed, remaining tasks are
        lost and the gate may never close (PT = inf).

        ``dependencies`` is an optional precedence structure exposing
        ``prerequisites_of(task_id) -> set[int]`` (e.g.
        :class:`repro.allocation.dependencies.TaskDependencyGraph`). A task
        only starts executing once every prerequisite's result has reached
        the controller, so completion order respects the DAG even under
        failure-driven re-dispatch.
        """
        with span("edgesim.run", plan=plan.label, tasks=len(tasks)):
            result = self._run(tasks, plan, failures=failures, dependencies=dependencies)
        registry = get_registry()
        registry.counter(
            "repro_edgesim_runs_total", help="Simulated decision epochs", plan=plan.label
        ).inc()
        registry.counter(
            "repro_edgesim_tasks_executed_total",
            help="Tasks whose results reached the controller before the decision",
            plan=plan.label,
        ).inc(result.tasks_executed)
        if result.gate_crossed:
            registry.histogram(
                "repro_edgesim_pt_seconds",
                help="Processing Time PT = t_s - t_c (simulated seconds)",
                plan=plan.label,
            ).observe(result.processing_time)
        else:
            registry.counter(
                "repro_edgesim_gate_misses_total",
                help="Epochs whose quality gate never closed (PT = inf)",
                plan=plan.label,
            ).inc()
        return result

    def _run(
        self,
        tasks: Sequence[SimTask],
        plan: ExecutionPlan,
        *,
        failures: dict[int, float] | None = None,
        dependencies=None,
    ) -> SimResult:
        """The epoch kernel, over plan positions instead of task objects.

        Per-position transfer times and input bit counts are computed up
        front as numpy columns: elementwise ``latency + size / bw`` and
        ``mb * 1e6`` are the same IEEE-754 operations as the scalar
        ``transfer_time`` / ``execution_time`` arithmetic. Events are plain
        ``(time, seq, kind, position, node)`` tuples on a heap, drained in
        (time, insertion-sequence) order. A failure can move a position to
        another node, so every event carries its node. The loop returns at
        the gate crossing: after it, results that land are stragglers the
        decision did not wait for, so no later event can change the
        :class:`SimResult`.
        """
        nodes = self.nodes
        task_by_id = {task.task_id: task for task in tasks}
        for task_id, node_id in plan.assignments:
            if task_id not in task_by_id:
                raise DataError(f"plan references unknown task {task_id}")
            if node_id not in nodes:
                raise DataError(f"plan references unknown node {node_id}")
        failures = dict(failures or {})
        for node_id, fail_time in failures.items():
            if node_id not in nodes:
                raise DataError(f"failure references unknown node {node_id}")
            if fail_time < 0:
                raise DataError(f"failure time must be >= 0, got {fail_time}")

        total_importance = float(sum(t.true_importance for t in task_by_id.values()))
        gate_target = self.quality_threshold * total_importance

        tid = [t for t, _ in plan.assignments]
        importance = [task_by_id[t].true_importance for t in tid]
        input_mbit = np.asarray([task_by_id[t].input_mb for t in tid], dtype=np.float64)
        result_mbit = np.asarray([task_by_id[t].result_mb for t in tid], dtype=np.float64)
        latency = self.network.latency_s
        bandwidth = self.network.bandwidth_mbps
        input_tt = (latency + input_mbit / bandwidth).tolist()
        result_tt = (latency + result_mbit / bandwidth).tolist()
        input_bits = (input_mbit * 1e6).tolist()
        s_per_bit = {node_id: node.compute_s_per_bit for node_id, node in nodes.items()}

        heap: list[tuple[float, int, int, int, int]] = []
        sequence = 0
        now = plan.allocation_time
        # Two transfer queues of (position, node): results are short
        # control frames and go before queued (not in-flight) inputs, so a
        # finished task's result never waits behind every remaining input.
        # On a shared medium (WiFi star) all transfers serialize through
        # one link; on a switched network each node has a full-duplex link.
        pending_inputs: list[tuple[int, int]] = [
            (position, node_id) for position, (_, node_id) in enumerate(plan.assignments)
        ]
        pending_results: list[tuple[int, int]] = []
        shared_medium = bool(getattr(self.network, "shared_medium", True))
        link_busy: dict[object, bool] = {}
        node_queues: dict[int, list[int]] = {node_id: [] for node_id in nodes}
        running: dict[int, int | None] = {node_id: None for node_id in nodes}
        alive: set[int] = set(nodes)
        achieved = 0.0
        completed: dict[int, float] = {}
        decision_time: float | None = None

        def link_of(node_id: int, kind: int):
            if shared_medium:
                return "shared"
            return (node_id, kind)

        def fastest_alive() -> int | None:
            survivors = [nodes[n] for n in alive]
            if not survivors:
                return None
            return min(survivors, key=lambda node: node.compute_s_per_bit).node_id

        def start_next_transfer() -> None:
            """Start every queue-head transfer whose link is free (FIFO per link)."""
            nonlocal sequence
            for queue_list, kind in ((pending_results, _K_RESULT), (pending_inputs, _K_INPUT)):
                index = 0
                while index < len(queue_list):
                    position, node_id = queue_list[index]
                    link = link_of(node_id, kind)
                    if link_busy.get(link, False):
                        index += 1
                        continue
                    queue_list.pop(index)
                    link_busy[link] = True
                    duration = result_tt[position] if kind == _K_RESULT else input_tt[position]
                    heapq.heappush(heap, (now + duration, sequence, kind, position, node_id))
                    sequence += 1

        def start_next_execution(node_id: int) -> None:
            """Start the node's first queued task whose prerequisites are done."""
            nonlocal sequence
            queued = node_queues[node_id]
            if running[node_id] is not None or not queued or node_id not in alive:
                return
            if dependencies is None:
                position = queued.pop(0)
            else:
                index = next(
                    (
                        i
                        for i, p in enumerate(queued)
                        if all(t in completed for t in dependencies.prerequisites_of(tid[p]))
                    ),
                    None,
                )
                if index is None:
                    return
                position = queued.pop(index)
            running[node_id] = position
            duration = input_bits[position] * s_per_bit[node_id]
            heapq.heappush(heap, (now + duration, sequence, _K_EXEC, position, node_id))
            sequence += 1

        # Failures take the first sequence numbers, ahead of any transfer.
        for node_id, fail_time in failures.items():
            heapq.heappush(heap, (max(fail_time, now), sequence, _K_FAIL, -1, node_id))
            sequence += 1
        start_next_transfer()
        while heap:
            event_time, _seq, kind, position, node_id = heapq.heappop(heap)
            if event_time > now:
                now = event_time
            if kind == _K_INPUT:
                link_busy[link_of(node_id, _K_INPUT)] = False
                if node_id in alive:
                    node_queues[node_id].append(position)
                    start_next_execution(node_id)
                else:
                    # Input landed on a dead node: re-dispatch to a survivor.
                    target = fastest_alive()
                    if target is not None:
                        pending_inputs.insert(0, (position, target))
                start_next_transfer()
            elif kind == _K_EXEC:
                if running[node_id] != position or node_id not in alive:
                    continue  # stale: the node failed while this ran
                running[node_id] = None
                pending_results.append((position, node_id))
                start_next_transfer()
                start_next_execution(node_id)
            elif kind == _K_RESULT:
                link_busy[link_of(node_id, _K_RESULT)] = False
                completed[tid[position]] = now
                achieved += importance[position]
                if achieved >= gate_target - 1e-12:
                    decision_time = now + self.AGGREGATION_TIME
                    break
                if dependencies is not None:
                    # A new completion may unblock queued dependents.
                    for waiting_node in alive:
                        start_next_execution(waiting_node)
                start_next_transfer()
            else:  # _K_FAIL
                alive.discard(node_id)
                # The dead node loses its stranded results, its running
                # task and its queue, in that order.
                lost = [p for p, n in pending_results if n == node_id]
                pending_results[:] = [(p, n) for p, n in pending_results if n != node_id]
                if running[node_id] is not None:
                    lost.append(running[node_id])
                    running[node_id] = None
                lost += node_queues[node_id]
                node_queues[node_id] = []
                target = fastest_alive()
                if target is not None:
                    # Lost work was already prioritized once: it goes to the
                    # head of the input queue, and queued inputs headed to
                    # the dead node are re-targeted.
                    pending_inputs[:] = [(p, target) for p in lost] + [
                        (p, target if n == node_id else n) for p, n in pending_inputs
                    ]
                start_next_transfer()

        return SimResult(
            processing_time=decision_time if decision_time is not None else float("inf"),
            tasks_executed=len(completed),
            importance_achieved=float(achieved),
            gate_crossed=decision_time is not None,
            completion_times=completed,
        )
