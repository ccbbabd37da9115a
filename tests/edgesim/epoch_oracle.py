"""Per-event reference for the epoch engine (:meth:`EdgeSimulator.run`).

The shipped engine drains plain ``(time, seq, kind, position, node)``
tuples over precomputed timing columns and stops at the gate crossing.
This oracle is the straightforward form it replaced: an
:class:`EventQueue` of :class:`Event` objects, one handler per event
kind, keyed by task ids, run until the queue is empty. The engine must
match it bit for bit, failures and dependencies included.
``CalendarQueue`` (the fleet engine's calendar) is pinned to the same
:class:`EventQueue` order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.edgesim.simulator import SimResult
from repro.errors import SimulationError


@dataclass(order=True)
class Event:
    """One scheduled event; ``payload`` is opaque to the queue."""

    time: float
    sequence: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Priority queue of events with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event ``delay`` seconds after the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(self.now + delay, next(self._counter), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event at an absolute time >= now."""
        if time < self.now - 1e-12:
            raise SimulationError(f"cannot schedule into the past (t={time} < now={self.now})")
        event = Event(max(time, self.now), next(self._counter), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the next event, advancing the clock."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        event = heapq.heappop(self._heap)
        if event.time < self.now - 1e-12:
            raise SimulationError(
                f"event time {event.time} precedes current time {self.now}"
            )
        self.now = max(self.now, event.time)
        return event

    def run(self, handler: Callable[[Event], None], *, max_events: int = 10_000_000) -> int:
        """Drain the queue through ``handler``; returns events processed.

        The bound is checked *before* dispatch: the handler is invoked at most
        ``max_events`` times before :class:`SimulationError` is raised.
        """
        processed = 0
        while self._heap:
            if processed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
            handler(self.pop())
            processed += 1
        return processed


def run_epoch(simulator, tasks, plan, *, failures=None, dependencies=None) -> SimResult:
    """One epoch on ``simulator``'s nodes, network and threshold, per event."""
    nodes = simulator.nodes
    network = simulator.network
    task_by_id = {task.task_id: task for task in tasks}
    failures = dict(failures or {})
    total_importance = float(sum(t.true_importance for t in task_by_id.values()))
    gate_target = simulator.quality_threshold * total_importance

    queue = EventQueue()
    # Results take priority over queued (not in-flight) inputs. On a shared
    # medium every transfer serializes through one link; on a switched
    # network each node has a full-duplex link (inputs down, results up).
    pending_inputs: list[tuple[int, int]] = list(plan.assignments)
    pending_results: list[tuple[int, int]] = []
    shared_medium = bool(getattr(network, "shared_medium", True))
    link_busy: dict[object, bool] = {}

    def link_of(node_id: int, kind: str):
        if shared_medium:
            return "shared"
        return (node_id, kind)

    node_queues: dict[int, list[int]] = {node_id: [] for node_id in nodes}
    node_busy: dict[int, bool] = {node_id: False for node_id in nodes}
    node_running: dict[int, int | None] = {node_id: None for node_id in nodes}
    alive: set[int] = set(nodes)
    achieved = 0.0
    completed: dict[int, float] = {}
    decision_time: float | None = None
    cancelled = False

    def fastest_alive() -> int | None:
        survivors = [nodes[n] for n in alive]
        if not survivors:
            return None
        return min(survivors, key=lambda node: node.compute_s_per_bit).node_id

    def start_next_transfer() -> None:
        for queue_list, kind in ((pending_results, "result"), (pending_inputs, "input")):
            if kind == "input" and cancelled:
                continue
            index = 0
            while index < len(queue_list):
                task_id, node_id = queue_list[index]
                link = link_of(node_id, kind)
                if link_busy.get(link, False):
                    index += 1
                    continue
                queue_list.pop(index)
                link_busy[link] = True
                task = task_by_id[task_id]
                size = task.result_mb if kind == "result" else task.input_mb
                queue.schedule(network.transfer_time(size), f"{kind}_arrived", (task_id, node_id))

    def ready(task_id: int) -> bool:
        if dependencies is None:
            return True
        return all(p in completed for p in dependencies.prerequisites_of(task_id))

    def start_next_execution(node_id: int) -> None:
        if node_id not in alive:
            return
        if node_busy[node_id] or cancelled or not node_queues[node_id]:
            return
        position = next((i for i, t in enumerate(node_queues[node_id]) if ready(t)), None)
        if position is None:
            return
        task_id = node_queues[node_id].pop(position)
        node_busy[node_id] = True
        node_running[node_id] = task_id
        queue.schedule(
            nodes[node_id].execution_time(task_by_id[task_id].input_mb),
            "execution_done",
            (task_id, node_id),
        )

    def handle(event) -> None:
        nonlocal achieved, decision_time, cancelled
        if event.kind == "input_arrived":
            task_id, node_id = event.payload
            link_busy[link_of(node_id, "input")] = False
            if node_id in alive:
                node_queues[node_id].append(task_id)
                start_next_execution(node_id)
            else:
                target = fastest_alive()
                if target is not None and not cancelled:
                    pending_inputs.insert(0, (task_id, target))
            start_next_transfer()
        elif event.kind == "execution_done":
            task_id, node_id = event.payload
            if node_id not in alive or node_running[node_id] != task_id:
                return  # stale event from before the node failed
            node_busy[node_id] = False
            node_running[node_id] = None
            pending_results.append((task_id, node_id))
            start_next_transfer()
            start_next_execution(node_id)
        elif event.kind == "node_failed":
            node_id = event.payload
            if node_id not in alive:
                return
            alive.discard(node_id)
            lost = list(node_queues[node_id])
            node_queues[node_id].clear()
            if node_running[node_id] is not None:
                lost.insert(0, node_running[node_id])
                node_running[node_id] = None
            stranded = [t for t, n in pending_results if n == node_id]
            pending_results[:] = [(t, n) for t, n in pending_results if n != node_id]
            lost = stranded + lost
            node_busy[node_id] = False
            target = fastest_alive()
            if target is not None and not cancelled:
                for position, task_id in enumerate(lost):
                    pending_inputs.insert(position, (task_id, target))
            if target is not None:
                for position, (task_id, destination) in enumerate(pending_inputs):
                    if destination == node_id:
                        pending_inputs[position] = (task_id, target)
            start_next_transfer()
        elif event.kind == "result_arrived":
            task_id, node_id = event.payload
            link_busy[link_of(node_id, "result")] = False
            if decision_time is None:
                completed[task_id] = queue.now
                achieved += task_by_id[task_id].true_importance
                if achieved >= gate_target - 1e-12:
                    decision_time = queue.now + simulator.AGGREGATION_TIME
                    cancelled = True
                    pending_inputs.clear()
                elif dependencies is not None:
                    for waiting_node in alive:
                        start_next_execution(waiting_node)
            start_next_transfer()
        else:
            raise SimulationError(f"unknown event kind {event.kind!r}")

    queue.now = plan.allocation_time
    for node_id, fail_time in failures.items():
        queue.schedule_at(max(fail_time, queue.now), "node_failed", node_id)
    start_next_transfer()
    queue.run(handle)

    return SimResult(
        processing_time=decision_time if decision_time is not None else float("inf"),
        tasks_executed=len(completed),
        importance_achieved=float(achieved),
        gate_crossed=decision_time is not None,
        completion_times=completed,
    )
