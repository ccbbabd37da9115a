import pytest

from repro.errors import SimulationError
from tests.edgesim.epoch_oracle import EventQueue


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.schedule(3.0, "c")
        queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == ["a", "b", "c"]

    def test_tie_break_by_insertion_order(self):
        queue = EventQueue()
        queue.schedule(1.0, "first")
        queue.schedule(1.0, "second")
        assert queue.pop().kind == "first"
        assert queue.pop().kind == "second"

    def test_clock_advances_on_pop(self):
        queue = EventQueue()
        queue.schedule(5.0, "x")
        queue.pop()
        assert queue.now == 5.0

    def test_schedule_relative_to_now(self):
        queue = EventQueue()
        queue.schedule(2.0, "a")
        queue.pop()
        queue.schedule(1.0, "b")
        event = queue.pop()
        assert event.time == pytest.approx(3.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, "x")

    def test_schedule_at_past_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0, "x")
        queue.pop()
        with pytest.raises(SimulationError):
            queue.schedule_at(1.0, "y")

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_run_drains_queue(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        processed = queue.run(lambda e: seen.append(e.kind))
        assert processed == 2
        assert seen == ["a", "b"]
        assert len(queue) == 0

    def test_handler_can_schedule_more(self):
        queue = EventQueue()
        queue.schedule(1.0, "seed")

        def handler(event):
            if event.kind == "seed":
                queue.schedule(1.0, "child")

        assert queue.run(handler) == 2

    def test_runaway_guard(self):
        queue = EventQueue()
        queue.schedule(1.0, "loop")

        def handler(event):
            queue.schedule(1.0, "loop")

        with pytest.raises(SimulationError, match="events"):
            queue.run(handler, max_events=100)

    def test_payload_carried(self):
        queue = EventQueue()
        queue.schedule(1.0, "x", payload={"k": 1})
        assert queue.pop().payload == {"k": 1}

    def test_runaway_guard_bound_is_exact(self):
        """The handler runs at most ``max_events`` times (regression: the
        bound used to be checked after dispatch, allowing one extra)."""
        queue = EventQueue()
        queue.schedule(1.0, "loop")
        calls = []

        def handler(event):
            calls.append(event.kind)
            queue.schedule(1.0, "loop")

        with pytest.raises(SimulationError, match="exceeded 5 events"):
            queue.run(handler, max_events=5)
        assert len(calls) == 5

    def test_run_exactly_at_bound_succeeds(self):
        queue = EventQueue()
        for i in range(5):
            queue.schedule(float(i), "e")
        assert queue.run(lambda e: None, max_events=5) == 5
