"""Event-queue tests: ordering, determinism, bounded execution."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import LATE_TOLERANCE, EventQueue

from tests.sim.heap_oracle import HeapQueue

#: The engine and the heap oracle the differential tests trust it
#: against satisfy one scheduling contract; every test in this module
#: runs against each via this fixture.
QUEUES = {"heap": HeapQueue, "calendar": EventQueue}


@pytest.fixture(params=list(QUEUES))
def queue(request):
    return QUEUES[request.param]()


class TestScheduling:
    def test_runs_in_time_order(self, queue):
        seen = []
        queue.schedule(3.0, lambda: seen.append("c"))
        queue.schedule(1.0, lambda: seen.append("a"))
        queue.schedule(2.0, lambda: seen.append("b"))
        queue.run_until(10.0)
        assert seen == ["a", "b", "c"]

    def test_fifo_for_equal_timestamps(self, queue):
        seen = []
        for tag in range(5):
            queue.schedule(1.0, lambda t=tag: seen.append(t))
        queue.run_until(1.0)
        assert seen == [0, 1, 2, 3, 4]

    def test_past_scheduling_rejected(self, queue):
        queue.schedule(1.0, lambda: None)
        queue.run_until(2.0)
        with pytest.raises(SimulationError):
            queue.schedule(1.5, lambda: None)

    def test_schedule_in_is_relative(self, queue):
        times = []
        queue.schedule(1.0, lambda: queue.schedule_in(
            0.5, lambda: times.append(queue.now)))
        queue.run_until(5.0)
        assert times == [1.5]

    def test_clock_advances_to_deadline_when_idle(self, queue):
        queue.run_until(7.0)
        assert queue.now == 7.0

    def test_clock_does_not_pass_pending_events(self, queue):
        queue.schedule(5.0, lambda: None)
        queue.run_until(2.0)
        assert queue.now == 2.0
        assert queue.pending == 1


class TestBulkScheduling:
    def test_schedule_call_passes_payload(self, queue):
        seen = []
        queue.schedule_call(1.0, seen.append, "payload")
        queue.run_until(2.0)
        assert seen == ["payload"]

    def test_schedule_fanout_orders_by_index_on_ties(self, queue):
        seen = []
        queue.schedule_fanout([2.0, 1.0, 1.0, 2.0], seen.append,
                              ["a", "b", "c", "d"])
        queue.run_until(5.0)
        assert seen == ["b", "c", "a", "d"]

    def test_schedule_fanout_rejects_past(self, queue):
        queue.schedule(1.0, lambda: None)
        queue.run_until(2.0)
        with pytest.raises(SimulationError):
            queue.schedule_fanout([3.0, 1.0], lambda arg: None, [0, 1])
        assert queue.pending == 0

    def test_schedule_fanout_empty(self, queue):
        assert queue.schedule_fanout([], lambda arg: None, []) == 0


class TestLateClamp:
    """Timestamps a few ulps before ``now`` clamp instead of raising.

    The cumsum egress ramp computes arrival vectors as ``start +
    per_copy * ramp``; re-deriving the same instant through a different
    float association order can land a handful of ulps below the clock.
    Those are physically meaningless (1 ns of simulated time vs ~1 ms
    propagation delays), so the queue clamps-and-counts them; anything
    beyond the tolerance stays a hard error.
    """

    def _advance(self, queue, to=2.0):
        queue.schedule(to, lambda: None)
        queue.run_until(to)
        return queue.now

    def test_schedule_clamps_ulp_late(self, queue):
        now = self._advance(queue)
        seen = []
        barely_late = now - now * 1e-16  # a few ulps below the clock
        assert barely_late < now
        queue.schedule(barely_late, lambda: seen.append(queue.now))
        assert queue.late_clamped == 1
        queue.run_until(now)
        assert seen == [now]

    def test_schedule_call_and_push_clamp(self, queue):
        now = self._advance(queue)
        seen = []
        queue.schedule_call(now - 1e-10, seen.append, "a")
        queue.push(now - 1e-10, seen.append, "b")
        assert queue.late_clamped == 2
        queue.run_until(now)
        assert seen == ["a", "b"]

    def test_fanout_clamps_ulp_late_arrivals(self, queue):
        now = self._advance(queue)
        seen = []
        times = [now - 1e-10, now, now + 0.5, now + 1.0, now + 1.5]
        queue.schedule_fanout(times, seen.append, list(range(5)))
        assert queue.late_clamped == 1
        queue.run_until_idle()
        assert seen == [0, 1, 2, 3, 4]
        assert queue.now == now + 1.5

    def test_beyond_tolerance_still_raises(self, queue):
        now = self._advance(queue)
        for call in (
                lambda: queue.schedule(now - 1e-6, lambda: None),
                lambda: queue.schedule_call(now - 1e-6, print, None),
                lambda: queue.push(now - 1e-6, print, None),
                lambda: queue.schedule_fanout(
                    [now - 1e-6] + [now + i for i in range(4)],
                    print, list(range(5))),
        ):
            with pytest.raises(SimulationError):
                call()
        assert queue.pending == 0
        assert queue.late_clamped == 0

    def test_clamp_counter_in_occupancy(self, queue):
        now = self._advance(queue)
        queue.schedule(now - 1e-10, lambda: None)
        occupancy = queue.occupancy()
        assert occupancy["late_clamped"] == 1
        assert occupancy["pending"] == 1
        assert occupancy["backend"] in ("heap", "calendar")
        assert LATE_TOLERANCE == 1e-9


class TestCascades:
    def test_event_scheduling_events(self, queue):
        hits = []

        def chain(depth):
            hits.append(depth)
            if depth < 5:
                queue.schedule_in(0.1, lambda: chain(depth + 1))

        queue.schedule(0.0, lambda: chain(0))
        queue.run_until(10.0)
        assert hits == [0, 1, 2, 3, 4, 5]

    def test_max_events_guard(self, queue):

        def forever():
            queue.schedule_in(0.001, forever)

        queue.schedule(0.0, forever)
        executed = queue.run_until(1000.0, max_events=50)
        assert executed == 50

    def test_run_until_idle(self, queue):
        for i in range(10):
            queue.schedule(float(i), lambda: None)
        assert queue.run_until_idle() == 10
        assert queue.pending == 0

    def test_processed_counter(self, queue):
        queue.schedule(0.0, lambda: None)
        queue.schedule(1.0, lambda: None)
        queue.run_until(5.0)
        assert queue.processed == 2
