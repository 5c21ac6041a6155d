"""Differential oracle for :class:`repro.sim.events.EventQueue`.

One binary heap of ``(time, sequence, callback, arg)`` entries — the
definition of the global ``(time, sequence)`` order the calendar queue
must reproduce — with the engine's late-clamp rule and nothing else: no
buckets, no slabs, no bulk paths.  ``test_events.py`` holds it to the
scheduling contract; ``test_queue_equivalence.py`` runs randomized
programs and whole Leopard deployments on both and requires equality.
"""

from __future__ import annotations

import heapq

from repro.errors import SimulationError
from repro.sim.events import _NO_ARG, LATE_TOLERANCE


class HeapQueue:
    """The scheduling surface hosts and the network model call."""

    def __init__(self, bucket_width=None, bucket_count=None) -> None:
        # Bucket geometry is accepted and ignored: a heap has none.
        self._heap: list = []
        self._sequence = 0
        self._now = 0.0
        self.processed = 0
        self.late_clamped = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap)

    def occupancy(self) -> dict:
        return {"backend": "heap", "pending": self.pending,
                "late_clamped": self.late_clamped}

    def push(self, when, callback, arg) -> None:
        if when < self._now:
            if self._now - when > LATE_TOLERANCE:
                raise SimulationError(
                    f"cannot schedule event at {when} before "
                    f"now={self._now}")
            when = self._now
            self.late_clamped += 1
        self._sequence += 1
        heapq.heappush(self._heap, (when, self._sequence, callback, arg))

    schedule_call = push

    def schedule(self, when, callback) -> None:
        self.push(when, callback, _NO_ARG)

    def schedule_in(self, delay, callback) -> None:
        self.schedule(self._now + delay, callback)

    def schedule_fanout(self, times, callback, args) -> int:
        times = [float(when) for when in times]
        # All or nothing: one too-late arrival rejects the whole batch.
        if times and self._now - min(times) > LATE_TOLERANCE:
            raise SimulationError(
                f"cannot schedule event at {min(times)} before "
                f"now={self._now}")
        for when, arg in zip(times, args):
            self.push(when, callback, arg)
        return len(times)

    def run_until(self, deadline, max_events=None) -> int:
        executed = self._run(deadline, max_events)
        if not self._heap or self._heap[0][0] > deadline:
            self._now = max(self._now, deadline)
        return executed

    def run_until_idle(self, max_events=10_000_000) -> int:
        return self._run(float("inf"), max_events)

    def _run(self, deadline, max_events) -> int:
        executed = 0
        heap = self._heap
        while heap and heap[0][0] <= deadline \
                and (max_events is None or executed < max_events):
            when, _, callback, arg = heapq.heappop(heap)
            self._now = when
            self.processed += 1
            executed += 1
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
        return executed
