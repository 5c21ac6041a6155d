"""Test helpers: an instant-delivery loop for driving sans-io cores.

``InstantLoop`` interprets protocol effects with zero network cost and a
tiny fixed delivery delay, which keeps unit tests fast and fully
deterministic without the bandwidth/CPU models.  (Integration tests use
the real simulator instead.)
"""

from __future__ import annotations

import heapq
from typing import Hashable

from repro.interfaces import (
    Broadcast,
    CancelTimer,
    Effect,
    Executed,
    Send,
    SetTimer,
    Trace,
)


class InstantLoop:
    """Routes effects among cores with near-zero delays."""

    DELIVERY_DELAY = 1e-6

    def __init__(self, cores: dict[int, object],
                 replica_ids: list[int] | None = None) -> None:
        self.cores = dict(cores)
        self.replica_ids = (replica_ids if replica_ids is not None
                            else sorted(self.cores))
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._timers: dict[tuple[int, Hashable], int] = {}
        self._timer_seq = 0  # generations are never reused (as SimNode)
        self.executed: dict[int, int] = {}
        self.traces: list[tuple[int, str, dict]] = []
        self.dropped: list[tuple[int, int, object]] = []
        #: Optional (src, dst, msg) -> bool filter; False drops the message.
        self.filter = None

    def start_all(self) -> None:
        """Invoke ``start`` on every core."""
        for node_id, core in self.cores.items():
            self._apply(node_id, core.start(self.now))

    def _push(self, when: float, action) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, action))

    def _apply(self, node_id: int, effects: list[Effect]) -> None:
        for effect in effects:
            if isinstance(effect, Send):
                self._route(node_id, effect.dest, effect.msg)
            elif isinstance(effect, Broadcast):
                excluded = set(effect.exclude) | {node_id}
                for dest in self.replica_ids:
                    if dest not in excluded:
                        self._route(node_id, dest, effect.msg)
            elif isinstance(effect, SetTimer):
                key = (node_id, effect.key)
                generation = self._timer_seq = self._timer_seq + 1
                self._timers[key] = generation
                self._push(self.now + effect.delay,
                           ("timer", node_id, effect.key, generation))
            elif isinstance(effect, CancelTimer):
                self._timers.pop((node_id, effect.key), None)
            elif isinstance(effect, Executed):
                self.executed[node_id] = (
                    self.executed.get(node_id, 0) + effect.count)
            elif isinstance(effect, Trace):
                self.traces.append((node_id, effect.kind, effect.data))

    def _route(self, src: int, dst: int, msg) -> None:
        if self.filter is not None and not self.filter(src, dst, msg):
            self.dropped.append((src, dst, msg))
            return
        self._push(self.now + self.DELIVERY_DELAY,
                   ("msg", src, dst, msg))

    def deliver_external(self, src: int, dst: int, msg) -> None:
        """Inject a message from outside the loop (e.g. a synthetic client)."""
        self._route(src, dst, msg)

    def run(self, duration: float, max_steps: int = 200_000) -> int:
        """Process events for ``duration`` seconds of virtual time."""
        deadline = self.now + duration
        steps = 0
        while self._heap and self._heap[0][0] <= deadline:
            if steps >= max_steps:
                raise AssertionError("InstantLoop exceeded max_steps")
            when, _, action = heapq.heappop(self._heap)
            self.now = when
            steps += 1
            kind = action[0]
            if kind == "msg":
                _, src, dst, msg = action
                core = self.cores.get(dst)
                if core is not None:
                    self._apply(dst, core.on_message(src, msg, self.now))
            else:
                _, node_id, key, generation = action
                if self._timers.get((node_id, key)) != generation:
                    continue
                del self._timers[(node_id, key)]
                core = self.cores.get(node_id)
                if core is not None:
                    self._apply(node_id, core.on_timer(key, self.now))
        self.now = max(self.now, deadline)
        return steps
