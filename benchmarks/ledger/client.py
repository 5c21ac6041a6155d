"""The benchmark's own load generator.

:class:`BenchClient` is a sans-io :class:`repro.interfaces.ProtocolCore`
that the live driver swaps into ``LiveCluster.clients`` before
``start()``.  It exists because the stock clients cannot be the
yardstick (see README "Load-generator findings"): they re-arm their
submit timer relative to *now* and stamp ``submitted_at`` when the timer
fires, so a stalled event loop both lowers the offered load and hides
the stall from the latency it reports.

Two modes:

* **closed** keeps ``window`` bundles outstanding and submits the next
  one when a bundle is *fully* acknowledged (acks arrive in spans when a
  batch boundary splits a bundle) — callers that each wait for a reply;
* **paced** sends on a schedule fixed before the run (seeded Poisson
  arrivals, :func:`poisson_schedule`).  ``submitted_at`` is the *due*
  time, so time a bundle spent waiting behind a stalled loop counts as
  latency, and send-minus-due lateness is recorded to validate the run.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

from repro.interfaces import Effect, Send, SetTimer
from repro.messages.client import Ack, RequestBundle


def poisson_schedule(seed: int, rate: float, start: float, stop: float
                     ) -> tuple[float, ...]:
    """Due times of a Poisson process of ``rate`` events/s on [start, stop).

    Fixed by ``seed`` alone, so the offered load of a run is known before
    the run starts and does not depend on how the system behaves.
    """
    rng = random.Random(seed)
    due = start
    times = []
    while True:
        due += rng.expovariate(rate)
        if due >= stop:
            return tuple(times)
        times.append(due)


class BenchClient:
    """Closed-loop or paced load generator aimed at one replica.

    Args:
        node_id: this client's node id.
        target: replica the bundles are sent to.
        bundle_size: requests per bundle.
        payload_size: bytes per request.
        window: closed mode — bundles kept outstanding.
        schedule: paced mode — due times on the host clock, ascending;
            an empty schedule selects closed mode.
        stop_at: closed mode submits no new bundle at or after this host
            time (the paced schedule simply ends).
    """

    def __init__(self, node_id: int, target: int, bundle_size: int,
                 payload_size: int, window: int = 0,
                 schedule: Sequence[float] = (),
                 stop_at: float = float("inf")) -> None:
        if bool(window) == bool(schedule):
            raise ValueError("give a closed-loop window or a paced schedule")
        self.node_id = node_id
        self.target = target
        self.bundle_size = bundle_size
        self.payload_size = payload_size
        self.window = window
        self.schedule = tuple(schedule)
        self.stop_at = stop_at
        #: Per bundle, indexed by ``bundle_id - 1``: when it was due,
        #: when it was handed to the host, and when its last request was
        #: acknowledged (``None`` until then).
        self.due_at: list[float] = []
        self.sent_at: list[float] = []
        self.acked_at: list[float | None] = []
        self._remaining: dict[int, int] = {}
        self.acked_requests = 0

    @property
    def paced(self) -> bool:
        return bool(self.schedule)

    @property
    def outstanding(self) -> int:
        """Bundles sent and not yet fully acknowledged."""
        return len(self._remaining)

    def start(self, now: float) -> list[Effect]:
        if self.paced:
            return [SetTimer("due", max(0.0, self.schedule[0] - now))]
        return [self._submit(now, now) for _ in range(self.window)]

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        """Paced mode: send every bundle that has come due, then re-arm
        against the schedule (never relative to ``now``)."""
        if key != "due":
            return []
        schedule = self.schedule
        effects: list[Effect] = []
        index = len(self.due_at)
        while index < len(schedule) and schedule[index] <= now:
            effects.append(self._submit(schedule[index], now))
            index += 1
        if index < len(schedule):
            effects.append(SetTimer("due", max(0.0, schedule[index] - now)))
        return effects

    def on_message(self, sender: int, msg, now: float) -> list[Effect]:
        """Absorb an ack span; closed mode refills the window."""
        if not isinstance(msg, Ack):
            return []
        self.acked_requests += msg.count
        remaining = self._remaining.get(msg.bundle_id)
        if remaining is None:
            return []  # duplicate ack of a finished bundle
        remaining -= msg.count
        if remaining > 0:
            self._remaining[msg.bundle_id] = remaining
            return []
        del self._remaining[msg.bundle_id]
        self.acked_at[msg.bundle_id - 1] = now
        if self.paced or now >= self.stop_at:
            return []
        return [self._submit(now, now)]

    def _submit(self, due: float, now: float) -> Send:
        bundle_id = len(self.due_at) + 1
        self.due_at.append(due)
        self.sent_at.append(now)
        self.acked_at.append(None)
        self._remaining[bundle_id] = self.bundle_size
        return Send(self.target, RequestBundle(
            self.node_id, bundle_id, self.bundle_size, self.payload_size,
            due))
