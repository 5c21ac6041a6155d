"""Deterministic discrete-event engine: a calendar queue with a slab tier.

Every entry is a ``(time, sequence, callback, arg)`` tuple.  The
``sequence`` tiebreaker makes execution order fully deterministic for equal
timestamps, which in turn makes every experiment in this repository
reproducible bit-for-bit from its seed (DESIGN.md §5).

:class:`EventQueue` is a two-tier calendar/ladder queue plus a slab tier:

* a rotating ring of fixed-width time buckets covers the near horizon
  (``bucket_width`` is sized from the NIC serialization quantum).
  Inserts into the ring are O(1) appends; a bucket is ordered lazily —
  one Timsort pass — only when the clock enters it, and drains through
  an index pointer with no heap discipline at all;
* an overflow heap stages far-future events (timers, view-change
  alarms, pre-GST delays) that migrate into the ring as the horizon
  advances;
* a broadcast's whole arrival vector enters as one pre-sorted *slab*
  (:meth:`EventQueue.schedule_fanout`) that the run loop merges against
  the bucket tier, so no per-arrival entry is ever built or inserted.

Determinism argument: bucket ``k`` covers the half-open interval
``[k·w, (k+1)·w)``, so every entry in bucket ``k`` precedes every entry
in bucket ``k+1``; within a bucket, entries are sorted by the global
``(time, sequence)`` key; overflow entries migrate into the ring strictly
before the cursor reaches their bucket; and the run loop always executes
the ``(time, sequence)`` minimum over the bucket tier and the slab heads.
Concatenating per-bucket order over the bucket sequence is therefore
exactly the global ``(time, sequence)`` order a single binary heap would
produce — ``tests/sim/test_queue_equivalence.py`` checks that against a
minimal heap oracle on randomized programs and full Leopard runs.

Two allocation-control mechanisms keep the engine out of the profile at
paper scale (n = 300–1000, where one broadcast is ~n-1 events):

* **Payload-carrying entries**: every entry carries an optional argument
  for its callback (:meth:`EventQueue.schedule_call` and the unchecked
  hot-path :meth:`EventQueue.push`), so hot paths enqueue a *shared*
  bound method plus a small payload instead of binding a fresh closure
  per event.
* **Typed event records** (:class:`EventRecord`): per-transmission state
  lives in one ``__slots__`` record whose bound methods are the queue
  callbacks — a broadcast allocates one record for all n-1 copies.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush, heapreplace
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError, SimulationError

#: Sentinel marking an entry whose callback takes no argument.
_NO_ARG = object()

#: How far before ``now`` a timestamp may land and still be *clamped* to
#: ``now`` instead of rejected.  Float accumulation along the vectorized
#: egress ramp (``start + per_copy * ramp``) can round an arrival a few
#: ulps below the clock when the first copy's departure is re-derived
#: through a different association order; 1 ns of simulated time is far
#: below every modelled delay (propagation is ~1 ms) yet many orders of
#: magnitude above ulp noise, so clamping inside this band is physically
#: meaningless while anything beyond it is a real scheduling bug.
LATE_TOLERANCE = 1e-9

#: Default calendar bucket width in seconds.  Sized around the NIC
#: serialization quantum at paper defaults (one ~256 KB datablock copy
#: serializes in ~340 µs at 6 Gbps effective): a bucket must be narrow
#: enough that a message's *follow-on* events (rx completion + CPU-lane
#: occupancy) land in a later bucket, keeping the running bucket
#: append-only while it drains.
DEFAULT_BUCKET_WIDTH = 2.5e-4

#: Simulated seconds the bucket ring should span when ``bucket_count``
#: is not given: ``count = clamp(HORIZON / width, 256, 65536)``.  Sized
#: to cover the NIC egress backlog a saturating workload builds up (the
#: cumsum ramps push arrivals several simulated seconds ahead), so those
#: arrivals are cheap ring appends rather than overflow-heap round
#: trips.  Anything beyond the ring (protocol timers, view-change
#: alarms, pre-GST adversarial deliveries) stages in the overflow heap
#: and migrates in as the horizon advances.
DEFAULT_HORIZON = 8.0


class EventRecord:
    """Base class for typed, allocation-light event payloads.

    Subclasses declare ``__slots__`` for their state; their bound methods
    (or the instance itself, via ``__call__``) go into the queue where a
    closure would otherwise be allocated.  The queue never compares
    callbacks (the sequence number always breaks timestamp ties first),
    so records need no ordering methods.
    """

    __slots__ = ()


class EventQueue:
    """The discrete-event scheduler: bucket ring + overflow heap + slabs.

    Structure (see the module docstring for the determinism argument):

    * ``_buckets`` — ring of ``bucket_count`` append-only lists; the
      absolute bucket of a timestamp is ``int(t / width)``, mapping to
      slot ``b % bucket_count``.  The ring covers absolute buckets
      ``(_cur_abs, _horizon_abs)``; scalar inserts are plain appends
      with **no ordering discipline at insert time**.
    * ``_current`` — the bucket the cursor is in, as an *ascending*
      ``(time, seq)`` list drained by an index pointer (``_cur_pos``) —
      O(1) per event, no heap sift, no element shifting.  The list is
      Timsort-ed once when the clock enters the bucket; since appends
      arrive in near-time-order, that sort mostly degenerates to a
      single verify pass.  The rare insert *into* the already-running
      bucket (a CPU lane completing within the same bucket) is a
      C-level ``bisect.insort`` bounded below by the drain pointer.
    * ``_overflow`` — heap of events at or beyond the horizon (protocol
      timers, view-change alarms, pre-GST deliveries).  Whenever the
      cursor advances the horizon follows, and ripe overflow entries
      migrate into the ring — always strictly before the clock can
      reach their bucket.
    * ``_slabs`` — heap of live broadcast fan-outs, one pre-sorted
      arrival vector each, keyed by their next ``(time, seq)``.
    """

    __slots__ = ("_sequence", "_now", "_processed", "_late_clamped",
                 "_max_pending", "_width", "_inv_width", "_count",
                 "_buckets", "_ring_count", "_cur_abs", "_horizon_abs",
                 "_current", "_cur_pos", "_overflow", "_slabs",
                 "_slab_pending", "_bucket_loads", "_bucket_events",
                 "_fanout_slabs", "_overflow_migrated")

    def __init__(self, bucket_width: float | None = None,
                 bucket_count: int | None = None) -> None:
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._late_clamped = 0
        self._max_pending = 0
        width = DEFAULT_BUCKET_WIDTH if bucket_width is None \
            else float(bucket_width)
        if width <= 0:
            raise ConfigError("bucket_width must be positive")
        if bucket_count is None:
            # Cover DEFAULT_HORIZON of simulated time, within bounds that
            # keep both the ring scan and its memory footprint trivial.
            count = int(round(DEFAULT_HORIZON / width))
            count = min(65536, max(256, count))
        else:
            count = int(bucket_count)
            if count < 2:
                raise ConfigError("bucket_count must be at least 2")
        self._width = width
        self._inv_width = 1.0 / width
        self._count = count
        self._buckets: list[list] = [[] for _ in range(count)]
        self._ring_count = 0
        self._cur_abs = 0
        self._horizon_abs = count
        #: Ascending entries of the bucket being drained; entries before
        #: ``_cur_pos`` have executed.
        self._current: list = []
        self._cur_pos = 0
        self._overflow: list = []
        #: Heap of ``(next_time, next_seq, slab)`` for live broadcast
        #: slabs; a slab is ``[index, times, seqs, callback, args, base]``
        #: (``seqs is None`` when sequence numbers are ``base + index``).
        self._slabs: list = []
        self._slab_pending = 0
        self._bucket_loads = 0
        self._bucket_events = 0
        self._fanout_slabs = 0
        self._overflow_migrated = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def late_clamped(self) -> int:
        """Events whose timestamp was clamped up to ``now`` (ulp noise)."""
        return self._late_clamped

    @property
    def pending(self) -> int:
        """Number of events not yet executed."""
        return (len(self._current) - self._cur_pos + self._ring_count
                + len(self._overflow) + self._slab_pending)

    def occupancy(self) -> dict:
        """Queue-occupancy counters for the run report (sampled).

        ``max_pending`` is a high-water mark sampled at bulk-insert and
        run boundaries, not per push.
        """
        return {
            "backend": "calendar",
            "pending": self.pending,
            "max_pending": self._max_pending,
            "late_clamped": self._late_clamped,
            "bucket_width": self._width,
            "bucket_count": self._count,
            "bucket_loads": self._bucket_loads,
            "bucket_events": self._bucket_events,
            "fanout_slabs": self._fanout_slabs,
            "active_slabs": len(self._slabs),
            "slab_pending": self._slab_pending,
            "overflow_migrated": self._overflow_migrated,
            # The frozen benchmark ledger reads this schema-6 key by name.
            "wave_events": 0,
        }

    # -- inserts --------------------------------------------------------

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        self.schedule(self._now + delay, callback)

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule zero-argument ``callback`` at absolute time ``when``.

        Raises:
            SimulationError: if ``when`` is in the past by more than
                :data:`LATE_TOLERANCE` (timestamps inside the tolerance
                band are clamped to ``now`` and counted).
        """
        self.push(when, callback, _NO_ARG)

    def schedule_call(self, when: float, callback: Callable,
                      arg: object) -> None:
        """Schedule ``callback(arg)`` at absolute time ``when``.

        The allocation-light sibling of :meth:`schedule`: the payload
        rides in the queue entry itself, so hot paths pass a shared bound
        method plus an argument instead of binding a closure per event.

        Raises:
            SimulationError: as :meth:`schedule`.
        """
        self.push(when, callback, arg)

    def _late(self, when: float) -> float:
        """Clamp a barely-late timestamp to ``now``, or reject it."""
        now = self._now
        if now - when <= LATE_TOLERANCE:
            self._late_clamped += 1
            return now
        raise SimulationError(
            f"cannot schedule event at {when} before now={now}")

    def _place(self, entry: tuple) -> None:
        """Route one validated entry to the tier its bucket falls in."""
        b = int(entry[0] * self._inv_width)
        if b > self._cur_abs:
            if b < self._horizon_abs:
                self._buckets[b % self._count].append(entry)
                self._ring_count += 1
            else:
                heappush(self._overflow, entry)
        else:
            # The cursor's own bucket (or, after the cursor fast-forwards
            # past empty buckets, anything up to it): splice into the
            # not-yet-drained suffix so ordering never depends on the
            # bucket map.
            insort(self._current, entry, self._cur_pos)

    def push(self, when: float, callback: Callable, arg: object) -> None:
        """Unchecked-fast-path insert shared by all scalar scheduling.

        The body is :meth:`_place` inlined — this is the hottest call in
        a simulation (one per rx/CPU completion and per timer re-arm),
        and the extra frame costs ~15% of the scheduler budget at
        n = 300 saturation.  Keep the two in sync.
        """
        if when < self._now:
            when = self._late(when)
        sequence = self._sequence + 1
        self._sequence = sequence
        entry = (when, sequence, callback, arg)
        b = int(when * self._inv_width)
        if b > self._cur_abs:
            if b < self._horizon_abs:
                self._buckets[b % self._count].append(entry)
                self._ring_count += 1
            else:
                heappush(self._overflow, entry)
        else:
            insort(self._current, entry, self._cur_pos)

    def schedule_fanout(self, times: Sequence[float], callback: Callable,
                        args: Sequence) -> int:
        """Schedule ``callback(args[i])`` at ``times[i]`` as one slab.

        The broadcast fast path: the cumsum egress ramp hands the whole
        arrival vector over as one numpy array, and the *entire
        broadcast* becomes a single slab — ``(times, args)`` plus a
        reserved block of sequence numbers — registered in the slab tier
        with one heap push.  No per-arrival entry tuple is ever
        materialised and no per-arrival insert happens at all; the run
        loop merges the slab tier against the bucket tier by the global
        ``(time, sequence)`` key, so execution order is identical to
        ``push``-ing every arrival in index order.

        Egress ramps usually arrive already sorted; when jitter breaks
        monotonicity a single stable argsort restores it with ties in
        fan-out order (sequence numbers follow the original index, so
        the ``(time, sequence)`` total order is unchanged).

        Raises:
            SimulationError: if any time is in the past beyond the clamp
                tolerance (nothing is scheduled).
        """
        count = len(times)
        if count == 0:
            return 0
        if count < 4:
            # Tiny fan-outs (retrieval subsets, unit tests): scalar
            # pushes in index order assign the same sequence numbers.
            # Validate first — a too-late timestamp must reject the whole
            # batch with nothing scheduled, as on every fanout path.
            if min(times) < self._now - LATE_TOLERANCE:
                raise SimulationError(
                    f"cannot schedule event at {min(times)} before "
                    f"now={self._now}")
            for when, arg in zip(times, args):
                self.push(float(when), callback, arg)
            return count
        now = self._now
        arr = np.asarray(times, dtype=np.float64)
        low = float(arr.min())
        if low < now:
            if now - low > LATE_TOLERANCE:
                raise SimulationError(
                    f"cannot schedule event at {low} before now={now}")
            late = arr < now
            self._late_clamped += int(late.sum())
            arr = np.where(late, now, arr)
        sequence = self._sequence
        self._sequence = sequence + count
        base = sequence + 1
        if arr[-1] >= arr[0] and not (arr[1:] < arr[:-1]).any():
            slab = [0, arr.tolist(), None, callback, args, base]
            head_seq = base
        else:
            order = np.argsort(arr, kind="stable")
            order_list = order.tolist()
            seqs = (order + base).tolist()
            slab = [0, arr[order].tolist(), seqs, callback,
                    [args[i] for i in order_list], base]
            head_seq = seqs[0]
        heappush(self._slabs, (slab[1][0], head_seq, slab))
        self._slab_pending += count
        self._fanout_slabs += 1
        pend = self.pending
        if pend > self._max_pending:
            self._max_pending = pend
        return count

    # -- the run loop ---------------------------------------------------

    def _migrate(self) -> None:
        """Move ripe overflow entries into the (just widened) ring."""
        overflow = self._overflow
        inv_width = self._inv_width
        horizon = self._horizon_abs
        place = self._place
        moved = 0
        # Popping in ascending time order keeps per-bucket appends sorted.
        # Entries here satisfy b < horizon by the loop condition, so
        # _place routes them to the ring (or the cursor's own bucket).
        while overflow and overflow[0][0] * inv_width < horizon:
            place(heappop(overflow))
            moved += 1
        self._overflow_migrated += moved

    def _advance(self, deadline: float) -> bool:
        """Step the cursor to the next populated bucket and load it.

        Returns True when ``_current`` holds undrained events again,
        False when nothing pending can execute at or before ``deadline``.
        """
        count = self._count
        buckets = self._buckets
        while True:
            if self._ring_count == 0:
                overflow = self._overflow
                if not overflow:
                    self._current = []
                    self._cur_pos = 0
                    return False
                first = overflow[0][0]
                if first > deadline:
                    self._current = []
                    self._cur_pos = 0
                    return False
                # The ring is empty: fast-forward the window so the first
                # far-future event's bucket sits just inside it, then let
                # migration repopulate the ring.
                b = int(first * self._inv_width)
                if b - 1 > self._cur_abs:
                    self._horizon_abs += b - 1 - self._cur_abs
                    self._cur_abs = b - 1
                self._cur_abs += 1
                self._horizon_abs += 1
                self._migrate()
                slot = self._cur_abs % count
                if not buckets[slot]:
                    # Migration routed the ripe entries into the cursor's
                    # own bucket (b <= cur_abs) rather than a ring slot.
                    if self._cur_pos < len(self._current):
                        return True
                    continue
            else:
                cur = self._cur_abs
                for step in range(1, count + 1):
                    slot = (cur + step) % count
                    if buckets[slot]:
                        break
                self._cur_abs = cur + step
                self._horizon_abs += step
                overflow = self._overflow
                if overflow and (overflow[0][0] * self._inv_width
                                 < self._horizon_abs):
                    self._migrate()
            bucket = buckets[slot]
            buckets[slot] = []
            self._ring_count -= len(bucket)
            self._bucket_loads += 1
            self._bucket_events += len(bucket)
            if self._cur_pos < len(self._current):
                # Rare: migration deposited entries for the cursor's own
                # bucket before the load — merge with the undrained tail.
                merged = self._current[self._cur_pos:]
                merged.extend(bucket)
                merged.sort()
                self._current = merged
            else:
                # Timsort exploits the existing runs: appends that
                # arrived in time order verify in one pass.
                bucket.sort()
                self._current = bucket
            self._cur_pos = 0
            return True

    def run_until(self, deadline: float, max_events: int | None = None
                  ) -> int:
        """Run events with timestamps ``<= deadline``.

        Args:
            deadline: simulated time to stop at (the clock is advanced to
                ``deadline`` even if the queue drains earlier).
            max_events: optional hard cap on events executed, as a runaway
                guard for property tests.

        Returns:
            Number of events executed during this call.
        """
        return self._run(deadline, max_events, True)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains (bounded by ``max_events``).

        The clock is left at the last executed event.
        """
        return self._run(float("inf"), max_events, False)

    def _run(self, deadline: float, max_events: int | None,
             advance_clock: bool) -> int:
        """The two-tier merge loop: bucket tier × slab tier.

        Each iteration executes the global ``(time, sequence)`` minimum
        over the scalar tier (the current bucket, the ring, overflow)
        and the slab tier (live broadcast fan-outs).  Popping a slab
        event is an index bump plus one C ``heapreplace`` keyed by the
        slab's next ``(time, seq)``; scalar entries drain through the
        bucket index pointer.
        """
        executed = 0
        no_arg = _NO_ARG
        slabs = self._slabs
        pend = self.pending
        if pend > self._max_pending:
            self._max_pending = pend
        while True:
            current = self._current
            pos = self._cur_pos
            use_slab = False
            if pos < len(current):
                entry = current[pos]
                when = entry[0]
                if slabs:
                    shead = slabs[0]
                    s_when = shead[0]
                    if s_when < when or (s_when == when
                                         and shead[1] < entry[1]):
                        use_slab = True
                        when = s_when
            elif slabs:
                # The current bucket is drained; the next ring bucket
                # could still precede the slab head, so load it first.
                # (_advance returning False leaves the scalar tier empty
                # — both False paths reset ``_current``.)
                if self._advance(deadline):
                    continue
                shead = slabs[0]
                use_slab = True
                when = shead[0]
            else:
                if self._advance(deadline):
                    continue
                if advance_clock and self._now < deadline:
                    self._now = deadline
                return executed
            if when > deadline:
                if advance_clock and self._now < deadline:
                    self._now = deadline
                return executed
            if max_events is not None and executed >= max_events:
                return executed
            self._now = when
            self._processed += 1
            executed += 1
            if use_slab:
                slab = shead[2]
                index = slab[0]
                arg = slab[4][index]
                index += 1
                slab[0] = index
                times = slab[1]
                if index < len(times):
                    seqs = slab[2]
                    heapreplace(
                        slabs,
                        (times[index],
                         slab[5] + index if seqs is None else seqs[index],
                         slab))
                else:
                    heappop(slabs)
                self._slab_pending -= 1
                slab[3](arg)
            else:
                self._cur_pos = pos + 1
                arg = entry[3]
                if arg is no_arg:
                    entry[2]()
                else:
                    entry[2](arg)
