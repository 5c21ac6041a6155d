"""Deterministic discrete-event engine with selectable scheduler backends.

Every entry is a ``(time, sequence, callback, arg)`` tuple.  The
``sequence`` tiebreaker makes execution order fully deterministic for equal
timestamps, which in turn makes every experiment in this repository
reproducible bit-for-bit from its seed (DESIGN.md §5).  Two backends
implement the same contract and execute *identical* event sequences (same
callbacks, same timestamps, same tiebreaks — property-tested in
``tests/sim/test_queue_equivalence.py``):

* ``backend="heap"`` — a single binary heap, the measured reference
  engine.  At paper-scale saturation (n = 300) the heap holds ~65k
  pending arrivals, so every push/pop pair pays ``log(65k)`` tuple
  comparisons.
* ``backend="calendar"`` (default) — a two-tier calendar/ladder queue:
  a rotating ring of fixed-width time buckets covers the near horizon
  (``bucket_width`` is sized from the NIC serialization quantum), and
  an overflow heap stages far-future events (timers, view-change
  alarms, pre-GST delays) that migrate into the ring as the horizon
  advances.  Inserts into the ring are O(1) appends; a bucket is
  ordered lazily — one Timsort pass — only when the clock enters it,
  and drains through an index pointer with no heap discipline at all.
  A broadcast's coalesced arrival slab (see
  :meth:`CalendarEventQueue.schedule_fanout`) enters pre-sorted, so its
  lazy sort degenerates to a single verify pass.

Determinism argument for the calendar backend: bucket ``k`` covers the
half-open interval ``[k·w, (k+1)·w)``, so every entry in bucket ``k``
precedes every entry in bucket ``k+1``; within a bucket, entries are
ordered by the same global ``(time, sequence)`` key the heap uses; and
overflow entries migrate into the ring strictly before the cursor reaches
their bucket.  Concatenating per-bucket order over the bucket sequence is
therefore exactly the global ``(time, sequence)`` order.

Three allocation-control mechanisms keep the engine out of the profile at
paper scale (n = 300–1000, where one broadcast is ~n-1 events):

* **Payload-carrying entries**: every entry carries an optional argument
  for its callback (:meth:`EventQueue.schedule_call` and the unchecked
  hot-path :meth:`EventQueue.push`), so hot paths enqueue a *shared*
  bound method plus a small payload instead of binding a fresh closure
  per event.
* **Typed event records** (:class:`EventRecord`): per-transmission state
  lives in one ``__slots__`` record whose bound methods are the queue
  callbacks — a broadcast allocates one record for all n-1 copies.
* **Bulk scheduling** (:meth:`EventQueue.schedule_fanout` /
  :meth:`EventQueue.schedule_many`): a multicast enqueues all its
  arrival events in one call; the calendar backend slices the already
  cumsum-sorted arrival slab into per-bucket segments with zero
  per-event Python work.

On top of the two scalar tiers the calendar backend optionally runs a
**wave tier** (:meth:`CalendarEventQueue.schedule_wave`, opt-in via
``waves=True`` / :func:`set_default_waves`): broadcast fan-outs and
their follow-on delivery chains register as *streams* — pre-sorted
arrival slabs, per-(node, lane) monotone FIFO deques, and single
jittered-unicast entries — merged tournament-style through one head
heap keyed by the same global ``(time, sequence)`` order.  The run
loop drains a maximal run of consecutive wave micro-events (bounded
strictly below every visible scalar candidate and below the first
unloaded ring bucket, re-checked per micro-event) and counts the whole
run as **one** processed event.  Every micro-event still executes at
its exact timestamp with its exact sequence number, so a wave-enabled
run is event-for-event identical to the scalar engine — same RNG draw
order, same stats, byte-identical reports — and only the
queue-internal counters (``processed``, the ``event_queue`` report
section) differ.  See ``README.md`` ("Event engine") for the
eligibility and fallback rules.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from collections import deque
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from typing import Callable, Hashable, Iterable, Sequence

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

#: Backend chosen by ``EventQueue()`` when none is requested (see
#: :func:`set_default_backend`).
DEFAULT_BACKEND = "calendar"

#: Whether ``EventQueue()`` enables the wave-aggregation tier when the
#: caller passes ``waves=None`` (see :func:`set_default_waves`).  Off by
#: default: wave runs collapse many micro-events into one *processed*
#: event, so ``events_processed`` is no longer comparable with the
#: scalar engines (everything else in a run report stays byte-identical).
DEFAULT_WAVES = False

#: Runaway guard: a single wave run drains at most this many
#: micro-events before handing control back to the scalar merge loop
#: (the run counter and ``max_events`` stay meaningful for self-feeding
#: streams under ``run_until_idle``).
WAVE_RUN_CAP = 4096

#: Simulated-seconds window a slab-merge round coalesces.  When many
#: concurrent broadcast ramps interleave (saturated all-to-all traffic),
#: per-slab batches degenerate to one element each; a merge round
#: extracts every mergeable slab's prefix up to ``now + WINDOW`` into
#: one combined slab so the drain loop batches across broadcasts.  The
#: window bounds how often an element can be re-merged (a merged slab's
#: remainder may join a later round), keeping merge work O(log) per
#: element; ~16 default buckets ≈ a couple dozen arrivals per ramp.
WAVE_MERGE_WINDOW = 4e-3

_INF = float("inf")

#: ``slab[6]`` marker for a slab produced by :meth:`_merge_slabs`:
#: its ``args`` are already ``(single_callback, arg)`` pairs.
_MERGED = object()

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


def set_default_backend(backend: str) -> None:
    """Select the backend ``EventQueue()`` constructs by default.

    The harness CLI's ``--queue-backend`` flag routes here so whole
    experiment grids can be replayed on the reference heap engine.
    """
    global DEFAULT_BACKEND
    if backend not in _BACKENDS:
        raise ConfigError(
            f"unknown event-queue backend {backend!r}; "
            f"choose from {sorted(_BACKENDS)}")
    DEFAULT_BACKEND = backend


def set_default_waves(enabled: bool) -> None:
    """Select whether ``EventQueue(waves=None)`` enables the wave tier.

    The harness CLI's ``--waves`` flag routes here so whole experiment
    grids can run wave-aggregated without threading a parameter through
    every builder.  Only the calendar backend honours it; the heap
    reference engine ignores the default (and rejects an explicit
    ``waves=True``).
    """
    global DEFAULT_WAVES
    DEFAULT_WAVES = bool(enabled)


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
    """A minimal, fast discrete-event scheduler (backend factory).

    ``EventQueue(backend="heap")`` returns the binary-heap reference
    engine, ``EventQueue(backend="calendar")`` the two-tier calendar
    queue; with no backend argument the process-wide default applies
    (:func:`set_default_backend`).  Both expose one API, so hosts and
    the network model stay backend-agnostic.
    """

    #: Name reported by :meth:`occupancy` (overridden per backend).
    backend = "abstract"

    #: Whether the wave-aggregation tier is active.  Class attribute so
    #: scalar backends answer ``False`` with no per-instance state; the
    #: calendar backend shadows it with an instance flag.
    wave_enabled = False

    __slots__ = ("_sequence", "_now", "_processed", "_late_clamped",
                 "_max_pending")

    def __new__(cls, backend: str | None = None, **kwargs):
        if cls is EventQueue:
            name = DEFAULT_BACKEND if backend is None else backend
            try:
                cls = _BACKENDS[name]
            except KeyError:
                raise ConfigError(
                    f"unknown event-queue backend {name!r}; "
                    f"choose from {sorted(_BACKENDS)}") from None
        return object.__new__(cls)

    def __init__(self, backend: str | None = None, **kwargs) -> None:
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._late_clamped = 0
        self._max_pending = 0

    # -- shared surface -------------------------------------------------

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

    def set_waves(self, enabled: bool) -> None:
        """Enable or disable the wave-aggregation tier.

        The scalar backends have no wave tier: disabling is a no-op,
        enabling raises.
        """
        if enabled:
            raise ConfigError(
                f"wave aggregation requires the calendar backend "
                f"(this queue is {self.backend!r})")

    def occupancy(self) -> dict:
        """Queue-occupancy counters for the run report (sampled).

        ``max_pending`` is a high-water mark sampled at bulk-insert and
        run boundaries, not per push.  Calendar-specific counters are
        ``None``/0 on the heap backend so both emit identical keys.
        """
        return {
            "backend": self.backend,
            "pending": self.pending,
            "max_pending": self._max_pending,
            "late_clamped": self._late_clamped,
            "bucket_width": None,
            "bucket_count": None,
            "bucket_loads": 0,
            "bucket_events": 0,
            "fanout_slabs": 0,
            "active_slabs": 0,
            "slab_pending": 0,
            "overflow_migrated": 0,
            "waves": self.wave_enabled,
            "wave_events": 0,
            "wave_receivers": 0,
            "wave_slabs": 0,
            "wave_merges": 0,
            "wave_pending": 0,
            "scalar_fallbacks": 0,
        }


class HeapEventQueue(EventQueue):
    """The binary-heap reference backend (one global heap)."""

    backend = "heap"

    __slots__ = ("_heap",)

    def __init__(self, backend: str | None = None,
                 bucket_width: float | None = None,
                 bucket_count: int | None = None,
                 waves: bool | None = None) -> None:
        # Calendar sizing hints are accepted (and ignored) so callers can
        # thread one parameter set through either backend.  An *explicit*
        # waves=True is a configuration error (the process default is
        # ignored: the reference engine must stay runnable while waves
        # are the default elsewhere).
        super().__init__()
        if waves:
            raise ConfigError(
                "wave aggregation requires the calendar backend")
        self._heap: list[tuple[float, int, Callable, object]] = []

    @property
    def pending(self) -> int:
        """Number of events not yet executed."""
        return len(self._heap)

    def push(self, when: float, callback: Callable, arg: object) -> None:
        """Unchecked-fast-path insert shared by all scalar scheduling."""
        if when < self._now:
            when = self._late(when)
        sequence = self._sequence + 1
        self._sequence = sequence
        heappush(self._heap, (when, sequence, callback, arg))

    def _bulk_insert(self, batch: list[tuple[float, int, Callable, object]]
                     ) -> None:
        heap = self._heap
        # heapify is O(len(heap) + m); m pushes are O(m log len(heap)).
        if len(batch) > 8 and len(batch) * 10 >= len(heap):
            heap.extend(batch)
            heapq.heapify(heap)
        else:
            # Drive the push loop from C (map over the C heappush).
            deque(map(heapq.heappush, repeat(heap), batch), maxlen=0)
        if len(heap) > self._max_pending:
            self._max_pending = len(heap)

    def schedule_many(
            self,
            events: Iterable[tuple[float, Callable[[], None]]]) -> int:
        """Schedule a batch of ``(when, callback)`` events in one call.

        Sequence numbers are assigned in iteration order, so equal
        timestamps within a batch execute in the order given — identical
        to a loop of :meth:`schedule` calls.  Large batches (relative to
        the pending heap) are appended and re-heapified in one pass.

        Returns:
            Number of events scheduled.

        Raises:
            SimulationError: if any ``when`` is in the past beyond the
                clamp tolerance (no events from the batch are scheduled).
        """
        now = self._now
        sequence = self._sequence
        clamped = 0
        batch: list[tuple[float, int, Callable, object]] = []
        for when, callback in events:
            if when < now:
                if now - when > LATE_TOLERANCE:
                    raise SimulationError(
                        f"cannot schedule event at {when} before now={now}")
                when = now
                clamped += 1
            sequence += 1
            batch.append((when, sequence, callback, _NO_ARG))
        self._sequence = sequence
        self._late_clamped += clamped
        self._bulk_insert(batch)
        return len(batch)

    def schedule_fanout(self, times: Sequence[float], callback: Callable,
                        args: Sequence) -> int:
        """Schedule ``callback(args[i])`` at ``times[i]`` for every ``i``.

        The broadcast fast path: one shared callback (typically a bound
        method of an :class:`EventRecord`), one batch of timestamps, one
        batch of per-event payloads — zero per-event closures, one bulk
        heap insert.  Sequence order follows index order, so equal
        timestamps fire in fan-out order.

        Raises:
            SimulationError: if any time is in the past beyond the clamp
                tolerance (nothing is scheduled).
        """
        count = len(times)
        if count == 0:
            return 0
        if isinstance(times, np.ndarray):
            times = times.tolist()
        now = self._now
        low = min(times)
        if low < now:
            if now - low > LATE_TOLERANCE:
                raise SimulationError(
                    f"cannot schedule event at {low} before now={now}")
            self._late_clamped += sum(1 for t in times if t < now)
            times = [t if t >= now else now for t in times]
        sequence = self._sequence
        # zip builds the heap entries entirely in C.
        batch = list(zip(times, range(sequence + 1, sequence + 1 + count),
                         repeat(callback), args))
        self._sequence = sequence + count
        self._bulk_insert(batch)
        return count

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
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        no_arg = _NO_ARG
        if len(heap) > self._max_pending:
            self._max_pending = len(heap)
        while heap and heap[0][0] <= deadline:
            if max_events is not None and executed >= max_events:
                break
            when, _, callback, arg = pop(heap)
            self._now = when
            self._processed += 1
            executed += 1
            if arg is no_arg:
                callback()
            else:
                callback(arg)
        if not heap or heap[0][0] > deadline:
            self._now = max(self._now, deadline)
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains (bounded by ``max_events``)."""
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        no_arg = _NO_ARG
        if len(heap) > self._max_pending:
            self._max_pending = len(heap)
        while heap and executed < max_events:
            when, _, callback, arg = pop(heap)
            self._now = when
            self._processed += 1
            executed += 1
            if arg is no_arg:
                callback()
            else:
                callback(arg)
        return executed


class CalendarEventQueue(EventQueue):
    """Two-tier calendar/ladder backend: bucket ring + overflow heap.

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
      arrive in near-time-order (and coalesced broadcast slabs arrive
      fully sorted), that sort mostly degenerates to a single verify
      pass.  The rare insert *into* the already-running bucket (a CPU
      lane completing within the same bucket) is a C-level
      ``bisect.insort`` bounded below by the drain pointer.
    * ``_overflow`` — heap of events at or beyond the horizon (protocol
      timers, view-change alarms, pre-GST deliveries).  Whenever the
      cursor advances the horizon follows, and ripe overflow entries
      migrate into the ring — always strictly before the clock can
      reach their bucket.
    * ``_waves`` — the opt-in wave tier (``waves=True``): a head heap of
      ``(time, seq, kind, stream...)`` entries merging broadcast-arrival
      slabs (kind 0, drained as batch segments), per-(node, lane)
      monotone FIFO deques (kind 1, delivery continuations) and single
      jittered-unicast entries (kind 2).  A maximal drained run counts
      as one processed event; see :meth:`_drain_waves` for the
      exactness bound.
    """

    backend = "calendar"

    __slots__ = ("_width", "_inv_width", "_count", "_buckets",
                 "_ring_count", "_cur_abs", "_horizon_abs", "_current",
                 "_cur_pos", "_overflow", "_slabs", "_slab_pending",
                 "_bucket_loads", "_bucket_events", "_fanout_slabs",
                 "_overflow_migrated", "_epoch", "wave_enabled", "_waves",
                 "_wave_streams", "_wave_pending", "_wave_events",
                 "_wave_receivers", "_wave_slabs", "_wave_merges",
                 "_merge_at", "_scalar_fallbacks")

    def __init__(self, backend: str | None = None,
                 bucket_width: float | None = None,
                 bucket_count: int | None = None,
                 waves: bool | None = None) -> None:
        super().__init__()
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
        #: Scalar-insert epoch: bumped by every insert into a scalar
        #: tier (``push``/``_place``/``schedule_fanout``) so the wave
        #: drain loop can cache its scalar time bound between
        #: micro-events and only recompute after a real mutation.
        self._epoch = 0
        self.wave_enabled = DEFAULT_WAVES if waves is None else bool(waves)
        #: Head heap of the wave tier: ``(time, seq, 0, slab)`` for
        #: broadcast slabs, ``(time, seq, 1, deque)`` for per-(node,
        #: lane) FIFO streams, ``(time, seq, 2, callback, arg)`` for
        #: single entries.  Sequence numbers are globally unique, so the
        #: heap never compares past index 1.
        self._waves: list = []
        self._wave_streams: dict[Hashable, deque] = {}
        self._wave_pending = 0
        self._wave_events = 0
        self._wave_receivers = 0
        self._wave_slabs = 0
        self._wave_merges = 0
        self._merge_at = -_INF
        self._scalar_fallbacks = 0

    def set_waves(self, enabled: bool) -> None:
        """Enable or disable the wave-aggregation tier (idempotent)."""
        self.wave_enabled = bool(enabled)

    @property
    def pending(self) -> int:
        """Number of events not yet executed.

        Wave-tier entries are included, so occupancy samples (e.g. the
        time-series ``queue_depth``) are identical with waves on or off.
        """
        return (len(self._current) - self._cur_pos + self._ring_count
                + len(self._overflow) + self._slab_pending
                + self._wave_pending)

    def occupancy(self) -> dict:
        report = super().occupancy()
        report.update(
            bucket_width=self._width,
            bucket_count=self._count,
            bucket_loads=self._bucket_loads,
            bucket_events=self._bucket_events,
            fanout_slabs=self._fanout_slabs,
            active_slabs=len(self._slabs),
            slab_pending=self._slab_pending,
            overflow_migrated=self._overflow_migrated,
            waves=self.wave_enabled,
            wave_events=self._wave_events,
            wave_receivers=self._wave_receivers,
            wave_slabs=self._wave_slabs,
            wave_merges=self._wave_merges,
            wave_pending=self._wave_pending,
            scalar_fallbacks=self._scalar_fallbacks,
        )
        return report

    # -- inserts --------------------------------------------------------

    def _place(self, entry: tuple) -> None:
        """Route one validated entry to the tier its bucket falls in."""
        self._epoch += 1
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
        self._epoch += 1
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

    def schedule_many(
            self,
            events: Iterable[tuple[float, Callable[[], None]]]) -> int:
        """Schedule a batch of ``(when, callback)`` events in one call.

        Semantics match :meth:`HeapEventQueue.schedule_many`: sequence
        numbers follow iteration order and a too-late timestamp rejects
        the whole batch before anything is scheduled.
        """
        now = self._now
        sequence = self._sequence
        clamped = 0
        batch: list[tuple[float, int, Callable, object]] = []
        for when, callback in events:
            if when < now:
                if now - when > LATE_TOLERANCE:
                    raise SimulationError(
                        f"cannot schedule event at {when} before now={now}")
                when = now
                clamped += 1
            sequence += 1
            batch.append((when, sequence, callback, _NO_ARG))
        self._late_clamped += clamped
        self._sequence = sequence  # validated: the batch is committed
        place = self._place
        for entry in batch:
            place(entry)
        pend = self.pending
        if pend > self._max_pending:
            self._max_pending = pend
        return len(batch)

    def schedule_fanout(self, times: Sequence[float], callback: Callable,
                        args: Sequence) -> int:
        """Coalesce a multicast's arrivals into one pre-sorted slab.

        This is the arrival-coalescing fast path: the cumsum egress ramp
        hands the whole arrival vector over as one numpy array, and the
        *entire broadcast* becomes a single slab — ``(times, args)``
        plus a reserved block of sequence numbers — registered in the
        slab tier with one heap push.  No per-arrival entry tuple is
        ever materialised and no per-arrival insert happens at all; the
        run loop merges the slab tier against the bucket tier by the
        same global ``(time, sequence)`` key, so execution order is
        bit-identical to the heap backend's per-entry scheduling.

        Egress ramps usually arrive already sorted; when jitter breaks
        monotonicity a single stable argsort restores it with ties in
        fan-out order (sequence numbers follow the original index, so
        the ``(time, sequence)`` total order is unchanged).
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
        self._epoch += 1
        self._slab_pending += count
        self._fanout_slabs += 1
        pend = self.pending
        if pend > self._max_pending:
            self._max_pending = pend
        return count

    # -- the wave tier --------------------------------------------------

    def schedule_wave(self, times: Sequence[float], batch_callback,
                      args: Sequence, single_callback=None) -> int:
        """Register a broadcast's arrival vector as one wave stream.

        Validation, clamping and sequence-number allocation are
        identical to :meth:`schedule_fanout` (index ``i`` always gets
        the ``i``-th reserved sequence number), so a wave-registered
        broadcast executes the exact event sequence the scalar slab
        tier would.  The difference is the calling convention at drain
        time: ``batch_callback(times, args, start, stop)`` receives a
        contiguous segment of the (sorted) wave, advances the queue
        clock element-by-element itself, and returns how many elements
        it consumed — which lets the whole segment run as part of one
        counted wave event.

        ``single_callback(args[i])`` is the one-element sibling of the
        batch callback; providing it makes the slab *mergeable*: when
        many concurrent waves interleave their arrival ramps (every
        batch degenerates to one element), the drain loop coalesces
        their near-horizon prefixes into one merged slab and dispatches
        per element through this callback (see :meth:`_merge_slabs`).
        It must return the timestamp of the follow-on wave event it
        created, or ``None`` when there is none or it fell back to the
        scalar tier.
        """
        count = len(times)
        if count == 0:
            return 0
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
        if count == 1 or (arr[-1] >= arr[0]
                          and not (arr[1:] < arr[:-1]).any()):
            slab = [0, arr.tolist(), None, batch_callback, args, base,
                    single_callback]
            head_seq = base
        else:
            order = np.argsort(arr, kind="stable")
            order_list = order.tolist()
            seqs = (order + base).tolist()
            slab = [0, arr[order].tolist(), seqs, batch_callback,
                    [args[i] for i in order_list], base, single_callback]
            head_seq = seqs[0]
        heappush(self._waves, (slab[1][0], head_seq, 0, slab))
        self._wave_pending += count
        self._wave_slabs += 1
        pend = self.pending
        if pend > self._max_pending:
            self._max_pending = pend
        return count

    def wave_push(self, when: float, callback: Callable, arg: object,
                  stream: Hashable) -> None:
        """Append one event to a monotone per-stream wave FIFO.

        ``stream`` keys a deque (CPU lanes use ``node_id * 2 + lane``);
        within a stream timestamps must be non-decreasing — true for
        CPU-lane completion times, which are FIFO-monotone per lane.  A
        non-monotone push routes the already-sequenced entry to the
        scalar tier instead, which preserves exact ordering at the cost
        of one scalar event.
        Only an empty stream touches the head heap, so the steady-state
        cost is one deque append.
        """
        if when < self._now:
            when = self._late(when)
        sequence = self._sequence + 1
        self._sequence = sequence
        streams = self._wave_streams
        dq = streams.get(stream)
        if dq is None:
            dq = streams[stream] = deque()
        if dq:
            if when < dq[-1][0]:
                self._scalar_fallbacks += 1
                self._place((when, sequence, callback, arg))
                return
            dq.append((when, sequence, callback, arg))
        else:
            dq.append((when, sequence, callback, arg))
            heappush(self._waves, (when, sequence, 1, dq))
        self._wave_pending += 1

    def wave_push_heap(self, when: float, callback: Callable,
                       arg: object) -> None:
        """Register one standalone wave entry (jitter-inverted unicasts).

        Per-sender unicast arrival times are *not* monotone (propagation
        jitter dominates small-message serialization), so quorum-vote
        fan-in rides the head heap directly rather than a FIFO stream.
        """
        if when < self._now:
            when = self._late(when)
        sequence = self._sequence + 1
        self._sequence = sequence
        heappush(self._waves, (when, sequence, 2, callback, arg))
        self._wave_pending += 1

    def _run_merged(self, times: list, args: tuple, start: int,
                    stop: int) -> int:
        """Batch runner for a merged slab: per-element dispatch.

        ``args`` is a ``(callbacks, payloads)`` pair of parallel lists;
        each callback reads its arrival time from the queue clock
        (stepped here) and returns its follow-on wave timestamp, or
        ``None`` when it created none — or fell back to the scalar
        tier, in which case the batch must stop so the drain loop
        re-checks its bounds.  ``min_follow`` mirrors the
        batch-callback contract: a follow-on landing strictly before
        the next element interrupts the batch (a tie goes to the
        element, whose sequence number is older).
        """
        callbacks, payloads = args
        i = start
        min_follow = _INF
        while i < stop:
            t = times[i]
            if min_follow < t:
                break
            self._now = t
            callback = callbacks[i]
            payload = payloads[i]
            i += 1
            follow = callback(payload)
            if follow is None:
                break
            if follow < min_follow:
                min_follow = follow
        return i - start

    def _merge_slabs(self, horizon: float) -> bool:
        """Coalesce every mergeable slab's prefix below ``horizon``.

        Interleave collapse: with hundreds of concurrent broadcasts
        whose egress ramps share one serialization quantum, the global
        arrival order round-robins across slabs and every per-slab
        batch stops after one element at the next slab's head.  This
        round extracts, from each slab that provided a
        ``single_callback``, the elements with ``time < horizon``,
        orders the union by the global ``(time, sequence)`` key (one
        stable lexsort), and registers it as a single merged slab whose
        runner dispatches per element — restoring long contiguous
        batches.  Every extracted element keeps its exact time and
        sequence number, so execution order is unchanged; only the
        number of competing heap heads drops.  Slab remainders re-enter
        the heap at their advanced heads (and may join a later round,
        which the window keeps rare).
        """
        waves = self._waves
        grabbed = []
        keep = []
        for entry in waves:
            if (entry[2] == 0 and entry[0] < horizon
                    and entry[3][6] is not None):
                grabbed.append(entry)
            else:
                keep.append(entry)
        if len(grabbed) < 2:
            return False
        times_parts: list = []
        seqs_parts: list = []
        callbacks: list = []
        payloads: list = []
        for entry in grabbed:
            slab = entry[3]
            times = slab[1]
            index = slab[0]
            j = bisect_left(times, horizon, index)
            seqs = slab[2]
            base = slab[5]
            times_parts.append(times[index:j])
            if seqs is None:
                seqs_parts.append(range(base + index, base + j))
            else:
                seqs_parts.append(seqs[index:j])
            single = slab[6]
            args = slab[4]
            if single is _MERGED:
                callbacks.extend(args[0][index:j])
                payloads.extend(args[1][index:j])
            else:
                callbacks.extend(repeat(single, j - index))
                payloads.extend(args[index:j])
            if j < len(times):
                slab[0] = j
                keep.append((times[j],
                             base + j if seqs is None else seqs[j],
                             0, slab))
        t = np.concatenate(
            [np.asarray(p, dtype=np.float64) for p in times_parts])
        s = np.concatenate(
            [np.fromiter(p, dtype=np.int64, count=len(p))
             for p in seqs_parts])
        order = np.lexsort((s, t))
        order_list = order.tolist()
        merged = [0, t[order].tolist(), s[order].tolist(),
                  self._run_merged,
                  ([callbacks[i] for i in order_list],
                   [payloads[i] for i in order_list]),
                  0, _MERGED]
        keep.append((merged[1][0], merged[2][0], 0, merged))
        waves[:] = keep
        heapq.heapify(waves)
        self._wave_merges += 1
        return True

    def _drain_waves(self, deadline: float) -> int:
        """Drain one maximal run of wave micro-events; return the count.

        Exactness bound: a wave micro-event may execute only while its
        ``(time, seq)`` key is strictly below every *visible* scalar
        candidate — the current bucket's next entry, the scalar slab
        head, the overflow head — and its time is strictly below the
        first unloaded ring bucket ``(cur_abs + 1) * width`` (every
        not-yet-loaded ring entry lands at or past that boundary) and at
        most ``deadline``.  The minimum candidate *time* is cached and
        revalidated against the scalar-insert epoch — callbacks can
        insert scalar work mid-run, and every insert site bumps
        ``_epoch`` — so the common case is one float compare per
        micro-event; a time tie falls into the exact per-candidate
        ``(time, seq)`` checks, where ties always yield to the scalar
        tier (conservative: sequence numbers are unique, so a tie means
        the hidden side could win).  Slab streams drain as contiguous
        batch segments under the same bound via one bisect; the batch
        callback breaks early the moment a follow-on event it created
        would precede the next element.
        """
        waves = self._waves
        micro = 0
        epoch = -1
        bound = _INF
        while waves:
            head = waves[0]
            w_when = head[0]
            if w_when > deadline:
                break
            if epoch != self._epoch:
                # (Re)compute the conservative scalar bound: the minimum
                # candidate time.  Stale-small bounds are safe — they
                # only force the exact slow path below.
                epoch = self._epoch
                bound = _INF
                if self._ring_count:
                    bound = (self._cur_abs + 1) * self._width
                current = self._current
                pos = self._cur_pos
                if pos < len(current):
                    t = current[pos][0]
                    if t < bound:
                        bound = t
                if self._overflow:
                    t = self._overflow[0][0]
                    if t < bound:
                        bound = t
                if self._slabs:
                    t = self._slabs[0][0]
                    if t < bound:
                        bound = t
            if w_when >= bound:
                # Slow path: a time tie (or stale bound) — resolve with
                # the exact (time, seq) comparisons.
                if self._ring_count \
                        and w_when >= (self._cur_abs + 1) * self._width:
                    break
                w_seq = head[1]
                current = self._current
                pos = self._cur_pos
                if pos < len(current):
                    entry = current[pos]
                    if (w_when > entry[0]
                            or (w_when == entry[0] and w_seq > entry[1])):
                        break
                overflow = self._overflow
                if overflow:
                    first = overflow[0]
                    if (w_when > first[0]
                            or (w_when == first[0] and w_seq > first[1])):
                        break
                slabs = self._slabs
                if slabs:
                    shead = slabs[0]
                    if (w_when > shead[0]
                            or (w_when == shead[0] and w_seq > shead[1])):
                        break
            if micro >= WAVE_RUN_CAP:
                break
            kind = head[2]
            if kind == 0:
                # Broadcast slab: hand over the longest contiguous
                # segment that fits under every bound (strict on times;
                # a tie re-enters through the per-entry key checks).
                # The next-best wave key is a child of the heap root, so
                # it can be peeked without popping the head.
                slab = head[3]
                times = slab[1]
                index = slab[0]
                stop_t = bound
                if len(waves) > 1:
                    nxt = waves[1][0]
                    if len(waves) > 2 and waves[2][0] < nxt:
                        nxt = waves[2][0]
                    if nxt < stop_t:
                        stop_t = nxt
                if deadline < stop_t:
                    stop = bisect_right(times, deadline, index)
                else:
                    stop = bisect_left(times, stop_t, index)
                if stop - index <= 1 and w_when >= self._merge_at:
                    # Thrash: another wave head sits within one element.
                    # Try one merge round; suppress re-scans for half a
                    # window either way so a failed attempt stays cheap.
                    self._merge_at = w_when + WAVE_MERGE_WINDOW * 0.5
                    if self._merge_slabs(w_when + WAVE_MERGE_WINDOW):
                        continue
                cap = index + WAVE_RUN_CAP - micro
                if cap < stop:
                    stop = cap
                if stop <= index:
                    # A tie landed exactly on the head (equal time,
                    # smaller head seq): run the head element alone.
                    stop = index + 1
                consumed = slab[3](times, slab[4], index, stop)
                if consumed == 0:
                    # Defensive: a batch callback must consume at least
                    # its head element; bail out rather than spin.
                    break
                micro += consumed
                self._wave_pending -= consumed
                index += consumed
                slab[0] = index
                if index < len(times):
                    seqs = slab[2]
                    heapreplace(
                        waves,
                        (times[index],
                         slab[5] + index if seqs is None else seqs[index],
                         0, slab))
                else:
                    heappop(waves)
            elif kind == 1:
                dq = head[3]
                entry = dq.popleft()
                if dq:
                    nxt = dq[0]
                    heapreplace(waves, (nxt[0], nxt[1], 1, dq))
                else:
                    heappop(waves)
                self._wave_pending -= 1
                micro += 1
                self._now = w_when
                entry[2](entry[3])
            else:
                heappop(waves)
                self._wave_pending -= 1
                micro += 1
                self._now = w_when
                head[3](head[4])
        return micro

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
                # Timsort exploits the existing runs: an adopted slab (or
                # appends that arrived in time order) verify in one pass.
                bucket.sort()
                self._current = bucket
            self._cur_pos = 0
            return True

    def run_until(self, deadline: float, max_events: int | None = None
                  ) -> int:
        """Run events with timestamps ``<= deadline`` (heap-identical)."""
        return self._run(deadline, max_events, True)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains (bounded by ``max_events``).

        The clock is left at the last executed event, as with the heap
        backend.
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
        waves = self._waves
        pend = self.pending
        if pend > self._max_pending:
            self._max_pending = pend
        while True:
            if waves and (max_events is None or executed < max_events):
                # Wave tier first: a maximal run of consecutive wave
                # micro-events (strictly below every scalar candidate)
                # counts as ONE processed event.
                micro = self._drain_waves(deadline)
                if micro:
                    self._wave_events += 1
                    self._wave_receivers += micro
                    self._processed += 1
                    executed += 1
                    continue
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


_BACKENDS: dict[str, type[EventQueue]] = {
    "heap": HeapEventQueue,
    "calendar": CalendarEventQueue,
}


