"""Shared measurement layer: byte accounting and the run-report schema.

This module is deliberately backend-neutral — it sits *below* both
execution backends so that neither imports the other's machinery for
accounting:

* :class:`NicStats` — per-node byte/message counters bucketed by message
  class.  The simulator records its modelled NIC traffic here
  (:mod:`repro.sim.network`) and the live TCP transport records real
  socket frames into the very same structure
  (:mod:`repro.net.transport`), which is what makes live and simulated
  bandwidth breakdowns line up column-for-column (paper Tables III,
  Figs. 2/11/12/13).
* :class:`MetricsCollector` — throughput / latency / phase sinks shared
  by both hosts (:class:`repro.sim.node.SimNode` and
  :class:`repro.net.node.LiveNode`).
* :func:`standard_report` — the backend-neutral run-report schema.

Message-class names are **interned** to small integer ids shared
process-wide, and each :class:`NicStats` keeps flat per-id counter arrays
instead of string-keyed dicts.  A simulated broadcast at n = 600 accounts
599 copies with one :meth:`NicStats.record_send_many` call — two array
increments — instead of 599 rounds of string hashing; the dict-shaped
views the report schema and tests consume are materialised on demand.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field

from repro.perf.counters import PerfCounters

# ---------------------------------------------------------------------------
# Message-class interning
# ---------------------------------------------------------------------------

#: Process-wide intern table: message-class name -> small dense id.
_CLASS_IDS: dict[str, int] = {}
#: Inverse table: id -> name (index == id).
_CLASS_NAMES: list[str] = []


def intern_class(name: str) -> int:
    """Return the dense integer id for a message-class name (allocating)."""
    class_id = _CLASS_IDS.get(name)
    if class_id is None:
        class_id = len(_CLASS_NAMES)
        _CLASS_IDS[name] = class_id
        _CLASS_NAMES.append(name)
    return class_id


def class_name(class_id: int) -> str:
    """The message-class name interned as ``class_id``."""
    return _CLASS_NAMES[class_id]


class NicStats:
    """Byte/message counters for one node, bucketed by message class.

    Counters are flat arrays indexed by interned class id (hot path);
    the dict-shaped ``sent_bytes`` / ``recv_bytes`` / ``sent_msgs`` /
    ``recv_msgs`` views are built on demand for reports and tests.
    """

    __slots__ = ("_sent_bytes", "_recv_bytes", "_sent_msgs", "_recv_msgs")

    def __init__(self) -> None:
        self._sent_bytes: list[int] = []
        self._sent_msgs: list[int] = []
        self._recv_bytes: list[int] = []
        self._recv_msgs: list[int] = []

    # -- recording (hot path) ------------------------------------------

    def record_send_many(self, msg_class: str, size: int,
                         count: int) -> None:
        """Account ``count`` outgoing copies of one ``size``-byte message.

        This is the broadcast fast path: one call per multicast, not one
        per destination.
        """
        class_id = _CLASS_IDS.get(msg_class)
        if class_id is None:
            class_id = intern_class(msg_class)
        sent_bytes = self._sent_bytes
        if class_id >= len(sent_bytes):
            grow = class_id + 1 - len(sent_bytes)
            sent_bytes.extend([0] * grow)
            self._sent_msgs.extend([0] * grow)
        sent_bytes[class_id] += size * count
        self._sent_msgs[class_id] += count

    def record_recv_many(self, msg_class: str, size: int,
                         count: int) -> None:
        """Account ``count`` incoming copies of one ``size``-byte message."""
        class_id = _CLASS_IDS.get(msg_class)
        if class_id is None:
            class_id = intern_class(msg_class)
        recv_bytes = self._recv_bytes
        if class_id >= len(recv_bytes):
            grow = class_id + 1 - len(recv_bytes)
            recv_bytes.extend([0] * grow)
            self._recv_msgs.extend([0] * grow)
        recv_bytes[class_id] += size * count
        self._recv_msgs[class_id] += count

    def record_send(self, msg_class: str, size: int) -> None:
        """Account one outgoing message."""
        self.record_send_many(msg_class, size, 1)

    def record_recv(self, msg_class: str, size: int) -> None:
        """Account one incoming message."""
        self.record_recv_many(msg_class, size, 1)

    def bump_recv(self, class_id: int, size: int) -> None:
        """Account one incoming message by pre-interned class id.

        The per-arrival hot path: callers that already hold the interned
        id (one :func:`intern_class` per transmission, not per copy) skip
        the string lookup entirely.
        """
        recv_bytes = self._recv_bytes
        if class_id >= len(recv_bytes):
            grow = class_id + 1 - len(recv_bytes)
            recv_bytes.extend([0] * grow)
            self._recv_msgs.extend([0] * grow)
        recv_bytes[class_id] += size
        self._recv_msgs[class_id] += 1

    def add_counts(self, msg_class: str, *, sent_bytes: int = 0,
                   sent_msgs: int = 0, recv_bytes: int = 0,
                   recv_msgs: int = 0) -> None:
        """Merge pre-aggregated counters for one class into this node.

        The multi-process live deployment uses this to reconstruct a
        replica's :class:`NicStats` in the parent process from the
        dict-shaped totals its child process reported.
        """
        class_id = _CLASS_IDS.get(msg_class)
        if class_id is None:
            class_id = intern_class(msg_class)
        if class_id >= len(self._sent_bytes):
            grow = class_id + 1 - len(self._sent_bytes)
            self._sent_bytes.extend([0] * grow)
            self._sent_msgs.extend([0] * grow)
        if class_id >= len(self._recv_bytes):
            grow = class_id + 1 - len(self._recv_bytes)
            self._recv_bytes.extend([0] * grow)
            self._recv_msgs.extend([0] * grow)
        self._sent_bytes[class_id] += sent_bytes
        self._sent_msgs[class_id] += sent_msgs
        self._recv_bytes[class_id] += recv_bytes
        self._recv_msgs[class_id] += recv_msgs

    # -- dict-shaped views (report path) -------------------------------

    @property
    def sent_bytes(self) -> dict[str, int]:
        """Bytes sent per message class (non-zero entries only)."""
        return {_CLASS_NAMES[i]: v
                for i, v in enumerate(self._sent_bytes) if v}

    @property
    def recv_bytes(self) -> dict[str, int]:
        """Bytes received per message class (non-zero entries only)."""
        return {_CLASS_NAMES[i]: v
                for i, v in enumerate(self._recv_bytes) if v}

    @property
    def sent_msgs(self) -> dict[str, int]:
        """Messages sent per message class (non-zero entries only)."""
        return {_CLASS_NAMES[i]: v
                for i, v in enumerate(self._sent_msgs) if v}

    @property
    def recv_msgs(self) -> dict[str, int]:
        """Messages received per message class (non-zero entries only)."""
        return {_CLASS_NAMES[i]: v
                for i, v in enumerate(self._recv_msgs) if v}

    # -- totals --------------------------------------------------------

    def total_sent(self) -> int:
        """Total bytes sent across all classes."""
        return sum(self._sent_bytes)

    def total_recv(self) -> int:
        """Total bytes received across all classes."""
        return sum(self._recv_bytes)

    def total_sent_msgs(self) -> int:
        """Total messages sent across all classes."""
        return sum(self._sent_msgs)

    def total_recv_msgs(self) -> int:
        """Total messages received across all classes."""
        return sum(self._recv_msgs)


# ---------------------------------------------------------------------------
# Run metrics (shared by both hosts)
# ---------------------------------------------------------------------------


def percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolation percentile of pre-sorted ``ordered`` values.

    The one percentile definition shared by every consumer — headline
    latency percentiles, per-interval time-series buckets and trace
    phase summaries — so simulated and live runs (and the calibration
    deltas between them) never disagree by estimator choice.  Matches
    numpy's default ("linear") method; NaN when ``ordered`` is empty.
    """
    if not ordered:
        return math.nan
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB — the live
    report's ``deployment.peak_rss_mb``, which says whether a run's
    retained state is bounded.

    Read from ``VmHWM`` where ``/proc`` has it: a spawned child's
    ``ru_maxrss`` starts at its parent's peak (Linux carries it across
    fork and exec), so a ``--processes`` replica would report the
    orchestrator's memory instead of its own.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    """Minor page faults this process has taken so far.  Live reports
    carry the delta over a run as ``deployment.minor_faults``: an
    allocator that maps and unmaps a fresh buffer per socket read shows
    there as 10^5-10^6 faults per run instead of a few thousand."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class LatencySample:
    """One acknowledged client bundle."""

    submitted_at: float
    acked_at: float

    @property
    def latency(self) -> float:
        """Seconds from submission to acknowledgement."""
        return self.acked_at - self.submitted_at


@dataclass
class MetricsCollector:
    """Mutable sink the execution backend writes into while running.

    Attributes:
        warmup: executions/acks before this time are ignored so that
            steady state, not ramp-up, is measured (paper: "each lasting
            until the measurement is stabilized").
    """

    warmup: float = 0.0
    executed_requests: dict[int, int] = field(default_factory=dict)
    first_execution: dict[int, float] = field(default_factory=dict)
    last_execution: dict[int, float] = field(default_factory=dict)
    latencies: list[LatencySample] = field(default_factory=list)
    phase_durations: dict[str, float] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    #: Data-plane instrumentation (coding/hashing wall-clock) shared with
    #: every component the cluster builder attaches it to.
    perf: PerfCounters = field(default_factory=PerfCounters)
    #: Optional :class:`repro.obs.timeseries.TimeSeries` (kept opaque so
    #: this module stays at the bottom of the layering).  Fed *before*
    #: the warmup cut: the interval curve must show ramp-up and faults
    #: the headline aggregates deliberately ignore.
    timeseries: object | None = None
    #: Client bundles re-sent after an ack timeout (never warmup-gated:
    #: a retransmission is a liveness event, not a steady-state sample).
    retransmissions: int = 0

    def record_retransmission(self, count: int = 1) -> None:
        """Record client bundle retransmissions."""
        self.retransmissions += count

    def record_execution(self, node_id: int, count: int, now: float) -> None:
        """Record ``count`` requests executed at ``node_id``."""
        series = self.timeseries
        if series is not None:
            series.record_execution(node_id, count, now)
        if now < self.warmup:
            return
        self.executed_requests[node_id] = (
            self.executed_requests.get(node_id, 0) + count)
        self.first_execution.setdefault(node_id, now)
        self.last_execution[node_id] = now

    def record_ack(self, submitted_at: float, now: float) -> None:
        """Record a client acknowledgement (one bundle)."""
        series = self.timeseries
        if series is not None:
            series.record_ack(now - submitted_at, now)
        if now < self.warmup:
            return
        self.latencies.append(LatencySample(submitted_at, now))

    def record_phase(self, phase: str, duration: float, now: float) -> None:
        """Accumulate time attributed to a protocol phase (Table IV)."""
        if now < self.warmup:
            return
        self.phase_durations[phase] = (
            self.phase_durations.get(phase, 0.0) + duration)
        self.phase_counts[phase] = self.phase_counts.get(phase, 0) + 1

    def record_trace(self, kind: str, data: dict, now: float) -> None:
        """Account one ``Trace`` effect a host ran.  Kinds other than
        ack/phase/retransmit are diagnostics for tests, ignored here."""
        if kind == "ack":
            self.record_ack(data["submitted_at"], now)
        elif kind == "phase":
            self.record_phase(data["phase"], data["duration"], now)
        elif kind == "retransmit":
            self.record_retransmission()

    def throughput(self, node_id: int, duration: float) -> float:
        """Requests/second executed at ``node_id`` over ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return self.executed_requests.get(node_id, 0) / duration

    def mean_latency(self) -> float:
        """Mean client latency in seconds (NaN when no samples)."""
        if not self.latencies:
            return math.nan
        return sum(s.latency for s in self.latencies) / len(self.latencies)

    def latency_percentile(self, pct: float) -> float:
        """Latency percentile in seconds (NaN when no samples)."""
        return percentile(sorted(s.latency for s in self.latencies), pct)

    def phase_breakdown(self) -> dict[str, float]:
        """Fraction of total phase time per phase (sums to 1.0)."""
        total = sum(self.phase_durations.values())
        if total <= 0:
            return {}
        return {phase: duration / total
                for phase, duration in self.phase_durations.items()}


# ---------------------------------------------------------------------------
# The backend-neutral run report
# ---------------------------------------------------------------------------

#: Version of the backend-neutral run-report schema below.
#: v2 added ``events_processed`` / ``sim_events_per_sec``; v3 added
#: ``event_queue`` (scheduler occupancy counters, ``None`` for live runs);
#: v4 added ``faults`` (injected behaviours, chaos-scenario events applied,
#: restart and link-shaping counters; ``None`` for a clean run); v5 added
#: ``timeseries`` (interval throughput/latency/backlog curve with chaos
#: annotations, :mod:`repro.obs.timeseries`; ``None`` when no collector
#: was attached); v6 added wave-aggregation counters to the
#: ``event_queue`` section (``waves``, ``wave_events``,
#: ``wave_receivers``, ``wave_slabs``, ``wave_pending``,
#: ``scalar_fallbacks``) — the wave tier is gone, so reports written
#: since carry only a constant ``wave_events: 0`` and consumers read
#: the rest with ``.get``; v7 added ``recovery`` (crash
#: recovery: per-replica catch-up counters and executed-tail digests,
#: durable-snapshot counts in ``--processes`` mode; ``None`` for runs
#: with no recovery activity) and ``retransmissions`` (client bundles
#: re-sent after an ack timeout).
REPORT_SCHEMA = 7


def standard_report(*, backend: str, protocol: str, n: int,
                    duration: float, metrics: MetricsCollector,
                    byte_stats: dict[int, NicStats],
                    measure_replica: int,
                    events_processed: int = 0,
                    events_per_sec: float = 0.0,
                    event_queue: dict | None = None,
                    faults: dict | None = None,
                    timeseries: dict | None = None,
                    recovery: dict | None = None) -> dict:
    """The run report shared by the simulated and live backends.

    Args:
        backend: ``"sim"`` or ``"live"`` — how the cluster executed.
        protocol: ``"leopard"`` / ``"hotstuff"`` / ``"pbft"``.
        n: replica count.
        duration: measurement-window seconds (post warmup).
        metrics: the run's collector.
        byte_stats: per-node byte counters — modelled NIC stats for the
            simulator, real socket counters for the live transport.
        measure_replica: honest non-leader replica whose execution point
            defines throughput (paper §VI).
        events_processed: engine events executed — discrete-event queue
            entries for the simulator, delivered frames for the live
            transport.
        events_per_sec: ``events_processed`` over the *wall-clock* time
            spent executing them (for a live run wall-clock and protocol
            time coincide) — the simulator-throughput figure the sim
            macro-benchmark gates on.
        event_queue: scheduler occupancy counters
            (:meth:`repro.sim.events.EventQueue.occupancy`) for simulated
            runs; ``None`` for the live transport, which has no modelled
            scheduler — the key is emitted either way so both backends
            produce identical report shapes.
        faults: fault-injection summary (injected behaviour specs, chaos
            events applied, restart/shaping counters); ``None`` for a
            clean run — like ``event_queue``, the key is always emitted
            to keep report shapes identical.
        timeseries: rendered interval section
            (:meth:`repro.obs.timeseries.TimeSeries.section`) — the
            dip-and-recovery curve for chaos/calibration runs; ``None``
            when the run attached no collector, key always emitted.
        recovery: crash-recovery section
            (:func:`repro.core.recovery.recovery_section`): per-replica
            catch-up counters plus executed-tail digests, and the
            durable-snapshot counters in ``--processes`` mode; ``None``
            when no replica recovered, key always emitted.

    Identical keys from both backends make a live localhost run directly
    comparable with a simulated one of the same shape.
    """
    return {
        "schema": REPORT_SCHEMA,
        "backend": backend,
        "protocol": protocol,
        "n": n,
        "duration_s": duration,
        "measure_replica": measure_replica,
        "throughput_rps": metrics.throughput(measure_replica, duration),
        "executed_requests": dict(metrics.executed_requests),
        "acked_bundles": len(metrics.latencies),
        "events_processed": int(events_processed),
        "sim_events_per_sec": float(events_per_sec),
        "event_queue": event_queue,
        "faults": faults,
        "timeseries": timeseries,
        "recovery": recovery,
        "retransmissions": metrics.retransmissions,
        "latency_s": {
            "mean": metrics.mean_latency(),
            "p50": metrics.latency_percentile(50),
            "p90": metrics.latency_percentile(90),
            "p99": metrics.latency_percentile(99),
        },
        "bytes_by_class": {
            node_id: {"sent": dict(stats.sent_bytes),
                      "recv": dict(stats.recv_bytes)}
            for node_id, stats in sorted(byte_stats.items())
        },
        "perf": metrics.perf.snapshot(),
    }
