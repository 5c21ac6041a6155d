"""Hosts: the glue between a sans-io protocol core and the simulator.

A :class:`SimNode` owns one protocol core and interprets its effects —
sends become NIC transmissions, timers become queue events — under a
**CPU cost model** (callable ``(msg, receiving) -> seconds``): each node
has a single modelled CPU whose busy time delays message handling; this
is what caps throughput when bandwidth is plentiful (see
:mod:`repro.analysis.calibration`).

The host has no fault logic: a faulty replica's core comes wrapped in a
:class:`repro.faults.FaultyCore` (see :func:`repro.faults.hosted_core`).
The node keeps one receipt gate, :attr:`SimNode.admits` — the wrapper's
``admits``, ``None`` with no fault in the stack — consulted *before* the
CPU lane is charged, so a dropped message costs nothing, as modelled.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.interfaces import (
    DATA_PLANE_CLASSES,
    Broadcast,
    CancelTimer,
    Effect,
    Executed,
    Message,
    ProtocolCore,
    Send,
    SetTimer,
    Trace,
)
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.stats import MetricsCollector

CpuModel = Callable[[Message, bool], float]


def zero_cpu(msg: Message, receiving: bool) -> float:
    """A CPU model that charges nothing."""
    return 0.0


class SimNode:
    """One simulated node (replica or client).

    Args:
        core: the sans-io protocol core to host, bare or stacked by
            :func:`repro.faults.hosted_core`.
        network: shared network model.
        queue: shared event queue.
        metrics: shared metrics sink.
        replica_ids: ids that :class:`Broadcast` effects expand to.
        cpu_model: per-message CPU cost model.
    """

    __slots__ = ("core", "admits", "node_id", "network", "queue", "metrics",
                 "replica_ids", "cpu_model", "data_busy_until",
                 "ctrl_busy_until", "_timer_generation", "_timer_seq",
                 "router")

    def __init__(self, core: ProtocolCore, network: Network,
                 queue: EventQueue, metrics: MetricsCollector,
                 replica_ids: Iterable[int],
                 cpu_model: CpuModel = zero_cpu) -> None:
        self.node_id = core.node_id
        self.network = network
        self.queue = queue
        self.metrics = metrics
        self.replica_ids = tuple(replica_ids)
        self.cpu_model = cpu_model
        self.data_busy_until = 0.0
        self.ctrl_busy_until = 0.0
        self._timer_generation: dict[Hashable, int] = {}
        #: Node-wide arm counter: a generation is never reused, so an
        #: event superseded by an *earlier* re-arm of its key stays stale
        #: after that re-arm has fired and been replaced.
        self._timer_seq = 0
        #: Set by :class:`repro.sim.runner.Simulation`; routes delivered
        #: messages to the destination host. ``None`` in host-less tests.
        self.router = None
        self.host(core)

    def host(self, core: ProtocolCore) -> None:
        """Host ``core`` (at build, fault hot swap or restart) and take
        its receipt gate: ``None`` unless a fault is in the stack, which
        keeps the fast path of ``Transmission.arrive``."""
        self.core = core
        self.admits = getattr(core, "admits", None)
        # Give cores that pace themselves (datablock generators) a view of
        # their own NIC backlog, without coupling core code to the simulator.
        if hasattr(core, "backlog_probe"):
            core.backlog_probe = self._backlog_probe

    def _backlog_probe(self) -> float:
        """Seconds of queued egress work at this node's NIC."""
        return self.network.backlog(self.node_id, self.queue._now)

    def boot(self) -> None:
        """Schedule the core's start at the current simulated time."""
        self.queue.schedule(self.queue.now, self._start)

    def _start(self) -> None:
        self._apply(self.core.start(self.queue.now))

    def _charge_cpu(self, cost: float, msg_class: str, at: float) -> float:
        """Occupy the matching CPU lane for ``cost`` seconds from ``at``
        (or once it is free); returns the time the work completes."""
        if msg_class in DATA_PLANE_CLASSES:
            busy = self.data_busy_until
            self.data_busy_until = (busy if busy > at else at) + cost
            return self.data_busy_until
        busy = self.ctrl_busy_until
        self.ctrl_busy_until = (busy if busy > at else at) + cost
        return self.ctrl_busy_until

    def deliver(self, sender: int, msg: Message) -> None:
        """Called when a message finishes arriving *now*.

        The injection entry point (request priming, tests): the CPU lane
        is reserved at delivery-complete time.  Modelled transmissions
        enter through :meth:`receive_at` instead.
        """
        now = self.queue.now
        admits = self.admits
        if admits is not None and not admits(sender, msg, now):
            return
        ready_at = self._charge_cpu(self.cpu_model(msg, True),
                                    msg.msg_class, now)
        if ready_at <= now:
            self._apply(self.core.on_message(sender, msg, now))
        else:
            self.queue.schedule(
                ready_at,
                lambda: self._apply(
                    self.core.on_message(sender, msg, self.queue.now)))

    def receive_at(self, sender: int, msg: Message, delivered: float
                   ) -> None:
        """Reserve the CPU lane for a message that completes at ``delivered``.

        Called at wire-*arrival* time
        (:meth:`repro.sim.network.Transmission.arrive` takes this path
        for hosts with a receipt gate): the lane is reserved immediately
        from ``max(lane_busy, delivered)`` and a single event fires the
        core when the work completes.  Delivery-complete times are
        FIFO-monotone per node, so reserving in arrival order yields the
        schedule reserving at delivery-complete time would.

        The gate runs at arrival time; a core that crashes while the
        message waits for its lane is silenced by its fault wrapper.
        """
        queue = self.queue
        admits = self.admits
        if admits is not None and not admits(sender, msg, queue._now):
            return
        ready_at = self._charge_cpu(self.cpu_model(msg, True),
                                    msg.msg_class, delivered)
        queue.push(ready_at, self._deliver_ready, (sender, msg))

    def _deliver_ready(self, pending: tuple[int, Message]) -> None:
        """CPU-lane completion: run the core on a delayed message."""
        sender, msg = pending
        effects = self.core.on_message(sender, msg, self.queue._now)
        if effects:
            self._apply(effects)

    def _fire_timer(self, armed: tuple[Hashable, int]) -> None:
        key, generation = armed
        generations = self._timer_generation
        if generations.get(key) != generation:
            return  # re-armed or cancelled since scheduling
        del generations[key]
        effects = self.core.on_timer(key, self.queue._now)
        if effects:
            self._apply(effects)

    def _apply(self, effects: list[Effect]) -> None:
        """Execute the effects the hosted core returned."""
        now = self.queue._now
        for effect in effects:
            if isinstance(effect, Send):
                msg = effect.msg
                self._charge_cpu(
                    self.cpu_model(msg, False), msg.msg_class, now)
                self.network.send_unicast(
                    self.node_id, effect.dest, msg, self.queue.now,
                    self.queue, self.router)
            elif isinstance(effect, Broadcast):
                msg = effect.msg
                excluded = set(effect.exclude)
                excluded.add(self.node_id)
                dests = [dest for dest in self.replica_ids
                         if dest not in excluded]
                if not dests:
                    continue
                # All copies charge the same cost back-to-back on the
                # same lane, so one combined charge is equivalent to
                # the per-copy loop.
                self._charge_cpu(
                    self.cpu_model(msg, False) * len(dests),
                    msg.msg_class, now)
                self.network.send_broadcast(
                    self.node_id, dests, msg, self.queue.now,
                    self.queue, self.router)
            elif isinstance(effect, SetTimer):
                generation = self._timer_seq = self._timer_seq + 1
                self._timer_generation[effect.key] = generation
                # push's late check rejects a delay more than
                # LATE_TOLERANCE in the past.
                self.queue.push(now + effect.delay, self._fire_timer,
                                (effect.key, generation))
            elif isinstance(effect, CancelTimer):
                self._timer_generation.pop(effect.key, None)
            elif isinstance(effect, Executed):
                self.metrics.record_execution(
                    self.node_id, effect.count, now)
            elif isinstance(effect, Trace):
                self.metrics.record_trace(effect.kind, effect.data, now)
            else:
                raise TypeError(f"unknown effect {effect!r}")
