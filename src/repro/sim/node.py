"""Hosts: the glue between a sans-io protocol core and the simulator.

A :class:`SimNode` owns one protocol core and interprets its effects —
sends become NIC transmissions, timers become queue events — while applying
two cross-cutting models:

* a **CPU cost model** (callable ``(msg, receiving) -> seconds``): each node
  has a single modelled CPU whose busy time delays message handling; this is
  what caps throughput when bandwidth is plentiful (see
  :mod:`repro.analysis.calibration`);
* a **fault behaviour** (:mod:`repro.faults`) that can rewrite outgoing
  effects and drop incoming messages, realising the paper's Byzantine
  adversary.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.faults import HONEST, FaultBehavior
from repro.interfaces import (
    DATA_PLANE_CLASSES,
    Broadcast,
    CancelTimer,
    Delayed,
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
        core: the sans-io protocol core to host.
        network: shared network model.
        queue: shared event queue.
        metrics: shared metrics sink.
        replica_ids: ids that :class:`Broadcast` effects expand to.
        cpu_model: per-message CPU cost model.
        fault: Byzantine behaviour wrapper (honest by default).
    """

    __slots__ = ("core", "node_id", "network", "queue", "metrics",
                 "replica_ids", "cpu_model", "fault", "_honest",
                 "data_busy_until", "ctrl_busy_until", "_timer_generation",
                 "_timer_seq", "router")

    def __init__(self, core: ProtocolCore, network: Network,
                 queue: EventQueue, metrics: MetricsCollector,
                 replica_ids: Iterable[int],
                 cpu_model: CpuModel = zero_cpu,
                 fault: FaultBehavior = HONEST) -> None:
        self.core = core
        self.node_id = core.node_id
        self.network = network
        self.queue = queue
        self.metrics = metrics
        self.replica_ids = tuple(replica_ids)
        self.cpu_model = cpu_model
        self.fault = fault
        #: Fast-path flag: honest nodes skip the crash/drop checks and
        #: the effect-rewrite hook on every delivery.
        self._honest = fault is HONEST
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
        # Give cores that pace themselves (datablock generators) a view of
        # their own NIC backlog, without coupling core code to the simulator.
        if hasattr(core, "backlog_probe"):
            core.backlog_probe = self._backlog_probe

    def install_tracer(self, tracer) -> None:
        """Enable lifecycle tracing by wrapping the hosted core.

        Tracing lives entirely in the :class:`repro.obs.tracer.
        TracedCore` wrapper at the sans-io boundary, so a node that
        never installs a tracer pays nothing — no flag checks on the
        delivery or effect hot paths (the <2% disabled-overhead policy
        gated by ``benchmarks/run_sim_bench.py``).  Idempotent per
        core: call again after swapping :attr:`core` (restarts).
        """
        from repro.obs.tracer import TracedCore

        if not isinstance(self.core, TracedCore):
            self.core = TracedCore(self.core, tracer)

    def _backlog_probe(self) -> float:
        """Seconds of queued egress work at this node's NIC."""
        return self.network.backlog(self.node_id, self.queue._now)

    def boot(self) -> None:
        """Schedule the core's start at the current simulated time."""
        self.queue.schedule(self.queue.now, self._start)

    def _start(self) -> None:
        self._apply(self.core.start(self.queue.now))

    def _charge_cpu(self, cost: float, msg_class: str) -> float:
        """Occupy the matching CPU lane for ``cost`` seconds.

        Returns the time the work completes.
        """
        now = self.queue._now
        if msg_class in DATA_PLANE_CLASSES:
            start = self.data_busy_until if self.data_busy_until > now \
                else now
            self.data_busy_until = start + cost
            return self.data_busy_until
        start = self.ctrl_busy_until if self.ctrl_busy_until > now else now
        self.ctrl_busy_until = start + cost
        return self.ctrl_busy_until

    def deliver(self, sender: int, msg: Message) -> None:
        """Called when a message finishes arriving *now*.

        The injection entry point (request priming, tests): the CPU lane
        is reserved at delivery-complete time.  Modelled transmissions
        enter through :meth:`receive_at` instead.
        """
        now = self.queue.now
        if self.fault.crashed:
            return
        if self.fault.drop_incoming(sender, msg, now):
            return
        cost = self.cpu_model(msg, True)
        ready_at = self._charge_cpu(cost, msg.msg_class)
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
        for faulty hosts): the lane is reserved immediately from
        ``max(lane_busy, delivered)`` and a single event fires the core
        when the work completes.  Delivery-complete times are
        FIFO-monotone per node, so reserving in arrival order yields the
        schedule reserving at delivery-complete time would.

        Fault timing: crash/drop checks run at arrival time, and a
        crashed node re-checks at the core callback.
        """
        queue = self.queue
        if not self._honest:
            if self.fault.crashed:
                return
            if self.fault.drop_incoming(sender, msg, queue._now):
                return
        cost = self.cpu_model(msg, True)
        if msg.msg_class in DATA_PLANE_CLASSES:
            busy = self.data_busy_until
            start = busy if busy > delivered else delivered
            ready_at = self.data_busy_until = start + cost
        else:
            busy = self.ctrl_busy_until
            start = busy if busy > delivered else delivered
            ready_at = self.ctrl_busy_until = start + cost
        queue.push(ready_at, self._deliver_ready, (sender, msg))

    def _deliver_ready(self, pending: tuple[int, Message]) -> None:
        """CPU-lane completion: run the core on a delayed message."""
        sender, msg = pending
        if not self._honest and self.fault.crashed:
            return
        effects = self.core.on_message(sender, msg, self.queue._now)
        if effects or not self._honest:
            self._apply(effects)

    def _fire_timer(self, armed: tuple[Hashable, int]) -> None:
        key, generation = armed
        generations = self._timer_generation
        if generations.get(key) != generation:
            return  # re-armed or cancelled since scheduling
        del generations[key]
        if not self.fault.crashed:
            self._apply(self.core.on_timer(key, self.queue._now))

    def _apply(self, effects: list[Effect]) -> None:
        if not self._honest:
            # Honest pass-through is the identity, so honest nodes skip
            # the rewrite hook.
            effects = self.fault.filter_effects(effects, self.queue._now)
        if not effects:
            return
        self._interpret(effects)

    def _interpret(self, effects: list[Effect]) -> None:
        """Execute already-filtered effects (no fault rewrite pass)."""
        now = self.queue._now
        for effect in effects:
            if isinstance(effect, Send):
                msg = effect.msg
                self._charge_cpu(
                    self.cpu_model(msg, False), msg.msg_class)
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
                    msg.msg_class)
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
                self._record_trace(effect, now)
            elif isinstance(effect, Delayed):
                # A fault wrapped this effect in a lag (DelaySend).  The
                # inner effect is interpreted raw at the later time — NOT
                # re-filtered, or the fault would delay it again forever.
                self.queue.schedule(now + effect.delay,
                                    lambda e=effect.effect:
                                    self._interpret_delayed(e))
            else:
                raise TypeError(f"unknown effect {effect!r}")

    def _interpret_delayed(self, effect: Effect) -> None:
        """Fire one lag-released effect (unless the node crashed since)."""
        if not self._honest and self.fault.crashed:
            return
        self._interpret([effect])

    def _record_trace(self, effect: Trace, now: float) -> None:
        if effect.kind == "ack":
            self.metrics.record_ack(effect.data["submitted_at"], now)
        elif effect.kind == "phase":
            self.metrics.record_phase(
                effect.data["phase"], effect.data["duration"], now)
        elif effect.kind == "retransmit":
            self.metrics.record_retransmission()
        # Unknown trace kinds are allowed and ignored: cores may emit extra
        # diagnostics that only specific tests look at.
